/**
 * @file
 * Shared plumbing of the benchmark binary: options, the result
 * report, the per-run clock and the compiled-application record.
 *
 * Every number is measured from outside the library, by timing calls
 * into each layer's public functions; nothing here changes what a
 * run computes.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/campaign.hh"
#include "src/core/config.hh"
#include "src/isa/program.hh"
#include "src/spans.hh"
#include "src/support/strutil.hh"
#include "src/workloads/workload.hh"

namespace perfbench
{

namespace core = pe::core;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;     //!< time one set-up and exit
    std::string outDir = ".";   //!< where the traced run writes spans
};

/**
 * Everything one invocation prints: metrics by name and unit,
 * reproducibility digests, operation counts and provenance.  Printed
 * as one JSON line that perfbench/run.py turns into the final record.
 */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void digest(const std::string &name, uint64_t value);
    void info(const std::string &key, const std::string &value);
    void info(const std::string &key, double value);

    /** One operation attempted; counts a failure when !ok. */
    void check(bool ok, const std::string &what);

    /** @p n operations attempted. */
    void attempt(uint64_t n) { attempted += n; }

    /** @p n of the attempted operations failed. */
    void fail(uint64_t n, const std::string &what);

    void print(std::ostream &os) const;

  private:
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::map<std::string, std::string> digests;
    std::map<std::string, std::string> infos;
    uint64_t attempted = 0;
    uint64_t failedOps = 0;
    std::vector<std::string> failures;
};

/** A compiled workload with the engine configurations its runs use. */
struct App
{
    const pe::workloads::Workload *workload = nullptr;
    pe::isa::Program program;
    std::vector<core::PeConfig> configs;
};

/**
 * Compile workload @p name (span "minic.compile") and build the first
 * engine for each of @p configs (span "analysis.engine_ctor_first":
 * decode, the process-wide verifier memo and saturation regions are
 * cold on the first engine of a program and config).  Adds the two
 * times to @p compileS and @p engineS.
 */
App loadApp(const std::string &name, std::vector<core::PeConfig> configs,
            SpanRecorder &spans, uint32_t parent, double &compileS,
            double &engineS);

/** The paper-default configuration for @p mode, sized to the app. */
core::PeConfig appConfig(const pe::workloads::Workload &w,
                         core::PeMode mode);

/** One finished monitored run as the benchmark saw it. */
struct RunSample
{
    Clock::time_point start;
    Clock::time_point end;
};

/** Work counters summed over the runs of one arm. */
struct ArmCounts
{
    uint64_t runs = 0;
    uint64_t aborted = 0;
    uint64_t taken = 0;
    uint64_t nt = 0;
    uint64_t pruned = 0;
    uint64_t ntSpawned = 0;
    uint64_t ntSkippedBusy = 0;
    uint64_t ntRecords = 0;
    uint64_t ntLength = 0;
    uint64_t l2Contention = 0;
    std::vector<uint64_t> ntStops =
        std::vector<uint64_t>(static_cast<size_t>(
                                  core::NtStopCause::HostAbort) + 1);
    double hostSeconds = 0;     //!< summed run latency
};

/**
 * Per-run latency, timed from the job's detector-factory call to its
 * completion hook.  The factory stamps a thread-local start and
 * returns no detector, so the run is exactly the detector-less run;
 * the campaign calls the hook on the thread that ran the job.
 */
class RunClock
{
  public:
    explicit RunClock(SpanRecorder &spans) : spans(spans) {}

    core::DetectorFactory factory() const;

    /** Record @p result's run; call from the job's own thread. */
    void finish(const core::RunResult &result, uint32_t arm);

    /** Parent span for the runs that finish next. */
    void setParent(uint32_t span) { parent = span; }

    /** Drop coverage copies kept for the merge replay once past this. */
    void keepCoverage(size_t max) { keepMax = max; }

    std::vector<RunSample> samples;
    std::map<uint32_t, ArmCounts> arms;
    std::vector<pe::coverage::BranchCoverage> coverageKept;

  private:
    SpanRecorder &spans;
    std::mutex mtx;
    uint32_t parent = 0;
    size_t keepMax = 0;
};

/** Sum of the counts of every arm. */
ArmCounts totalCounts(const std::map<uint32_t, ArmCounts> &arms);

/** 64-bit FNV-1a, folding in one value at a time. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        add(s.size());
    }
};

/**
 * The paper's sandboxing invariant (tests/engine_property_test.cpp):
 * a PathExpander run leaves the architected outcome of the Off run on
 * the same input untouched.  Returns an empty string when it holds,
 * else which field differs.
 */
std::string sandboxMismatch(const core::RunResult &pe,
                            const core::RunResult &off);

/** Percentile summary of a latency sample, in ms. */
void latencyMetrics(Report &report, const std::string &prefix,
                    const std::vector<double> &seconds);

/** Peak resident memory of this process (+ @p childScale children). */
double peakRssMb(unsigned childScale);

/** An input-generation seed derived from the workload seed. */
uint64_t derivedSeed(uint64_t seed, uint64_t salt);

/** Work and host time of the measured repetitions of one kind. */
struct Tally
{
    uint64_t reps = 0;
    uint64_t runs = 0;
    uint64_t insts = 0;         //!< simulated taken + NT instructions
    double wall = 0;
};

/**
 * The closed measurement loop: repetitions of a fixed unit of work
 * until opts.seconds have passed.  The first repetition warms caches
 * and lazy set-up and is not timed.  In a traced run the timed
 * repetitions alternate between tracing off and on, so the two rates
 * come from the same stretch of time and their ratio is the tracing
 * overhead.
 */
class RepLoop
{
  public:
    RepLoop(const Options &opts, SpanRecorder &spans);

    /** Start the next repetition; false once the time is up. */
    bool next();

    uint64_t rep() const { return count - 1; }
    bool warmup() const { return count == 1; }
    bool traced() const { return spans.enabled(); }

    /** Account the repetition that just ended (ignored when warm-up). */
    void add(uint64_t runs, uint64_t insts, double wall);

    /**
     * runs_per_s and sim_mips over all timed repetitions (total work
     * over total time, so repetitions with cheap and costly inputs
     * average out), plus the traced rates when tracing.
     */
    void report(Report &report) const;

    /** Timed repetitions that ran with tracing on. */
    uint64_t tracedReps() const { return tally[1].reps; }

  private:
    const Options &opts;
    SpanRecorder &spans;
    Clock::time_point begin = Clock::now();
    uint64_t count = 0;
    Tally tally[2];
};

/** Self time per span name, in ms per traced repetition. */
void reportSelfTimes(Report &report, const SpanRecorder &spans,
                     uint64_t tracedReps);

// The three workloads and the layer probes (probes.cc).
void runExploreSiemens(const Options &opts, Report &report,
                       SpanRecorder &spans);
void runCampaignSpec(const Options &opts, Report &report,
                     SpanRecorder &spans);
void runFleetPaths(const Options &opts, Report &report,
                   SpanRecorder &spans);

/**
 * Fixed-cost probes for @p apps: a one-instruction `sys exit` run
 * per config, the MainMemory and MemHierarchy constructors, warm
 * engine construction, and the coverage merge replayed over
 * @p coverage.
 */
void runProbes(const std::vector<const App *> &apps,
               const std::vector<std::pair<std::string,
                                           core::PeConfig>> &fixedConfigs,
               const std::vector<pe::coverage::BranchCoverage> &coverage,
               Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
