/**
 * @file
 * Report, per-run clock and application loading.
 */

#include "src/bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "src/core/engine.hh"
#include "src/minic/compiler.hh"
#include "src/support/rng.hh"
#include "src/support/strutil.hh"

namespace perfbench
{

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics[name] = {value, unit};
}

void
Report::digest(const std::string &name, uint64_t value)
{
    digests[name] = pe::fmtHex(value);
}

void
Report::info(const std::string &key, const std::string &value)
{
    infos[key] = jsonString(value);
}

void
Report::info(const std::string &key, double value)
{
    std::ostringstream os;
    os << std::setprecision(12) << value;
    infos[key] = os.str();
}

void
Report::check(bool ok, const std::string &what)
{
    attempt(1);
    fail(ok ? 0 : 1, what);
}

void
Report::fail(uint64_t n, const std::string &what)
{
    failedOps += n;
    if (n && failures.size() < 20)
        failures.push_back(what + " (" + std::to_string(n) + ")");
}

void
Report::print(std::ostream &os) const
{
    os << std::setprecision(12) << "{\"attempted\":" << attempted
       << ",\"failed\":" << failedOps << ",\"failures\":[";
    for (size_t i = 0; i < failures.size(); ++i)
        os << (i ? "," : "") << jsonString(failures[i]);
    os << "],\"metrics\":{";
    bool first = true;
    for (const auto &[name, vu] : metrics) {
        os << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
           << vu.first << ",\"unit\":" << jsonString(vu.second) << "}";
        first = false;
    }
    os << "},\"digests\":{";
    first = true;
    for (const auto &[name, value] : digests) {
        os << (first ? "" : ",") << jsonString(name) << ":"
           << jsonString(value);
        first = false;
    }
    os << "},\"info\":{";
    first = true;
    for (const auto &[key, value] : infos) {
        os << (first ? "" : ",") << jsonString(key) << ":" << value;
        first = false;
    }
    os << "}}\n";
}

core::PeConfig
appConfig(const pe::workloads::Workload &w, core::PeMode mode)
{
    auto cfg = core::PeConfig::forMode(mode);
    cfg.maxNtPathLength = w.maxNtPathLength;
    return cfg;
}

App
loadApp(const std::string &name, std::vector<core::PeConfig> configs,
        SpanRecorder &spans, uint32_t parent, double &compileS,
        double &engineS)
{
    App app;
    app.workload = &pe::workloads::getWorkload(name);
    app.configs = std::move(configs);

    auto t0 = Clock::now();
    app.program = pe::minic::compile(app.workload->source, name);
    auto t1 = Clock::now();
    for (const core::PeConfig &config : app.configs)
        core::PathExpanderEngine engine(app.program, config);
    auto t2 = Clock::now();
    spans.record("minic.compile", parent, t0, t1);
    spans.record("analysis.engine_ctor_first", parent, t1, t2);
    compileS += seconds(t0, t1);
    engineS += seconds(t1, t2);
    return app;
}

namespace
{
thread_local Clock::time_point runStart;
} // namespace

core::DetectorFactory
RunClock::factory() const
{
    return [] {
        runStart = Clock::now();
        return std::unique_ptr<pe::detect::Detector>();
    };
}

void
RunClock::finish(const core::RunResult &r, uint32_t arm)
{
    auto end = Clock::now();
    Clock::time_point start = runStart;
    std::lock_guard lock(mtx);
    samples.push_back(RunSample{start, end});
    spans.record("core.run", parent, start, end);

    ArmCounts &c = arms[arm];
    ++c.runs;
    c.aborted += r.aborted ? 1 : 0;
    c.taken += r.takenInstructions;
    c.nt += r.ntInstructions;
    c.pruned += r.prunedInstructions;
    c.ntSpawned += r.ntPathsSpawned;
    c.ntSkippedBusy += r.ntPathsSkippedBusy;
    c.l2Contention += r.l2ContentionCycles;
    for (const core::NtPathRecord &rec : r.ntRecords) {
        ++c.ntRecords;
        c.ntLength += rec.length;
        ++c.ntStops[static_cast<size_t>(rec.cause)];
    }
    c.hostSeconds += seconds(start, end);
    if (coverageKept.size() < keepMax)
        coverageKept.push_back(r.coverage);
}

ArmCounts
totalCounts(const std::map<uint32_t, ArmCounts> &arms)
{
    ArmCounts t;
    for (const auto &[arm, c] : arms) {
        t.runs += c.runs;
        t.aborted += c.aborted;
        t.taken += c.taken;
        t.nt += c.nt;
        t.pruned += c.pruned;
        t.ntSpawned += c.ntSpawned;
        t.ntSkippedBusy += c.ntSkippedBusy;
        t.ntRecords += c.ntRecords;
        t.ntLength += c.ntLength;
        t.l2Contention += c.l2Contention;
        for (size_t i = 0; i < t.ntStops.size(); ++i)
            t.ntStops[i] += c.ntStops[i];
        t.hostSeconds += c.hostSeconds;
    }
    return t;
}

std::string
sandboxMismatch(const core::RunResult &pe, const core::RunResult &off)
{
    if (pe.io.charOutput != off.io.charOutput)
        return "io.charOutput";
    if (pe.io.inputPos != off.io.inputPos)
        return "io.inputPos";
    if (pe.takenInstructions != off.takenInstructions)
        return "takenInstructions";
    if (pe.memoryDigest != off.memoryDigest)
        return "memoryDigest";
    return "";
}

void
latencyMetrics(Report &report, const std::string &prefix,
               const std::vector<double> &secs)
{
    double pct = 0;
    double t = tail(secs, pct);
    report.metric(prefix + "_p50", median(secs) * 1e3, "ms");
    report.metric(prefix + "_tail", t * 1e3, "ms");
    report.info(prefix + "_tail_percentile", pct);
    report.info(prefix + "_samples", static_cast<double>(secs.size()));
}

double
peakRssMb(unsigned childScale)
{
    struct rusage self = {};
    struct rusage kids = {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    // ru_maxrss is in KiB on Linux.  Children report only the largest
    // one, so each of @p childScale workers is counted at that peak.
    double kib = static_cast<double>(self.ru_maxrss) +
                 static_cast<double>(childScale) *
                     static_cast<double>(kids.ru_maxrss);
    return kib / 1024.0;
}

uint64_t
derivedSeed(uint64_t seed, uint64_t salt)
{
    return pe::Rng(seed).fork(salt).next64();
}

RepLoop::RepLoop(const Options &opts, SpanRecorder &spans)
    : opts(opts), spans(spans)
{
    spans.setEnabled(false);
}

bool
RepLoop::next()
{
    double elapsed = seconds(begin, Clock::now());
    // Warm-up plus one timed repetition, and in a traced run one timed
    // repetition of each kind.
    bool more = count < (opts.trace ? 3u : 2u) || elapsed < opts.seconds;
    if (!more) {
        spans.setEnabled(false);
        return false;
    }
    ++count;
    spans.setEnabled(opts.trace && !warmup() && count % 2 == 1);
    return true;
}

void
RepLoop::add(uint64_t runs, uint64_t insts, double wall)
{
    if (warmup())
        return;
    Tally &t = tally[traced() ? 1 : 0];
    ++t.reps;
    t.runs += runs;
    t.insts += insts;
    t.wall += wall;
}

void
RepLoop::report(Report &report) const
{
    const Tally &u = tally[0];
    double untraced = static_cast<double>(u.runs) / u.wall;
    report.metric("runs_per_s", untraced, "1/s");
    report.metric("sim_mips", static_cast<double>(u.insts) / u.wall / 1e6,
                  "MIPS");
    report.info("reps", static_cast<double>(u.reps));
    if (!opts.trace)
        return;
    const Tally &t = tally[1];
    double traced = static_cast<double>(t.runs) / t.wall;
    report.metric("trace.runs_per_s", traced, "1/s");
    report.metric("trace.untraced_runs_per_s", untraced, "1/s");
    report.metric("trace.overhead_frac", 1.0 - traced / untraced,
                  "fraction");
}

void
reportSelfTimes(Report &report, const SpanRecorder &spans,
                uint64_t tracedReps)
{
    double reps = static_cast<double>(std::max<uint64_t>(tracedReps, 1));
    for (const auto &[name, self] : spans.selfSeconds())
        report.metric("self_ms." + name, self * 1e3 / reps, "ms");
}

} // namespace perfbench
