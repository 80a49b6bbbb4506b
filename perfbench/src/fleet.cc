/**
 * @file
 * Workload fleet_paths: fleet::runFleet over forked socketpair
 * workers, with the prime-path objective on, over pe_bc.
 *
 * The only workload that exercises the fleet (lockstep rounds, wire
 * frames, shard-ordered merges) and the only one where every branch
 * surfaces from the interpreter and the prime-path fold runs on every
 * run.  Building the prime-path set runs in the coordinator and in
 * every worker, and counts as set-up.
 *
 * schedule2 is left out of the timed loop: its path-objective sessions
 * settle on inputs of 30k to 72k instructions per run depending on the
 * seed, which moved runs_per_s by a quarter between seeds.  The traced
 * run still probes its prime-path build and fold, the costliest ones.
 */

#include <cstdlib>
#include <cstring>
#include <memory>
#include <streambuf>

#include "src/bench.hh"
#include "src/core/engine.hh"
#include "src/coverage/pathcov.hh"
#include "src/fleet/coordinator.hh"
#include "src/fleet/transport.hh"

namespace perfbench
{

namespace
{

namespace fleet = pe::fleet;

const char *const kApp = "pe_bc";
constexpr unsigned kShards = 3;
constexpr size_t kSeedInputs = 5;
constexpr size_t kBatch = 8;

/** Global run budget of one fleet session. */
constexpr uint64_t kRuns = 960;

/** Runs per lockstep round across the fleet (4 batches per shard). */
constexpr uint64_t kRoundRuns = kShards * kBatch * 4;

/**
 * The fork transport with timestamps: when the children were spawned
 * and when the coordinator first closed a channel, which it does right
 * after the last round (or, with a zero budget, right after the
 * handshake).
 */
class TimedTransport final : public fleet::Transport
{
  public:
    explicit TimedTransport(const pe::isa::Program &program)
        : inner(program)
    {}

    const char *name() const override { return inner.name(); }

    std::vector<int>
    establish(const fleet::FleetIdentity &id,
              const std::vector<fleet::WorkerConfig> &configs,
              const std::atomic<bool> *stopFlag) override
    {
        establishStart = Clock::now();
        auto fds = inner.establish(id, configs, stopFlag);
        establishEnd = Clock::now();
        return fds;
    }

    void closeChannel(uint32_t shard) override
    {
        markClosing();
        inner.closeChannel(shard);
    }

    void shutdown(int reapTimeoutMs) override
    {
        markClosing();
        inner.shutdown(reapTimeoutMs);
        shutdownEnd = Clock::now();
    }

    Clock::time_point establishStart, establishEnd, firstClose,
        shutdownEnd;

  private:
    void markClosing()
    {
        if (!closing)
            firstClose = Clock::now();
        closing = true;
    }

    fleet::ForkTransport inner;
    bool closing = false;
};

/** Timestamps every line the coordinator writes to its JSONL stream. */
class StampedLines final : public std::streambuf
{
  public:
    struct Line
    {
        Clock::time_point at;
        std::string text;
    };
    std::vector<Line> lines;

  protected:
    int overflow(int c) override
    {
        if (c == traits_type::eof())
            return 0;
        if (c == '\n') {
            lines.push_back({Clock::now(), std::move(cur)});
            cur.clear();
        } else {
            cur.push_back(static_cast<char>(c));
        }
        return c;
    }

  private:
    std::string cur;
};

bool
isEvent(const std::string &line, const char *event)
{
    return line.find(std::string("\"event\":\"") + event + "\"") !=
           std::string::npos;
}

/** The unsigned integer after "key": in a JSONL record (0 if absent). */
uint64_t
field(const std::string &line, const char *key)
{
    size_t at = line.find(std::string("\"") + key + "\":");
    if (at == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + at + std::strlen(key) + 3,
                         nullptr, 10);
}

/** One fleet_round record: when it was written and its run count. */
struct Round
{
    Clock::time_point at;
    uint64_t runs = 0;
};

/** One runFleet call and the timestamps seen around it. */
struct FleetRun
{
    fleet::FleetResult result;
    Clock::time_point call, start, ret;
    std::vector<Round> rounds;
    std::shared_ptr<TimedTransport> transport;
};

FleetRun
runOnce(const App &app, uint64_t seed, uint64_t budget)
{
    auto &benign = app.workload->benignInputs;
    std::vector<std::vector<int32_t>> seeds(benign.begin(),
                                            benign.begin() + kSeedInputs);
    StampedLines buf;
    std::ostream jsonl(&buf);

    FleetRun run;
    run.transport = std::make_shared<TimedTransport>(app.program);
    fleet::FleetOptions fo;
    fo.base.config = app.configs[0];
    fo.base.pathObjective = true;
    fo.base.batchSize = kBatch;
    fo.base.seed = seed;
    fo.base.budget.maxRuns = budget;
    fo.base.failPolicy = core::FailPolicy::continueOnError();
    fo.base.label = app.workload->name;
    fo.base.jsonl = &jsonl;
    fo.shards = kShards;
    fo.roundRuns = kRoundRuns;
    fo.workerThreads = 1;
    fo.transport = run.transport;

    run.call = Clock::now();
    run.result = fleet::runFleet(app.program, std::move(seeds), fo);
    run.ret = Clock::now();
    run.start = run.call;
    for (const auto &line : buf.lines) {
        if (isEvent(line.text, "fleet_start"))
            run.start = line.at;
        else if (isEvent(line.text, "fleet_round"))
            run.rounds.push_back({line.at, field(line.text, "runs")});
    }
    return run;
}

/** Standard mode with the branch trace the prime-path fold needs. */
core::PeConfig
fleetConfig(const pe::workloads::Workload &w)
{
    core::PeConfig cfg = appConfig(w, core::PeMode::Standard);
    cfg.recordEdgeTrace = true;
    return cfg;
}

} // namespace

void
runFleetPaths(const Options &opts, Report &report, SpanRecorder &spans)
{
    auto t0 = Clock::now();
    double compileS = 0;
    double engineS = 0;
    const App app =
        loadApp(kApp, {fleetConfig(pe::workloads::getWorkload(kApp))},
                spans, 0, compileS, engineS);
    report.info(std::string("config_hash.") + kApp,
                pe::fmtHex(core::configHash(app.configs[0])));
    report.info("threads", 1);
    report.info("processes", kShards + 1);

    if (opts.setupOnly) {
        // A zero budget stops the fleet right after the handshake: the
        // coordinator's prime-path build, the fork and every worker's
        // explorer (and prime-path) construction.
        double setupS = seconds(t0, Clock::now());
        FleetRun run = runOnce(app, derivedSeed(opts.seed, 0), 0);
        const TimedTransport &tt = *run.transport;
        report.check(run.result.lostWorkers == 0,
                     "fleet lost a worker during set-up");
        report.metric("setup_s", setupS + seconds(run.call, tt.firstClose),
                      "s");
        report.metric("minic.compile_ms", compileS * 1e3, "ms");
        report.metric("analysis.engine_ctor_ms_first", engineS * 1e3, "ms");
        report.metric("fleet.coordinator_ctor_ms",
                      seconds(run.call, run.start) * 1e3, "ms");
        report.metric("fleet.handshake_ms",
                      seconds(tt.establishStart, tt.firstClose) * 1e3, "ms");
        return;
    }

    std::vector<double> roundSecs, edges, coverCompleted;
    uint64_t sessions = 0, rounds = 0, stolen = 0, lost = 0, reconnects = 0;
    uint64_t runsAll = 0, ntSpawned = 0, instsAll = 0;

    // One repetition: a fleet session from the master seed drawn for
    // repetition r, so one run samples many exploration trajectories.
    struct RepOut
    {
        uint64_t digest = 0;
        uint64_t runs = 0;      //!< in the steady rounds
        uint64_t insts = 0;     //!< in the steady rounds
        double window = 0;      //!< host time of the steady rounds
    };
    auto runRep = [&](uint64_t r, bool timed) {
        FleetRun run = runOnce(app, derivedSeed(opts.seed, r), kRuns);
        const fleet::FleetResult &res = run.result;
        const TimedTransport &tt = *run.transport;

        uint32_t fleetSpan = spans.record("fleet.run", 0, run.call, run.ret);
        spans.record("fleet.coordinator_ctor", fleetSpan, run.call,
                     run.start);
        spans.record("fleet.establish", fleetSpan, tt.establishStart,
                     tt.establishEnd);
        RepOut out;
        Clock::time_point prev = tt.establishEnd;
        for (size_t k = 0; k < run.rounds.size(); ++k) {
            // Round 1 also waits for the workers' handshake (their
            // prime-path builds), which is set-up; the steady rounds
            // are the gaps between later fleet_round records.
            const Round &round = run.rounds[k];
            spans.record(k == 0 ? "fleet.handshake_round1" : "fleet.round",
                         fleetSpan, prev, round.at);
            if (k > 0) {
                out.runs += round.runs;
                if (timed)
                    roundSecs.push_back(seconds(prev, round.at));
            }
            prev = round.at;
        }
        spans.record("fleet.shutdown", fleetSpan, tt.firstClose,
                     tt.shutdownEnd);

        // Rounds report runs but not instructions, so the steady rounds'
        // simulated instructions are the session's mean per run times
        // their run count.
        if (!run.rounds.empty() && res.runs > 0) {
            out.window = seconds(run.rounds.front().at, prev);
            out.insts = res.instructions * out.runs / res.runs;
        }
        report.attempt(res.runs);
        report.fail(res.failedJobs, "fleet job failures");
        report.check(res.lostWorkers == 0 && res.reconnects == 0,
                     "fleet lost a worker");
        report.check(res.stop == fleet::FleetStop::RunBudget,
                     std::string("fleet stopped early: ") +
                         fleet::fleetStopName(res.stop));
        Fnv digest;
        digest.add(res.frontierDigest);
        digest.add(res.corpusDigest);
        digest.add(res.pathDigest);
        out.digest = digest.h;
        if (timed) {
            edges.push_back(static_cast<double>(res.edgesCombined));
            coverCompleted.push_back(
                static_cast<double>(res.pathCoverCompleted));
            ++sessions;
            rounds += res.rounds;
            stolen += res.stolenRuns;
            lost += res.lostWorkers;
            reconnects += res.reconnects;
            runsAll += res.runs;
            ntSpawned += res.ntSpawned;
            instsAll += res.instructions;
        }
        return out;
    };

    uint64_t firstDigest = 0;
    RepLoop loop(opts, spans);
    while (loop.next()) {
        RepOut out = runRep(loop.rep(), !loop.warmup());
        loop.add(out.runs, out.insts, out.window);
        if (loop.warmup())
            firstDigest = out.digest;
    }

    loop.report(report);
    latencyMetrics(report, "batch_ms", roundSecs);
    report.metric("edges", median(edges), "count");
    report.metric("cover_completed", median(coverCompleted), "count");
    report.metric("peak_rss_mb", peakRssMb(kShards), "MB");
    report.digest("fleet_paths", firstDigest);

    double runs = static_cast<double>(runsAll);
    double n = static_cast<double>(sessions);
    report.metric("fleet.round_runs", runs / static_cast<double>(rounds),
                  "count");
    report.metric("fleet.stolen_runs", static_cast<double>(stolen) / n,
                  "count");
    report.metric("fleet.lost_workers", static_cast<double>(lost) / n,
                  "count");
    report.metric("fleet.reconnects", static_cast<double>(reconnects) / n,
                  "count");
    report.metric("core.nt_spawned_per_run", ntSpawned / runs, "count");
    report.metric("sim.insts_per_run", instsAll / runs, "count");
    if (opts.trace)
        reportSelfTimes(report, spans, loop.tracedReps());

    // Reproducibility: the warm-up repetition, run again, must give the
    // same frontier, corpus and path digests.
    report.check(runRep(0, false).digest == firstDigest,
                 "fleet digests differ between repetitions");

    if (!opts.trace)
        return;

    // Layer probes the fleet's children hide from this process: the
    // prime-path build, and the fold replayed over traces of the seed
    // inputs, which the workers fold on every run.  schedule2 is probed
    // too: its fold is the costliest, but its path-objective sessions
    // vary too much in cost from seed to seed for the timed loop.
    double unused = 0;
    const App schedule2 =
        loadApp("schedule2",
                {fleetConfig(pe::workloads::getWorkload("schedule2"))}, spans,
                0, unused, unused);
    std::vector<pe::coverage::BranchCoverage> coverage;
    for (const App *probed : {&app, &schedule2}) {
        const std::string &name = probed->workload->name;
        auto p0 = Clock::now();
        pe::coverage::PathCoverage tracker(probed->program);
        double primeMs = seconds(p0, Clock::now()) * 1e3;

        core::PathExpanderEngine engine(probed->program, probed->configs[0]);
        constexpr int kReplays = 20;
        double foldS = 0;
        uint64_t events = 0;
        for (size_t k = 0; k < kSeedInputs; ++k) {
            core::RunResult r = engine.run(probed->workload->benignInputs[k]);
            events += r.branchTrace.size();
            bool clean = !r.programCrashed && !r.hitInstructionLimit;
            auto f0 = Clock::now();
            for (int i = 0; i < kReplays; ++i)
                tracker.fold(r.branchTrace, r.branchTraceTruncated, clean);
            foldS += seconds(f0, Clock::now());
            if (probed == &app)
                coverage.push_back(r.coverage);
        }
        double foldUs = foldS * 1e6 / (kReplays * kSeedInputs);
        double perRun = static_cast<double>(events) / kSeedInputs;
        report.metric("analysis.primepaths_ms." + name, primeMs, "ms");
        report.metric("coverage.fold_us." + name, foldUs, "us");
        report.metric("sim.trace_events_per_run." + name, perRun, "count");
        if (probed == &app) {
            report.metric("analysis.primepaths_ms", primeMs, "ms");
            report.metric("coverage.fold_us", foldUs, "us");
            report.metric("sim.trace_events_per_run", perRun, "count");
        }
    }
    runProbes({&app}, {{"std", app.configs[0]}}, coverage, report);
}

} // namespace perfbench
