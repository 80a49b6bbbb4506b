/**
 * @file
 * Workload explore_siemens: coverage-guided exploration of the four
 * Siemens apps with the `explore` CLI defaults.
 *
 * Each run is 10-30k simulated instructions, so the fixed per-run
 * cost (memory image, caches, engine construction) and the explorer's
 * batch barrier dominate, not interpretation.
 */

#include <algorithm>
#include <memory>

#include "src/bench.hh"
#include "src/core/engine.hh"
#include "src/explore/explorer.hh"
#include "src/explore/serialize.hh"

namespace perfbench
{

namespace
{

namespace explore = pe::explore;

const std::vector<std::string> kApps = {"schedule", "schedule2",
                                        "print_tokens", "print_tokens2"};
constexpr unsigned kThreads = 4;
constexpr size_t kSeedInputs = 5;
constexpr size_t kBatch = 8;

/** Monitored runs per app in one repetition (seed batch included). */
constexpr uint64_t kRunsPerApp = 200;

/** Corpus inputs per app re-run under Off for the sandbox oracle. */
constexpr size_t kSandboxChecks = 4;

uint64_t
corpusDigest(const explore::Corpus &corpus)
{
    pe::wire::Encoder enc;
    for (const explore::CorpusEntry &entry : corpus.entries())
        explore::encodeEntry(enc, entry);
    Fnv f;
    f.add(enc.buffer());
    return f.h;
}

} // namespace

void
runExploreSiemens(const Options &opts, Report &report,
                  SpanRecorder &spans)
{
    auto t0 = Clock::now();
    double compileS = 0;
    double engineS = 0;
    std::vector<App> apps;
    for (const std::string &name : kApps) {
        const auto &w = pe::workloads::getWorkload(name);
        apps.push_back(loadApp(name, {appConfig(w, core::PeMode::Standard)},
                               spans, 0, compileS, engineS));
    }

    RunClock clock(spans);
    if (opts.trace)
        clock.keepCoverage(256);

    // Repetition r explores from its own master seeds, so one run
    // samples many exploration trajectories.
    using Explorers = std::vector<std::unique_ptr<explore::Explorer>>;
    auto makeExplorers = [&](uint64_t rep) {
        Explorers out;
        for (size_t i = 0; i < apps.size(); ++i) {
            const App &app = apps[i];
            explore::ExploreOptions o;
            o.config = app.configs[0];
            o.policy = explore::SchedulePolicy::RareEdgeWeighted;
            o.batchSize = kBatch;
            o.threads = kThreads;
            o.seed = derivedSeed(opts.seed, rep * kApps.size() + i);
            o.budget.maxRuns = kRunsPerApp;
            o.failPolicy = core::FailPolicy::continueOnError();
            o.detectorFactory = clock.factory();
            o.onRun = [&clock, i](const core::RunResult &r) {
                clock.finish(r, static_cast<uint32_t>(i));
            };
            o.label = kApps[i];
            auto &benign = app.workload->benignInputs;
            std::vector<std::vector<int32_t>> seeds(
                benign.begin(), benign.begin() + kSeedInputs);
            out.push_back(std::make_unique<explore::Explorer>(
                app.program, std::move(seeds), std::move(o)));
        }
        return out;
    };

    Explorers explorers = makeExplorers(0);
    report.metric("setup_s", seconds(t0, Clock::now()), "s");
    report.metric("minic.compile_ms", compileS * 1e3, "ms");
    report.metric("analysis.engine_ctor_ms_first", engineS * 1e3, "ms");
    for (size_t i = 0; i < apps.size(); ++i) {
        report.info("config_hash." + kApps[i],
                    pe::fmtHex(core::configHash(apps[i].configs[0])));
    }
    report.info("threads", kThreads);
    report.info("processes", 1);
    if (opts.setupOnly)
        return;

    std::vector<double> batchSecs;
    double serialS = 0;     // step time outside its runs' window
    double windowS = 0;     // first-run-start to last-run-end
    double busyS = 0;       // summed run latencies inside the windows
    double stepS = 0;
    uint64_t steps = 0;

    // Step the four explorers in turn until every budget is spent;
    // @p timed adds each step to the batch statistics.
    auto exploreAll = [&](Explorers &ex, bool timed) {
        uint32_t repSpan = spans.open("explore.rep");
        std::vector<bool> done(ex.size(), false);
        for (bool any = true; any;) {
            any = false;
            for (size_t i = 0; i < ex.size(); ++i) {
                if (done[i])
                    continue;
                size_t before = clock.samples.size();
                uint32_t stepSpan = spans.open("explore.step", repSpan);
                clock.setParent(stepSpan);
                auto s = Clock::now();
                uint64_t n = ex[i]->step(kBatch);
                auto e = Clock::now();
                spans.close(stepSpan);
                done[i] = n == 0;
                any = any || n > 0;
                if (n == 0 || !timed)
                    continue;
                batchSecs.push_back(seconds(s, e));
                Clock::time_point lo = e, hi = s;
                for (size_t k = before; k < clock.samples.size(); ++k) {
                    lo = std::min(lo, clock.samples[k].start);
                    hi = std::max(hi, clock.samples[k].end);
                    busyS += seconds(clock.samples[k].start,
                                     clock.samples[k].end);
                }
                if (hi > lo) {
                    windowS += seconds(lo, hi);
                    serialS += seconds(s, e) - seconds(lo, hi);
                }
                stepS += seconds(s, e);
                ++steps;
            }
        }
        spans.close(repSpan);
    };

    // Frontier and corpus digests of every app, in app order.
    auto digestOf = [](const Explorers &ex) {
        Fnv digest;
        for (const auto &e : ex) {
            digest.add(explore::coverageDigest(e->corpus().frontier()));
            digest.add(corpusDigest(e->corpus()));
        }
        return digest.h;
    };

    std::vector<double> edges, admitRatio, corpusSize;
    uint64_t firstDigest = 0;
    size_t timedFrom = 0;   // first run sample after the warm-up
    RepLoop loop(opts, spans);
    while (loop.next()) {
        if (loop.rep() > 0) {
            uint32_t ctor = spans.open("explore.ctor");
            explorers = makeExplorers(loop.rep());
            spans.close(ctor);
        }
        if (loop.rep() == 1)
            timedFrom = clock.samples.size();
        auto repStart = Clock::now();
        exploreAll(explorers, !loop.warmup());
        double wall = seconds(repStart, Clock::now());

        uint64_t runs = 0, insts = 0, failed = 0, admitted = 0;
        uint64_t repEdges = 0, corpus = 0;
        for (const auto &e : explorers) {
            const explore::ExploreResult &res = e->progress();
            runs += res.runs;
            insts += res.instructions;
            failed += res.failedJobs;
            for (const auto &b : res.history)
                admitted += b.admitted;
            corpus += e->corpus().size();
            repEdges += e->corpus().frontier().combinedCovered();
        }
        loop.add(runs, insts, wall);
        report.attempt(runs);
        report.fail(failed, "explore job failures");
        if (loop.warmup()) {
            firstDigest = digestOf(explorers);
            continue;
        }
        edges.push_back(static_cast<double>(repEdges));
        admitRatio.push_back(static_cast<double>(admitted) /
                             static_cast<double>(runs));
        corpusSize.push_back(static_cast<double>(corpus) /
                             static_cast<double>(explorers.size()));
    }

    ArmCounts total = totalCounts(clock.arms);
    report.fail(total.aborted, "aborted runs");
    loop.report(report);
    std::vector<double> runSecs;
    for (size_t i = timedFrom; i < clock.samples.size(); ++i)
        runSecs.push_back(
            seconds(clock.samples[i].start, clock.samples[i].end));
    latencyMetrics(report, "run_ms", runSecs);
    latencyMetrics(report, "batch_ms", batchSecs);
    report.metric("edges", median(edges), "count");
    report.metric("peak_rss_mb", peakRssMb(0), "MB");
    report.digest("explore_siemens", firstDigest);

    double runs = static_cast<double>(total.runs);
    report.metric("explore.serial_ms_per_batch",
                  serialS * 1e3 / static_cast<double>(steps), "ms");
    report.metric("explore.barrier_idle_frac",
                  1.0 - busyS / (kThreads * windowS), "fraction");
    report.metric("core.campaign_idle_frac",
                  1.0 - busyS / (kThreads * stepS), "fraction");
    report.metric("explore.admit_ratio", median(admitRatio), "fraction");
    report.metric("explore.corpus_size", median(corpusSize), "count");
    report.metric("sim.taken_insts_per_run", total.taken / runs, "count");
    report.metric("sim.nt_insts_per_run", total.nt / runs, "count");
    report.metric("sim.insts_per_run", (total.taken + total.nt) / runs,
                  "count");
    report.metric("core.nt_spawned_per_run", total.ntSpawned / runs,
                  "count");
    report.metric("core.run_us.std", total.hostSeconds * 1e6 / runs, "us");
    if (opts.trace)
        reportSelfTimes(report, spans, loop.tracedReps());

    // Reproducibility: the warm-up repetition, run again, must give the
    // same frontier and corpus digests.
    explorers = makeExplorers(0);
    exploreAll(explorers, false);
    report.check(digestOf(explorers) == firstDigest,
                 "explore digests differ between repetitions");

    // Sandbox oracle on that corpus: a Standard run must leave the Off
    // run's architected outcome untouched.
    for (size_t i = 0; i < apps.size(); ++i) {
        const auto &entries = explorers[i]->corpus().entries();
        core::PeConfig off = appConfig(*apps[i].workload, core::PeMode::Off);
        core::PathExpanderEngine offEngine(apps[i].program, off);
        core::PathExpanderEngine peEngine(apps[i].program,
                                          apps[i].configs[0]);
        size_t n = std::min(entries.size(), kSandboxChecks);
        for (size_t k = 0; k < n; ++k) {
            const auto &input = entries[entries.size() - 1 - k].input;
            std::string why = sandboxMismatch(peEngine.run(input),
                                              offEngine.run(input));
            report.check(why.empty(), kApps[i] + " sandbox: " + why);
        }
    }

    if (!opts.trace)
        return;
    std::vector<const App *> appPtrs;
    for (const App &app : apps)
        appPtrs.push_back(&app);
    runProbes(appPtrs, {{"std", apps[0].configs[0]}}, clock.coverageKept,
              report);
}

} // namespace perfbench
