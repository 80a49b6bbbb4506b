/**
 * @file
 * Workload campaign_spec: the Section 7.5 overhead experiment as one
 * core::runCampaign over the benign inputs of pe_go, pe_vpr and
 * pe_gzip, each input run in four arms.
 *
 * Runs take milliseconds, so interpretation dominates and the fixed
 * per-run cost is small: the counter-workload for any change that
 * trades per-run set-up for per-access work.
 */

#include <algorithm>
#include <numeric>

#include "src/bench.hh"
#include "src/core/engine.hh"
#include "src/explore/serialize.hh"
#include "src/support/rng.hh"

namespace perfbench
{

namespace
{

const std::vector<std::string> kApps = {"pe_go", "pe_vpr", "pe_gzip"};
constexpr unsigned kThreads = 4;

/** Benign inputs per app, drawn from the workload seed. */
constexpr size_t kInputsPerApp = 12;

/** The four arms, as bench_fig_overhead runs them (no detector). */
enum Arm : uint32_t
{
    Off,        //!< baseline
    OffCmp,     //!< baseline on the CMP timing (3-cycle L1)
    Std,        //!< Standard with selfPrune
    Cmp,        //!< CMP option
    NumArms,
};
const char *const kArmNames[NumArms] = {"off", "off_cmp", "std", "cmp"};

std::vector<core::PeConfig>
armConfigs(const pe::workloads::Workload &w)
{
    std::vector<core::PeConfig> c(NumArms);
    c[Off] = appConfig(w, core::PeMode::Off);
    c[OffCmp] = c[Off];
    c[OffCmp].timing = pe::sim::TimingConfig::cmpConfig();
    c[Std] = appConfig(w, core::PeMode::Standard);
    c[Std].selfPrune = true;
    c[Cmp] = appConfig(w, core::PeMode::Cmp);
    return c;
}

double
overhead(const core::RunResult &r, const core::RunResult &base)
{
    return (static_cast<double>(r.cycles) -
            static_cast<double>(base.cycles)) /
           static_cast<double>(base.cycles);
}

} // namespace

void
runCampaignSpec(const Options &opts, Report &report, SpanRecorder &spans)
{
    auto t0 = Clock::now();
    double compileS = 0;
    double engineS = 0;
    std::vector<App> apps;
    for (const std::string &name : kApps) {
        const auto &w = pe::workloads::getWorkload(name);
        apps.push_back(
            loadApp(name, armConfigs(w), spans, 0, compileS, engineS));
    }

    RunClock clock(spans);
    if (opts.trace)
        clock.keepCoverage(256);

    // Repetition r draws its own kInputsPerApp benign inputs per app and
    // lists them in canonical (app, input, arm) order; the campaign
    // runs them in a seeded shuffle and results are mapped back before
    // any comparison.
    struct Rep
    {
        std::vector<core::CampaignJob> jobs;    //!< canonical order
        std::vector<uint32_t> app;              //!< per canonical job
        std::vector<size_t> perm;               //!< run order
    };
    auto makeRep = [&](uint64_t r) {
        Rep rep;
        pe::Rng rng(derivedSeed(opts.seed, r));
        for (size_t a = 0; a < apps.size(); ++a) {
            const auto &benign = apps[a].workload->benignInputs;
            std::vector<size_t> idx(benign.size());
            std::iota(idx.begin(), idx.end(), 0);
            for (size_t k = 0; k < kInputsPerApp; ++k) {
                std::swap(idx[k], idx[k + rng.nextBelow(idx.size() - k)]);
                for (uint32_t arm = 0; arm < NumArms; ++arm) {
                    core::CampaignJob job;
                    job.program = &apps[a].program;
                    job.input = benign[idx[k]];
                    job.config = apps[a].configs[arm];
                    job.detectorFactory = clock.factory();
                    rep.jobs.push_back(std::move(job));
                    rep.app.push_back(static_cast<uint32_t>(a));
                }
            }
        }
        rep.perm.resize(rep.jobs.size());
        std::iota(rep.perm.begin(), rep.perm.end(), 0);
        for (size_t i = rep.perm.size(); i > 1; --i)
            std::swap(rep.perm[i - 1], rep.perm[rng.nextBelow(i)]);
        return rep;
    };

    Rep current = makeRep(0);
    report.metric("setup_s", seconds(t0, Clock::now()), "s");
    report.metric("minic.compile_ms", compileS * 1e3, "ms");
    report.metric("analysis.engine_ctor_ms_first", engineS * 1e3, "ms");
    for (uint32_t arm = 0; arm < NumArms; ++arm) {
        report.info(std::string("config_hash.") + kArmNames[arm],
                    pe::fmtHex(core::configHash(apps[0].configs[arm])));
    }
    report.info("threads", kThreads);
    report.info("processes", 1);
    if (opts.setupOnly)
        return;

    // Run one repetition's campaign; returns its results in canonical
    // order (null for a failed job) and checks the sandbox invariant.
    struct Outcome
    {
        core::CampaignOutcome out;
        /** Into out.results (an Outcome is only ever moved). */
        std::vector<const core::RunResult *> canon;
        double wall = 0;
        double busy = 0;
        uint64_t digest = 0;
    };
    auto runRep = [&](const Rep &rep) {
        std::vector<core::CampaignJob> shuffled;
        shuffled.reserve(rep.jobs.size());
        for (size_t j : rep.perm)
            shuffled.push_back(rep.jobs[j]);
        core::CampaignOptions copts;
        copts.threads = kThreads;
        copts.failPolicy = core::FailPolicy::continueOnError();
        copts.onResult = [&](size_t j, const core::RunResult &r) {
            clock.finish(r, rep.perm[j] % NumArms);
        };

        Outcome o;
        size_t before = clock.samples.size();
        uint32_t span = spans.open("core.campaign");
        clock.setParent(span);
        auto s = Clock::now();
        o.out = core::runCampaign(shuffled, copts);
        o.wall = seconds(s, Clock::now());
        spans.close(span);
        for (size_t k = before; k < clock.samples.size(); ++k)
            o.busy += seconds(clock.samples[k].start, clock.samples[k].end);

        o.canon.assign(rep.jobs.size(), nullptr);
        for (size_t k = 0; k < o.out.results.size(); ++k)
            o.canon[rep.perm[o.out.resultJobIndex[k]]] = &o.out.results[k];
        report.attempt(rep.jobs.size());
        report.fail(o.out.failures.size(), "campaign job failures");

        Fnv digest;
        for (const core::RunResult *r : o.canon) {
            if (!r) {
                digest.add(0);
                continue;
            }
            digest.add(r->cycles);
            digest.add(r->takenInstructions);
            digest.add(r->ntInstructions);
            digest.add(r->memoryDigest);
            digest.add(r->io.charOutput);
            digest.add(pe::explore::coverageDigest(r->coverage));
        }
        o.digest = digest.h;

        // Sandbox oracle: Standard and Cmp leave the Off outcome of the
        // same input untouched.
        for (size_t j = 0; j < rep.jobs.size(); j += NumArms) {
            const core::RunResult *off = o.canon[j + Off];
            for (uint32_t arm : {Std, Cmp}) {
                const core::RunResult *pe = o.canon[j + arm];
                if (!off || !pe)
                    continue;
                std::string why = sandboxMismatch(*pe, *off);
                report.check(why.empty(),
                             kApps[rep.app[j]] + " " + kArmNames[arm] +
                                 " sandbox: " + why);
            }
        }
        return o;
    };

    std::vector<double> batchSecs, edges, overheadStd, overheadCmp;
    double busyS = 0;
    double wallS = 0;
    uint64_t firstDigest = 0;
    size_t timedFrom = 0;   // first run sample after the warm-up
    RepLoop loop(opts, spans);
    while (loop.next()) {
        if (loop.rep() > 0)
            current = makeRep(loop.rep());
        if (loop.rep() == 1)
            timedFrom = clock.samples.size();
        Outcome o = runRep(current);
        uint64_t insts = 0;
        for (const core::RunResult &r : o.out.results)
            insts += r.takenInstructions + r.ntInstructions;
        loop.add(o.out.results.size(), insts, o.wall);
        if (loop.warmup()) {
            firstDigest = o.digest;
            continue;
        }
        batchSecs.push_back(o.wall);
        busyS += o.busy;
        wallS += o.wall;

        // Merged coverage and mean simulated overheads per app,
        // computed as bench_fig_overhead does, averaged over apps.
        double repEdges = 0, oStd = 0, oCmp = 0;
        for (size_t a = 0; a < apps.size(); ++a) {
            pe::coverage::BranchCoverage merged(apps[a].program);
            double sStd = 0, sCmp = 0;
            size_t n = 0;
            for (size_t j = 0; j < current.jobs.size(); j += NumArms) {
                const core::RunResult *const *r = &o.canon[j];
                if (current.app[j] != a || !r[Off] || !r[OffCmp] || !r[Std] ||
                    !r[Cmp])
                    continue;
                for (uint32_t arm = 0; arm < NumArms; ++arm)
                    merged.mergeFrom(r[arm]->coverage);
                sStd += overhead(*r[Std], *r[Off]);
                sCmp += overhead(*r[Cmp], *r[OffCmp]);
                ++n;
            }
            repEdges += static_cast<double>(merged.combinedCovered());
            oStd += n ? sStd / n / apps.size() : 0;
            oCmp += n ? sCmp / n / apps.size() : 0;
        }
        edges.push_back(repEdges);
        overheadStd.push_back(oStd);
        overheadCmp.push_back(oCmp);
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
    report.metric("sim_overhead_std", median(overheadStd), "fraction");
    report.metric("sim_overhead_cmp", median(overheadCmp), "fraction");
    report.metric("peak_rss_mb", peakRssMb(0), "MB");
    report.digest("campaign_spec", firstDigest);

    const ArmCounts &off = clock.arms[Off];
    const ArmCounts &std_ = clock.arms[Std];
    const ArmCounts &cmp = clock.arms[Cmp];
    auto perRun = [](const ArmCounts &c) {
        return c.hostSeconds * 1e6 / static_cast<double>(c.runs);
    };
    double uOff = perRun(off), uStd = perRun(std_), uCmp = perRun(cmp);
    report.metric("core.run_us.off", uOff, "us");
    report.metric("core.run_us.std", uStd, "us");
    report.metric("core.run_us.cmp", uCmp, "us");
    report.metric("core.nt_share", (uStd - uOff) / uStd, "fraction");
    report.metric("core.cmp_share", (uCmp - uStd) / uCmp, "fraction");
    report.metric("core.campaign_idle_frac",
                  1.0 - busyS / (kThreads * wallS), "fraction");
    report.metric("sim.off_mips",
                  static_cast<double>(off.taken) / off.hostSeconds / 1e6,
                  "MIPS");
    report.metric("sim.pruned_frac",
                  static_cast<double>(std_.pruned) /
                      static_cast<double>(std_.taken),
                  "fraction");

    double runs = static_cast<double>(total.runs);
    double peRuns = static_cast<double>(std_.runs + cmp.runs);
    report.metric("sim.taken_insts_per_run", total.taken / runs, "count");
    report.metric("sim.nt_insts_per_run", total.nt / runs, "count");
    report.metric("sim.insts_per_run", (total.taken + total.nt) / runs,
                  "count");
    report.metric("core.nt_spawned_per_run", total.ntSpawned / runs,
                  "count");
    report.metric("core.nt_len_mean",
                  static_cast<double>(total.ntLength) /
                      static_cast<double>(std::max<uint64_t>(
                          total.ntRecords, 1)),
                  "count");
    for (size_t c = 0; c < total.ntStops.size(); ++c) {
        report.metric(
            std::string("core.nt_stop.") +
                core::ntStopCauseName(static_cast<core::NtStopCause>(c)),
            static_cast<double>(std_.ntStops[c] + cmp.ntStops[c]) / peRuns,
            "count");
    }
    report.metric("core.cmp_skipped_busy_per_run",
                  static_cast<double>(cmp.ntSkippedBusy) /
                      static_cast<double>(cmp.runs),
                  "count");
    report.metric("mem.l2_contention_cycles_per_run",
                  static_cast<double>(cmp.l2Contention) /
                      static_cast<double>(cmp.runs),
                  "cycles");
    if (opts.trace)
        reportSelfTimes(report, spans, loop.tracedReps());

    // Reproducibility: the warm-up repetition, run again, must give the
    // same results.
    report.check(runRep(makeRep(0)).digest == firstDigest,
                 "campaign digests differ between repetitions");

    if (!opts.trace)
        return;
    std::vector<const App *> appPtrs;
    for (const App &app : apps)
        appPtrs.push_back(&app);
    const auto &cfgs = apps[0].configs;
    runProbes(appPtrs,
              {{"std", cfgs[Std]}, {"off", cfgs[Off]}, {"cmp", cfgs[Cmp]}},
              clock.coverageKept, report);
}

} // namespace perfbench
