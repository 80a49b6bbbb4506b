/**
 * @file
 * Reproduces the Section-7.4 result: cumulative branch coverage as
 * test cases accumulate, baseline vs PathExpander ("Even when
 * multiple inputs are used for each application, the cumulative
 * branch coverage improvement by PathExpander is still significant,
 * by 19% on average").
 *
 * Each application runs its 50 generated inputs; coverage sets are
 * unioned across runs.  The whole experiment — every (app, input,
 * mode) triple — is one campaign: it runs once serially and once on
 * the worker pool, verifies the two are bit-identical (digest,
 * cycles, coverage), and reports the parallel speedup.
 */

#include <iostream>

#include "bench_util.hh"
#include "src/core/campaign.hh"
#include "src/coverage/coverage.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"
#include "src/support/table.hh"

using namespace pe;
using namespace pe::bench;

namespace
{

bool
identicalRuns(const core::RunResult &a, const core::RunResult &b)
{
    return a.memoryDigest == b.memoryDigest && a.cycles == b.cycles &&
           a.takenInstructions == b.takenInstructions &&
           a.ntInstructions == b.ntInstructions &&
           a.coverage.takenCovered() == b.coverage.takenCovered() &&
           a.coverage.combinedCovered() == b.coverage.combinedCovered();
}

} // namespace

int
main()
{
    setQuiet(true);
    std::cout << "Section 7.4: cumulative branch coverage over 50 "
                 "inputs, baseline vs PathExpander\n\n";

    const size_t checkpoints[] = {1, 5, 10, 25, 50};

    // Compile every app up front, then lay out one job vector:
    // per app, all baseline runs followed by all PathExpander runs.
    auto names = workloads::workloadNames();
    std::vector<App> apps;
    apps.reserve(names.size());
    std::vector<size_t> firstJob;   //!< app -> index of its first job
    std::vector<core::CampaignJob> jobs;
    for (const auto &name : names) {
        apps.push_back(loadApp(name));
        const App &app = apps.back();
        firstJob.push_back(jobs.size());
        size_t inputs = app.workload->benignInputs.size();
        for (size_t i = 0; i < inputs; ++i)
            jobs.push_back(makeJob(app, core::PeMode::Off, Tool::None,
                                   i));
        for (size_t i = 0; i < inputs; ++i)
            jobs.push_back(makeJob(app, core::PeMode::Standard,
                                   Tool::None, i));
    }

    auto serial = core::runCampaign(jobs, core::campaignThreads(1));
    auto parallel = core::runCampaign(jobs, {});

    bool identical = true;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (!identicalRuns(serial.results[i], parallel.results[i])) {
            identical = false;
            std::cout << "MISMATCH: job " << i
                      << " differs between serial and parallel runs\n";
        }
    }

    double finalBaseSum = 0;
    double finalPeSum = 0;
    int napps = 0;

    for (size_t a = 0; a < apps.size(); ++a) {
        const App &app = apps[a];
        size_t inputs = app.workload->benignInputs.size();
        const core::RunResult *base = &parallel.results[firstJob[a]];
        const core::RunResult *pe = base + inputs;

        coverage::BranchCoverage cumBase(app.program);
        coverage::BranchCoverage cumPe(app.program);

        std::cout << "== " << names[a] << " ==\n";
        Table table({"Inputs", "Baseline (cumulative)",
                     "PathExpander (cumulative)", "Improvement"});

        size_t next = 0;
        for (size_t i = 0; i < inputs; ++i) {
            cumBase.mergeFrom(base[i].coverage);
            cumPe.mergeFrom(pe[i].coverage);

            if (next < std::size(checkpoints) &&
                i + 1 == checkpoints[next]) {
                double b = cumBase.takenFraction();
                double p = cumPe.combinedFraction();
                std::string gain = "+";
                gain += fmtDouble((p - b) * 100, 1);
                gain += "pp";
                table.addRow({std::to_string(i + 1), fmtPercent(b),
                              fmtPercent(p), gain});
                ++next;
            }
        }
        table.print(std::cout);
        std::cout << "\n";

        finalBaseSum += cumBase.takenFraction();
        finalPeSum += cumPe.combinedFraction();
        ++napps;
    }

    double b = finalBaseSum / napps;
    double p = finalPeSum / napps;
    double speedup = parallel.wallSeconds > 0
                         ? serial.wallSeconds / parallel.wallSeconds
                         : 0.0;
    std::cout << "Average cumulative coverage with 50 inputs: "
              << fmtPercent(b) << " baseline vs " << fmtPercent(p)
              << " with PathExpander (improvement "
              << fmtDouble((p - b) * 100, 1) << "pp).\n"
              << "Paper: cumulative improvement of 19% on average.\n\n"
              << "Campaign: " << jobs.size() << " runs; serial "
              << fmtDouble(serial.wallSeconds, 2) << "s vs parallel "
              << fmtDouble(parallel.wallSeconds, 2) << "s on "
              << parallel.threadsUsed << " threads (speedup "
              << fmtDouble(speedup, 2) << "x), results "
              << (identical ? "bit-identical" : "DIVERGENT") << ".\n";

    BenchJson json("bench_fig_cumulative");
    json.setInt("jobs", jobs.size());
    json.setInt("threads", parallel.threadsUsed);
    json.set("wall_seconds_serial", serial.wallSeconds);
    json.set("wall_seconds_parallel", parallel.wallSeconds);
    json.set("parallel_speedup", speedup);
    json.setInt("bit_identical", identical ? 1 : 0);
    json.set("cumulative_coverage_baseline", b);
    json.set("cumulative_coverage_pe", p);
    json.write();

    return identical ? 0 : 1;
}
