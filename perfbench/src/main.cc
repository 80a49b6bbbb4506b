/**
 * @file
 * perfbench: measure one workload for a fixed time and print a JSON
 * report line (metrics by name and unit, digests, operation counts,
 * provenance).  perfbench/run.py builds this binary, runs it and turns
 * the report into the benchmark's result record.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--setup-only] [--out-dir DIR]
 */

#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "src/bench.hh"
#include "src/support/status.hh"

using namespace perfbench;

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload explore_siemens|"
                 "campaign_spec|fleet_paths --seed N --seconds S "
                 "--trace 0|1 [--setup-only] [--out-dir DIR]\n";
    return 2;
}

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        try {
            if (arg == "--workload")
                opts.workload = value();
            else if (arg == "--seed")
                opts.seed = std::stoull(value());
            else if (arg == "--seconds")
                opts.seconds = std::stod(value());
            else if (arg == "--trace")
                opts.trace = std::stoi(value()) != 0;
            else if (arg == "--setup-only")
                opts.setupOnly = true;
            else if (arg == "--out-dir")
                opts.outDir = value();
            else
                return usage("unknown argument " + arg);
        } catch (const std::exception &) {
            return usage("bad value for " + arg);
        }
    }

    // A number from an unoptimised or assert-enabled build must never
    // pass as a baseline.
    if (!kOptimized)
        return usage("refusing to measure: built without optimisation "
                     "and NDEBUG (use CMAKE_BUILD_TYPE=Release)");

    void (*run)(const Options &, Report &, SpanRecorder &) = nullptr;
    if (opts.workload == "explore_siemens")
        run = runExploreSiemens;
    else if (opts.workload == "campaign_spec")
        run = runCampaignSpec;
    else if (opts.workload == "fleet_paths")
        run = runFleetPaths;
    else
        return usage("unknown workload '" + opts.workload + "'");
    if (!(opts.seconds > 0))
        return usage("--seconds must be positive");

    pe::setQuiet(true);
    Report report;
    SpanRecorder spans;
    try {
        run(opts, report, spans);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload << " failed: "
                  << e.what() << "\n";
        return 1;
    }

    report.info("workload", opts.workload);
    report.info("seed", std::to_string(opts.seed));
    report.info("nproc", std::thread::hardware_concurrency());
    report.info("optimized_ndebug", kOptimized ? "yes" : "no");
    report.info("compiler", __VERSION__);
    if (opts.trace && !opts.setupOnly) {
        std::string path = opts.outDir + "/spans-" + opts.workload +
                           "-seed" + std::to_string(opts.seed) + ".jsonl";
        spans.writeJsonl(path);
        report.info("spans_file", path);
    }
    report.print(std::cout);
    return 0;
}
