/**
 * @file
 * Fixed-cost probes: the per-run costs that do not depend on what the
 * program computes, timed one constructor or call at a time.
 */

#include "src/bench.hh"
#include "src/core/engine.hh"
#include "src/isa/assembler.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/main_memory.hh"

namespace perfbench
{

namespace
{

/** Median host time of @p reps calls of @p fn, in µs. */
template <class Fn>
double
medianUs(int reps, Fn &&fn)
{
    std::vector<double> us;
    us.reserve(reps);
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        fn();
        us.push_back(seconds(t0, Clock::now()) * 1e6);
    }
    return median(us);
}

} // namespace

void
runProbes(const std::vector<const App *> &apps,
          const std::vector<std::pair<std::string, core::PeConfig>>
              &fixedConfigs,
          const std::vector<pe::coverage::BranchCoverage> &coverage,
          Report &report)
{
    constexpr int kReps = 200;

    // PathExpanderEngine::run on a one-instruction program: the per-run
    // cost left when the program does nothing (memory image, caches,
    // BTB, load, digest).
    pe::isa::Program exitOnly = pe::isa::assemble("    sys exit\n", "exit");
    for (size_t i = 0; i < fixedConfigs.size(); ++i) {
        const auto &[name, cfg] = fixedConfigs[i];
        core::PathExpanderEngine engine(exitOnly, cfg);
        std::vector<int32_t> input;
        double us = medianUs(kReps, [&] { (void)engine.run(input); });
        report.metric("core.run_fixed_us." + name, us, "us");
        if (i == 0)
            report.metric("core.run_fixed_us", us, "us");
    }

    const core::PeConfig &cfg = fixedConfigs.front().second;
    report.metric("mem.image_us", medianUs(kReps, [&] {
                      pe::mem::MainMemory m(cfg.layout.memWords);
                      (void)m.size();
                  }),
                  "us");
    for (int cores : {1, 4}) {
        report.metric("mem.hierarchy_us." + std::to_string(cores) + "core",
                      medianUs(kReps, [&] {
                          pe::mem::MemHierarchy h(cores, cfg.timing.mem);
                          (void)h.l1LineCapacity();
                      }),
                      "us");
    }

    // Warm engine construction, as a campaign pays it once per job.
    std::vector<double> ctor;
    for (const App *app : apps) {
        for (const core::PeConfig &c : app->configs) {
            ctor.push_back(medianUs(kReps / 4, [&] {
                core::PathExpanderEngine engine(app->program, c);
            }));
        }
    }
    report.metric("core.engine_ctor_us", mean(ctor), "us");

    // BranchCoverage::mergeFrom replayed over collected run coverage
    // (mergeFrom grows to the larger edge universe, so runs of several
    // programs can share one accumulator).
    if (!coverage.empty()) {
        constexpr int kPasses = 20;
        size_t merges = 0;
        auto t0 = Clock::now();
        for (int p = 0; p < kPasses; ++p) {
            pe::coverage::BranchCoverage acc = coverage.front();
            for (const auto &cov : coverage)
                acc.mergeFrom(cov);
            merges += coverage.size();
        }
        report.metric("coverage.merge_us",
                      seconds(t0, Clock::now()) * 1e6 /
                          static_cast<double>(merges),
                      "us");
    }
}

} // namespace perfbench
