/**
 * @file
 * Differential proof of the block-stepped execution loop.
 *
 * The engine's pre-decoded fast path (`sim::runBlock`, selected by
 * default) and the legacy one-instruction-at-a-time loop (forced via
 * `PeConfig::legacyStepLoop`) are bit-identical by contract: same
 * RunResult in every field, including the final memory digest, the
 * per-core cycle clocks, the coverage bitmaps and the NT-Path record
 * stream.  This test enforces the contract in breadth — every
 * registered workload across the mode grid, with its own detector and
 * with none (then loads and stores run in-block through a memory
 * port), plus a random-program sweep whose generator deliberately
 * includes the crash-capable opcodes (div/rem by a possibly-zero
 * register) so the surface-before-crash rule of runBlock is
 * exercised.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/engine.hh"
#include "src/detect/detector.hh"
#include "src/isa/assembler.hh"
#include "src/minic/compiler.hh"
#include "src/workloads/workload.hh"
#include "tier_identity.hh"

namespace
{

using namespace pe;
using test::expectIdentical;
using test::generateProgram;

/**
 * Run @p program on @p input under @p cfg twice — block-stepped and
 * legacy — with a fresh detector instance each time (none unless
 * @p tools names one), and require the results bit-identical.
 */
void
compareLoops(const isa::Program &program, core::PeConfig cfg,
             const std::string &tools,
             const std::vector<int32_t> &input)
{
    auto runWith = [&](bool legacy) {
        core::PeConfig c = cfg;
        c.legacyStepLoop = legacy;
        detect::WatchChecker watch;
        detect::AssertChecker assert_;
        detect::Detector *det = nullptr;
        if (tools == "memory")
            det = &watch;
        else if (tools == "assert")
            det = &assert_;
        core::PathExpanderEngine engine(program, c, det);
        return engine.run(input);
    };
    core::RunResult blk = runWith(false);
    core::RunResult leg = runWith(true);
    expectIdentical(blk, leg);
}

// ---------------------------------------------------------------------
// Every workload, every mode.
// ---------------------------------------------------------------------

using WorkloadParam = std::tuple<std::string, core::PeMode>;

class BlockStepWorkloads : public ::testing::TestWithParam<WorkloadParam>
{};

TEST_P(BlockStepWorkloads, BitIdenticalToLegacyLoop)
{
    const auto &[name, mode] = GetParam();
    const auto &w = workloads::getWorkload(name);
    auto program = minic::compile(w.source, w.name);

    auto cfg = core::PeConfig::forMode(mode);
    cfg.maxNtPathLength = w.maxNtPathLength;

    {
        SCOPED_TRACE("benign input");
        compareLoops(program, cfg, w.tools, w.benignInputs[0]);
    }
    if (!w.triggerInputs.empty()) {
        SCOPED_TRACE("trigger input " + w.triggerInputs.begin()->first);
        compareLoops(program, cfg, w.tools,
                     w.triggerInputs.begin()->second);
    }

    // No detector, as explorers, campaigns and the benchmark run:
    // loads and stores then run in-block through a memory port.
    const size_t benign = std::min<size_t>(w.benignInputs.size(), 5);
    for (size_t i = 0; i < benign; ++i) {
        SCOPED_TRACE("no detector, benign input " + std::to_string(i));
        compareLoops(program, cfg, "", w.benignInputs[i]);
    }
    for (const auto &[id, input] : w.triggerInputs) {
        SCOPED_TRACE("no detector, trigger input " + id);
        compareLoops(program, cfg, "", input);
    }
}

std::string
workloadParamName(const ::testing::TestParamInfo<WorkloadParam> &info)
{
    const auto &[name, mode] = info.param;
    std::string s = name + "_" + core::peModeName(mode);
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BlockStepWorkloads,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::workloadNames()),
        ::testing::Values(core::PeMode::Off, core::PeMode::Standard,
                          core::PeMode::Cmp)),
    workloadParamName);

// ---------------------------------------------------------------------
// Configuration corners on a couple of representative workloads: the
// software cost model (per-instruction dilation interacts with the
// bulk cycle accounting), sandboxed I/O, disabled variable fixing
// (NT-entry predicate handling in the block prologue), NT-side branch
// redirection and the random spawn factor.
// ---------------------------------------------------------------------

TEST(BlockStepCorners, SoftwareCostModel)
{
    for (const char *name : {"print_tokens2", "pe_bc"}) {
        SCOPED_TRACE(name);
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, w.name);
        for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = w.maxNtPathLength;
            cfg.costModel = core::CostModelKind::Software;
            compareLoops(program, cfg, w.tools, w.benignInputs[0]);
            // Without a detector the NT-store log cost and the
            // dilation are charged in-block, through the memory port.
            compareLoops(program, cfg, "", w.benignInputs[0]);
        }
    }
}

TEST(BlockStepCorners, SandboxIoAndNoFixing)
{
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, w.name);
    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        for (bool sandbox : {false, true}) {
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = w.maxNtPathLength;
            cfg.sandboxIo = sandbox;
            cfg.variableFixing = false;
            compareLoops(program, cfg, w.tools, w.benignInputs[0]);
        }
    }
}

TEST(BlockStepCorners, NtRedirectAndRandomSpawn)
{
    const auto &w = workloads::getWorkload("print_tokens");
    auto program = minic::compile(w.source, w.name);
    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = w.maxNtPathLength;
        cfg.followNonTakenInNt = true;
        cfg.randomSpawnFraction = 0.25;
        compareLoops(program, cfg, w.tools, w.benignInputs[0]);
    }
}

TEST(BlockStepCorners, TightCounterResetInterval)
{
    // A reset interval small enough to fire inside straight-line
    // stretches: the block must stop short of the boundary so the
    // reset keeps its legacy position in the global step order.
    const auto &w = workloads::getWorkload("schedule2");
    auto program = minic::compile(w.source, w.name);
    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        for (uint64_t interval : {3ull, 17ull, 256ull}) {
            SCOPED_TRACE(interval);
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = w.maxNtPathLength;
            cfg.counterResetInterval = interval;
            compareLoops(program, cfg, w.tools, w.benignInputs[0]);
        }
    }
}

TEST(BlockStepCorners, InstructionLimit)
{
    // The limit must cut the run at the exact same instruction.
    const auto &w = workloads::getWorkload("pe_bc");
    auto program = minic::compile(w.source, w.name);
    for (auto mode :
         {core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp}) {
        for (uint64_t limit : {1000ull, 12345ull}) {
            SCOPED_TRACE(limit);
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = w.maxNtPathLength;
            cfg.maxTakenInstructions = limit;
            compareLoops(program, cfg, w.tools, w.benignInputs[0]);
        }
    }
}

// ---------------------------------------------------------------------
// Random programs from the shared generator (tier_identity.hh).  It
// mixes plain ALU runs (the block fast path), div/rem by a
// possibly-zero register (crash-capable: must surface so the legacy
// step reproduces the fault at the same PC), masked loads/stores and
// forward branches, inside a counted loop.
// ---------------------------------------------------------------------

TEST(BlockStepRandom, SeedSweepIsBitIdentical)
{
    int crashes = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto program =
            isa::assemble(generateProgram(seed, 2, 5),
                          "blockstep_" + std::to_string(seed));
        for (auto mode : {core::PeMode::Off, core::PeMode::Standard,
                          core::PeMode::Cmp}) {
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = 100;
            cfg.maxTakenInstructions = 50'000;
            cfg.ntPathCounterThreshold = 8;

            auto runWith = [&](bool legacy) {
                core::PeConfig c = cfg;
                c.legacyStepLoop = legacy;
                core::PathExpanderEngine engine(program, c, nullptr);
                return engine.run({});
            };
            core::RunResult blk = runWith(false);
            core::RunResult leg = runWith(true);
            expectIdentical(blk, leg);
            if (blk.programCrashed && mode == core::PeMode::Off)
                ++crashes;
        }
    }
    // The sweep is only meaningful if some seeds actually take the
    // crash-surfacing path (div/rem by zero).
    EXPECT_GT(crashes, 0);
}

} // namespace
