/**
 * @file
 * Differential proof of self-pruning: promoted branches retired by the
 * block tier with no coverage write, counter bump or spawn check.
 *
 * `cfg.selfPrune` selects an execution *strategy*, not a behavior:
 * runs with the flag on and off must produce bit-identical RunResults
 * in every field except the `prunedInstructions` diagnostic (which
 * exists precisely so these tests can assert promotion actually
 * engaged).  This file extends the block-step identity methodology
 * (tests/block_step_test.cpp) to promotion: the full workload × mode
 * grid, engineered saturation kernels, the reset corners (a counter
 * reset landing inside a would-be block, which must stop there and
 * demote every promoted branch), the activation gates that must keep
 * the flag inert, random-program and configuration sweeps against the
 * per-step loop, and unit tests of the building blocks (the BTB's
 * saturation probe and static saturation eligibility).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/cfg.hh"
#include "src/analysis/regions.hh"
#include "src/branch/btb.hh"
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
 * Run @p program on @p input under @p cfg twice — selfPrune on and
 * off — with a fresh detector instance each time, require identity,
 * and return how many promoted branches the pruned run retired in the
 * block tier (0 when the flag never engaged).
 */
uint64_t
comparePrune(const isa::Program &program, core::PeConfig cfg,
             const std::string &tools, const std::vector<int32_t> &input)
{
    auto runWith = [&](bool prune) {
        core::PeConfig c = cfg;
        c.selfPrune = prune;
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
    core::RunResult pruned = runWith(true);
    core::RunResult plain = runWith(false);
    expectIdentical(pruned, plain);
    EXPECT_EQ(plain.prunedInstructions, 0u);
    return pruned.prunedInstructions;
}

/**
 * A kernel engineered to saturate (same shape as the bench arm): an
 * outer counted loop around a 4-iteration inner loop whose branches
 * all alternate direction, so both coverage bits of each inner branch
 * record within the first outer iteration and — with the spawn
 * threshold at the counter cap — the exercise counters reach
 * saturation after a few more.
 */
isa::Program
saturatedKernel(int iterations)
{
    std::ostringstream out;
    out << "li r8, 0\n"
        << "li r20, " << iterations << "\n"
        << "li r21, 4\nli r9, 1\nli r10, 3\n"
        << "outer:\n"
        << "li r12, 0\n"
        << "inner:\n"
        << "andi r13, r12, 1\n"
        << "beq r13, r0, even\n"
        << "add r9, r9, r10\n"
        << "jmp join1\n"
        << "even:\n"
        << "sub r9, r9, r10\n"
        << "join1:\n"
        << "andi r13, r12, 2\n"
        << "bne r13, r0, skip2\n"
        << "xor r10, r10, r9\n"
        << "skip2:\n"
        << "add r9, r9, r10\n"
        << "xori r10, r10, 21\n"
        << "slt r14, r9, r10\n"
        << "addi r12, r12, 1\n"
        << "blt r12, r21, inner\n"
        << "addi r8, r8, 1\n"
        << "blt r8, r20, outer\n"
        << "sys print_int r9\n"
        << "sys exit\n";
    return isa::assemble(out.str(), "saturated_kernel");
}

/** Standard-mode config under which the kernel saturates. */
core::PeConfig
saturatingConfig()
{
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = 100;
    cfg.ntPathCounterThreshold = 15;    // == 4-bit counter cap
    return cfg;
}

// ---------------------------------------------------------------------
// Every workload, every mode: selfPrune on must be invisible in the
// results.  Engagement is not asserted here — at the paper-default
// threshold (5, well below the counter cap) spawn-capable branches
// never saturate, which is itself the correct behavior — only
// identity, plus the requirement that non-Standard modes never prune.
// ---------------------------------------------------------------------

using WorkloadParam = std::tuple<std::string, core::PeMode>;

class SelfPruneWorkloads : public ::testing::TestWithParam<WorkloadParam>
{};

TEST_P(SelfPruneWorkloads, BitIdenticalToInstrumentedRun)
{
    const auto &[name, mode] = GetParam();
    const auto &w = workloads::getWorkload(name);
    auto program = minic::compile(w.source, w.name);

    auto cfg = core::PeConfig::forMode(mode);
    cfg.maxNtPathLength = w.maxNtPathLength;

    {
        SCOPED_TRACE("benign input");
        uint64_t pruned =
            comparePrune(program, cfg, w.tools, w.benignInputs[0]);
        if (mode != core::PeMode::Standard) {
            EXPECT_EQ(pruned, 0u);
        }
    }
    if (!w.triggerInputs.empty()) {
        SCOPED_TRACE("trigger input " + w.triggerInputs.begin()->first);
        uint64_t pruned = comparePrune(program, cfg, w.tools,
                                       w.triggerInputs.begin()->second);
        if (mode != core::PeMode::Standard) {
            EXPECT_EQ(pruned, 0u);
        }
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
    AllWorkloads, SelfPruneWorkloads,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::workloadNames()),
        ::testing::Values(core::PeMode::Off, core::PeMode::Standard,
                          core::PeMode::Cmp)),
    workloadParamName);

// ---------------------------------------------------------------------
// Engagement and the activation gates.
// ---------------------------------------------------------------------

TEST(SelfPrune, EngagesOnSaturatedKernel)
{
    auto program = saturatedKernel(300);
    uint64_t pruned = comparePrune(program, saturatingConfig(), "", {});
    // Most of the run is the saturated inner loop; after warmup its
    // branches must be promoted.
    EXPECT_GT(pruned, 0u);
}

TEST(SelfPrune, GatesKeepTheFlagInert)
{
    auto program = saturatedKernel(120);

    {
        SCOPED_TRACE("random spawn factor consumes RNG at branches");
        auto cfg = saturatingConfig();
        cfg.randomSpawnFraction = 0.25;
        EXPECT_EQ(comparePrune(program, cfg, "", {}), 0u);
    }
    {
        SCOPED_TRACE("NT redirect ablation reads frozen counters");
        auto cfg = saturatingConfig();
        cfg.followNonTakenInNt = true;
        EXPECT_EQ(comparePrune(program, cfg, "", {}), 0u);
    }
    {
        SCOPED_TRACE("threshold above the counter cap");
        auto cfg = saturatingConfig();
        cfg.ntPathCounterThreshold = 16;    // > 4-bit cap: at-cap
                                            // edges could still spawn
        EXPECT_EQ(comparePrune(program, cfg, "", {}), 0u);
    }
    {
        SCOPED_TRACE("legacy per-step loop");
        auto cfg = saturatingConfig();
        cfg.legacyStepLoop = true;
        EXPECT_EQ(comparePrune(program, cfg, "", {}), 0u);
    }
    {
        SCOPED_TRACE("PE off");
        auto cfg = saturatingConfig();
        cfg.mode = core::PeMode::Off;
        EXPECT_EQ(comparePrune(program, cfg, "", {}), 0u);
    }
    {
        SCOPED_TRACE("CMP mode");
        auto cfg = saturatingConfig();
        cfg.mode = core::PeMode::Cmp;
        EXPECT_EQ(comparePrune(program, cfg, "", {}), 0u);
    }
}

// ---------------------------------------------------------------------
// Counter resets landing where a block would otherwise keep running.
// The budget clip must stop the block at the exact legacy reset
// boundary, the reset must demote every promoted branch, and
// re-saturation must re-engage — all invisibly.
// ---------------------------------------------------------------------

TEST(SelfPruneEpochs, CounterResetMidSuperblock)
{
    auto program = saturatedKernel(200);
    for (uint64_t interval : {3ull, 17ull, 50ull, 256ull, 1000ull}) {
        SCOPED_TRACE("interval " + std::to_string(interval));
        auto cfg = saturatingConfig();
        cfg.counterResetInterval = interval;
        comparePrune(program, cfg, "", {});
    }
}

TEST(SelfPruneEpochs, TightIntervalOnWorkload)
{
    const auto &w = workloads::getWorkload("schedule2");
    auto program = minic::compile(w.source, w.name);
    for (uint64_t interval : {3ull, 17ull, 256ull}) {
        SCOPED_TRACE("interval " + std::to_string(interval));
        auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
        cfg.maxNtPathLength = w.maxNtPathLength;
        cfg.counterResetInterval = interval;
        cfg.ntPathCounterThreshold = 15;
        comparePrune(program, cfg, w.tools, w.benignInputs[0]);
    }
}

// ---------------------------------------------------------------------
// Configuration corners interacting with the bulk cycle accounting
// and the promotion predicate's waived-direction legs.
// ---------------------------------------------------------------------

TEST(SelfPruneCorners, SoftwareCostModel)
{
    // Per-branch analysis cost must be bulk-charged exactly.
    auto program = saturatedKernel(150);
    auto cfg = saturatingConfig();
    cfg.costModel = core::CostModelKind::Software;
    EXPECT_GT(comparePrune(program, cfg, "", {}), 0u);
}

TEST(SelfPruneCorners, SpawnPreFilterAndNoFixing)
{
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, w.name);
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = w.maxNtPathLength;
    cfg.ntPathCounterThreshold = 15;
    cfg.spawnPreFilter = true;      // doomed edges waive their leg
    cfg.variableFixing = false;
    comparePrune(program, cfg, w.tools, w.benignInputs[0]);
}

TEST(SelfPruneCorners, InstructionLimit)
{
    // The limit must cut the run at the exact same instruction even
    // when it lands inside a block of promoted branches.
    auto program = saturatedKernel(100000);
    for (uint64_t limit : {1000ull, 12345ull}) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        auto cfg = saturatingConfig();
        cfg.maxTakenInstructions = limit;
        comparePrune(program, cfg, "", {});
    }
}

TEST(SelfPruneCorners, DetectorKeepsChecksSurfacing)
{
    // With a detector attached, Chkb/Assert and memory ops must still
    // surface between promoted branches.
    const auto &w = workloads::getWorkload("pe_bc");
    auto program = minic::compile(w.source, w.name);
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = w.maxNtPathLength;
    cfg.ntPathCounterThreshold = 15;
    comparePrune(program, cfg, w.tools, w.benignInputs[0]);
}

// ---------------------------------------------------------------------
// Random programs: the block-step sweep's generator (tier_identity.hh:
// ALU runs, div/rem by possibly-zero registers, masked loads/stores,
// forward branches in a counted loop), but iterated enough for
// counters to cap so promotions actually happen.
// ---------------------------------------------------------------------

TEST(SelfPruneRandom, SeedSweepIsBitIdentical)
{
    int crashes = 0;
    uint64_t totalPruned = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto program =
            isa::assemble(generateProgram(seed, 40, 80),
                          "selfprune_" + std::to_string(seed));
        auto cfg = saturatingConfig();
        cfg.maxTakenInstructions = 50'000;

        auto runWith = [&](bool prune) {
            core::PeConfig c = cfg;
            c.selfPrune = prune;
            core::PathExpanderEngine engine(program, c, nullptr);
            return engine.run({});
        };
        core::RunResult pruned = runWith(true);
        core::RunResult plain = runWith(false);
        expectIdentical(pruned, plain);
        totalPruned += pruned.prunedInstructions;
        if (pruned.programCrashed)
            ++crashes;

        // And with a reset interval that fires mid-run.
        cfg.counterResetInterval = 997;
        core::RunResult prunedTight = runWith(true);
        core::RunResult plainTight = runWith(false);
        expectIdentical(prunedTight, plainTight);
    }
    // The sweep is only meaningful if some seeds crash-surface and
    // some seeds actually engage the pruned path.
    EXPECT_GT(crashes, 0);
    EXPECT_GT(totalPruned, 0u);
}

// ---------------------------------------------------------------------
// Configuration sweep against the per-step loop: reset intervals that
// land a reset at every position of a block, thresholds around the
// counter cap, a BTB small enough to evict, both modes (CMP must leave
// the flag inert) on the saturated kernel and a workload.  Each
// configuration takes its own slice of the interval ranges, so every
// interval runs once without running the full cross product.
// ---------------------------------------------------------------------

TEST(SelfPruneSweep, MatchesPerStepLoop)
{
    const auto &w = workloads::getWorkload("schedule");
    struct Case
    {
        const char *name;
        isa::Program program;
        std::vector<int32_t> input;
        uint32_t maxNtPathLength;
    };
    const std::vector<Case> cases = {
        {"saturated kernel", saturatedKernel(40), {}, 100},
        {"schedule", minic::compile(w.source, w.name), w.benignInputs[0],
         w.maxNtPathLength}};

    std::vector<uint64_t> intervals;
    for (uint64_t i = 1; i <= 64; ++i)
        intervals.push_back(i);
    for (uint64_t i = 400; i <= 463; ++i)
        intervals.push_back(i);

    branch::BtbParams tinyBtb;
    tinyBtb.entries = 4;
    tinyBtb.ways = 2;

    size_t slice = 0;
    uint64_t totalPruned = 0;
    for (const Case &c : cases) {
        for (core::PeMode mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
            for (const branch::BtbParams &btb : {branch::BtbParams{}, tinyBtb}) {
                for (uint8_t threshold : {0, 1, 15, 16}) {
                    const size_t slices = 2 * 2 * 2 * 4;
                    for (size_t i = slice; i < intervals.size();
                         i += slices) {
                        SCOPED_TRACE(std::string(c.name) + ", " +
                                     core::peModeName(mode) + ", btb " +
                                     std::to_string(btb.entries) +
                                     ", threshold " +
                                     std::to_string(threshold) +
                                     ", interval " +
                                     std::to_string(intervals[i]));
                        auto cfg = core::PeConfig::forMode(mode);
                        cfg.maxNtPathLength = c.maxNtPathLength;
                        cfg.btbParams = btb;
                        cfg.ntPathCounterThreshold = threshold;
                        cfg.counterResetInterval = intervals[i];
                        auto runWith = [&](bool prune, bool legacy) {
                            core::PeConfig k = cfg;
                            k.selfPrune = prune;
                            k.legacyStepLoop = legacy;
                            core::PathExpanderEngine engine(c.program, k,
                                                            nullptr);
                            return engine.run(c.input);
                        };
                        core::RunResult pruned = runWith(true, false);
                        expectIdentical(pruned, runWith(false, true));
                        if (mode == core::PeMode::Cmp) {
                            EXPECT_EQ(pruned.prunedInstructions, 0u);
                        }
                        totalPruned += pruned.prunedInstructions;
                    }
                    ++slice;
                }
            }
        }
    }
    EXPECT_GT(totalPruned, 0u);
}

// ---------------------------------------------------------------------
// The block clock under the software cost model: promoted branches and
// L1-missing loads share blocks, and the L2 port is held longer than
// an L2 hit, so each load's port wait depends on its exact issue
// cycle — which counts the branch analysis cost of every promoted
// branch retired before it in the block.
// ---------------------------------------------------------------------

TEST(SelfPruneCorners, SoftwareCostsOnTheBlockClock)
{
    // The saturated kernel's alternating inner branch, with a load per
    // inner iteration sweeping 2048 lines (four times the L1).
    std::ostringstream src;
    src << "li r8, 0\nli r20, 60\nli r21, 4\n"
        << "li r22, 65536\nli r23, 0\n"
        << "outer:\n"
        << "li r12, 0\n"
        << "inner:\n"
        << "andi r13, r12, 1\n"
        << "beq r13, r0, even\n"
        << "addi r9, r9, 1\n"
        << "even:\n"
        << "add r24, r22, r23\n"
        << "ld r25, 0(r24)\n"
        << "addi r23, r23, 8\n"
        << "andi r23, r23, 16383\n"
        << "addi r12, r12, 1\n"
        << "blt r12, r21, inner\n"
        << "addi r8, r8, 1\n"
        << "blt r8, r20, outer\n"
        << "sys exit\n";
    auto program = isa::assemble(src.str(), "load_kernel");

    auto cfg = saturatingConfig();
    cfg.costModel = core::CostModelKind::Software;
    cfg.timing.mem.l2PortHold = 1000;
    EXPECT_GT(comparePrune(program, cfg, "", {}), 0u);

    cfg.selfPrune = true;
    core::PathExpanderEngine pruned(program, cfg, nullptr);
    cfg.legacyStepLoop = true;
    core::PathExpanderEngine perStep(program, cfg, nullptr);
    core::RunResult r = pruned.run({});
    expectIdentical(r, perStep.run({}));
    EXPECT_GT(r.l2ContentionCycles, 0u);
}

// ---------------------------------------------------------------------
// Unit tests of the building blocks.
// ---------------------------------------------------------------------

TEST(BtbEpoch, AtCapTracksSaturation)
{
    branch::Btb btb;
    EXPECT_FALSE(btb.atCap(7, false));  // miss reads as not-at-cap
    for (int i = 0; i < 15; ++i)
        btb.increment(7, false);
    EXPECT_TRUE(btb.atCap(7, false));
    EXPECT_FALSE(btb.atCap(7, true));
    btb.increment(7, false);            // saturating: still at cap
    EXPECT_TRUE(btb.atCap(7, false));
    btb.resetCounters();
    EXPECT_FALSE(btb.atCap(7, false));
}

TEST(SaturationEligibility, ConflictingSetsAreExcluded)
{
    isa::Program p;
    p.code.push_back(isa::makeLi(8, 1));
    p.code.push_back(isa::makeBranch(isa::Opcode::Beq, 8, 0, 0));
    p.code.push_back(isa::makeBranch(isa::Opcode::Bne, 8, 0, 0));

    // One set, one way: two valid branches conflict — neither is safe.
    auto tight = analysis::computeSaturationEligibility(p, 1, 1);
    EXPECT_EQ(tight.condBranches, 2u);
    EXPECT_EQ(tight.eligibleBranches, 0u);
    EXPECT_FALSE(tight.branchEligible[1]);
    EXPECT_FALSE(tight.branchEligible[2]);

    // One set, two ways: both fit, eviction impossible.
    auto roomy = analysis::computeSaturationEligibility(p, 1, 2);
    EXPECT_EQ(roomy.eligibleBranches, 2u);

    // Two sets, one way: pcs 1 and 2 land in different sets.
    auto spread = analysis::computeSaturationEligibility(p, 2, 1);
    EXPECT_EQ(spread.eligibleBranches, 2u);
}

TEST(SaturationEligibility, InvalidTargetsDoNotPopulateSets)
{
    isa::Program p;
    p.code.push_back(isa::makeLi(8, 1));
    p.code.push_back(isa::makeBranch(isa::Opcode::Beq, 8, 0, 0));
    p.code.push_back(isa::makeBranch(isa::Opcode::Bne, 8, 0, 99));

    // The invalid-target branch crashes before any BTB bookkeeping,
    // so it neither counts nor conflicts.
    auto elig = analysis::computeSaturationEligibility(p, 1, 1);
    EXPECT_EQ(elig.condBranches, 1u);
    EXPECT_EQ(elig.eligibleBranches, 1u);
    EXPECT_TRUE(elig.branchEligible[1]);
    EXPECT_FALSE(elig.branchEligible[2]);
}

TEST(SaturationEligibility, CountsRegionsOverTheCfg)
{
    auto program = saturatedKernel(10);
    const branch::BtbParams btb;
    auto elig = analysis::computeSaturationEligibility(
        program, btb.entries / btb.ways, btb.ways);
    EXPECT_GT(elig.condBranches, 0u);
    EXPECT_EQ(elig.eligibleBranches, elig.condBranches);
    analysis::Cfg cfg(program);
    EXPECT_GT(analysis::countEligibleRegions(cfg, elig), 0u);
}

} // namespace
