/**
 * @file
 * Self-pruning as the block loop does it: every conditional branch that
 * would not spawn an NT-Path retires inside the dispatch loop with all
 * of its bookkeeping (coverage bit, counter bump, edge-trace word), and
 * only a branch that would spawn surfaces to the per-step path.
 *
 * These cases run the block tier against the per-step loop, where
 * every instruction surfaces, in the regime where branch counters
 * saturate: the spawn threshold at the 4-bit counter cap, so a branch
 * surfaces until both of its counters reach the cap and retires in the
 * loop from then on, until the next counter reset.  They cover every
 * workload in every mode, an engineered saturation kernel, counter
 * resets landing inside a block, configuration corners, random
 * programs and a sweep of reset intervals, thresholds, BTBs and modes,
 * plus the BTB's saturation boundary itself.  The retired
 * `PeConfig::selfPrune` flag, which the benchmark's Standard arm still
 * sets, must change no result and no config hash.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/branch/btb.hh"
#include "src/core/engine.hh"
#include "src/isa/assembler.hh"
#include "src/minic/compiler.hh"
#include "src/workloads/workload.hh"
#include "tier_identity.hh"

namespace
{

using namespace pe;
using test::blockRunMatchesLegacy;
using test::expectIdentical;
using test::generateProgram;

/**
 * A kernel engineered to saturate: an outer counted loop around a
 * 4-iteration inner loop whose branches all alternate direction, so
 * both coverage bits of each inner branch record within the first
 * outer iteration and — with the spawn threshold at the counter cap —
 * the exercise counters reach saturation after a few more.
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
// Every workload, every mode, at the saturating threshold.
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
    cfg.ntPathCounterThreshold = 15;

    {
        SCOPED_TRACE("benign input");
        blockRunMatchesLegacy(program, cfg, w.benignInputs[0], w.tools);
    }
    if (!w.triggerInputs.empty()) {
        SCOPED_TRACE("trigger input " + w.triggerInputs.begin()->first);
        blockRunMatchesLegacy(program, cfg, w.triggerInputs.begin()->second,
                              w.tools);
    }
    {
        // Loads and stores share the block loop with the branches.
        SCOPED_TRACE("no detector, benign input");
        blockRunMatchesLegacy(program, cfg, w.benignInputs[0]);
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
// Saturation and the retired flag.
// ---------------------------------------------------------------------

TEST(SelfPrune, EngagesOnSaturatedKernel)
{
    // Each of the kernel's four branches spawns on an edge only while
    // that edge's counter is below the cap, and each spawn bumps it:
    // once saturated, the kernel spawns no more.
    const core::RunResult r =
        blockRunMatchesLegacy(saturatedKernel(300), saturatingConfig());
    EXPECT_GT(r.ntPathsSpawned, 0u);
    EXPECT_LE(r.ntPathsSpawned, 4u * 2 * 15);
}

TEST(SelfPrune, GatesKeepTheFlagInert)
{
    // The retired selfPrune flag changes no result and no config hash,
    // in each regime the promotion gates once told apart.
    const auto program = saturatedKernel(120);
    std::vector<std::pair<std::string, core::PeConfig>> cases;
    cases.emplace_back("Standard at the cap", saturatingConfig());
    cases.emplace_back("random spawn factor", saturatingConfig());
    cases.back().second.randomSpawnFraction = 0.25;
    cases.emplace_back("NT redirect ablation", saturatingConfig());
    cases.back().second.followNonTakenInNt = true;
    cases.emplace_back("threshold above the counter cap",
                       saturatingConfig());
    cases.back().second.ntPathCounterThreshold = 16;
    cases.emplace_back("edge trace", saturatingConfig());
    cases.back().second.recordEdgeTrace = true;
    cases.emplace_back("PE off", saturatingConfig());
    cases.back().second.mode = core::PeMode::Off;
    cases.emplace_back("CMP mode", saturatingConfig());
    cases.back().second.mode = core::PeMode::Cmp;

    for (const auto &[name, cfg] : cases) {
        SCOPED_TRACE(name);
        core::PeConfig flagged = cfg;
        flagged.selfPrune = true;
        EXPECT_EQ(core::configHash(flagged), core::configHash(cfg));
        expectIdentical(blockRunMatchesLegacy(program, flagged),
                        blockRunMatchesLegacy(program, cfg));
    }
}

// ---------------------------------------------------------------------
// Counter resets landing where a block would otherwise keep running:
// the budget clip must stop the block at the per-step loop's reset
// boundary, and the branches must surface again until they
// re-saturate.
// ---------------------------------------------------------------------

TEST(SelfPruneEpochs, CounterResetMidSuperblock)
{
    auto program = saturatedKernel(200);
    for (uint64_t interval : {3ull, 17ull, 50ull, 256ull, 1000ull}) {
        SCOPED_TRACE("interval " + std::to_string(interval));
        auto cfg = saturatingConfig();
        cfg.counterResetInterval = interval;
        blockRunMatchesLegacy(program, cfg);
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
        blockRunMatchesLegacy(program, cfg, w.benignInputs[0], w.tools);
    }
}

// ---------------------------------------------------------------------
// Configuration corners interacting with the bulk cycle accounting and
// the in-loop spawn check's waived directions.
// ---------------------------------------------------------------------

TEST(SelfPruneCorners, SoftwareCostModel)
{
    // The per-branch analysis cost must be charged on the block clock.
    auto cfg = saturatingConfig();
    cfg.costModel = core::CostModelKind::Software;
    blockRunMatchesLegacy(saturatedKernel(150), cfg);
}

TEST(SelfPruneCorners, SpawnPreFilterAndNoFixing)
{
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, w.name);
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = w.maxNtPathLength;
    cfg.ntPathCounterThreshold = 15;
    cfg.spawnPreFilter = true;      // doomed edges never spawn
    cfg.variableFixing = false;
    blockRunMatchesLegacy(program, cfg, w.benignInputs[0], w.tools);
}

TEST(SelfPruneCorners, InstructionLimit)
{
    // The limit must cut the run at the exact same instruction even
    // when it lands inside a block of saturated branches.
    auto program = saturatedKernel(100000);
    for (uint64_t limit : {1000ull, 12345ull}) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        auto cfg = saturatingConfig();
        cfg.maxTakenInstructions = limit;
        blockRunMatchesLegacy(program, cfg);
    }
}

TEST(SelfPruneCorners, DetectorKeepsChecksSurfacing)
{
    // With a detector attached, Chkb/Assert and memory ops must still
    // surface between in-loop branches.
    const auto &w = workloads::getWorkload("pe_bc");
    auto program = minic::compile(w.source, w.name);
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = w.maxNtPathLength;
    cfg.ntPathCounterThreshold = 15;
    blockRunMatchesLegacy(program, cfg, w.benignInputs[0], w.tools);
}

// ---------------------------------------------------------------------
// Random programs: the block-step sweep's generator (tier_identity.hh:
// ALU runs, div/rem by possibly-zero registers, masked loads/stores,
// forward branches in a counted loop), but iterated enough for
// counters to reach the cap.
// ---------------------------------------------------------------------

TEST(SelfPruneRandom, SeedSweepIsBitIdentical)
{
    int crashes = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto program =
            isa::assemble(generateProgram(seed, 40, 80),
                          "selfprune_" + std::to_string(seed));
        auto cfg = saturatingConfig();
        cfg.maxTakenInstructions = 50'000;
        if (blockRunMatchesLegacy(program, cfg).programCrashed)
            ++crashes;

        // And with a reset interval that fires mid-run.
        cfg.counterResetInterval = 997;
        blockRunMatchesLegacy(program, cfg);
    }
    // The sweep is only meaningful if some seeds take the
    // crash-surfacing path.
    EXPECT_GT(crashes, 0);
}

// ---------------------------------------------------------------------
// Configuration sweep against the per-step loop: reset intervals that
// land a reset at every position of a block, thresholds around the
// counter cap, a BTB small enough to evict, both modes, on the
// saturated kernel and a workload.  Each configuration takes its own
// slice of the interval ranges, so every interval runs once without
// running the full cross product.
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
    uint64_t spawned = 0;
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
                        spawned += blockRunMatchesLegacy(c.program, cfg,
                                                         c.input)
                                       .ntPathsSpawned;
                    }
                    ++slice;
                }
            }
        }
    }
    EXPECT_GT(spawned, 0u);
}

// ---------------------------------------------------------------------
// The block clock under the software cost model: saturated branches
// and L1-missing loads share blocks, and the L2 port is held longer
// than an L2 hit, so each load's port wait depends on its exact issue
// cycle — which counts the branch analysis cost of every branch
// retired before it in the block.
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
    const core::RunResult r = blockRunMatchesLegacy(program, cfg);
    EXPECT_GT(r.l2ContentionCycles, 0u);
}

// ---------------------------------------------------------------------
// The BTB at the saturating threshold.
// ---------------------------------------------------------------------

TEST(BtbEpoch, AtCapTracksSaturation)
{
    // With the threshold at the cap, the in-loop spawn check refuses a
    // branch until its non-taken edge's counter saturates, keeps
    // retiring it while further increments leave the counter at the
    // cap, and refuses it again after a counter reset.
    branch::Btb btb;
    const uint8_t cap = btb.maxCount();
    for (int i = 0; i < cap; ++i) {
        EXPECT_FALSE(btb.bumpUnlessBelow(7, true, cap));
        btb.increment(7, false);
    }
    EXPECT_EQ(btb.count(7, false), cap);
    EXPECT_TRUE(btb.bumpUnlessBelow(7, true, cap));
    btb.increment(7, false);            // saturating: still at the cap
    EXPECT_EQ(btb.count(7, false), cap);
    EXPECT_TRUE(btb.bumpUnlessBelow(7, true, cap));
    EXPECT_EQ(btb.count(7, true), 2);
    btb.resetCounters();
    EXPECT_FALSE(btb.bumpUnlessBelow(7, true, cap));
    EXPECT_EQ(btb.count(7, true), 0);
}

} // namespace
