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
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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
using test::blockRunMatchesLegacy;
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

    // The edge trace, as path-objective sessions record it: branches
    // that retire in-block append their words there.
    auto traced = cfg;
    traced.recordEdgeTrace = true;
    {
        SCOPED_TRACE("edge trace, benign input");
        compareLoops(program, traced, w.tools, w.benignInputs[0]);
    }
    {
        SCOPED_TRACE("edge trace, no detector, benign input");
        compareLoops(program, traced, "", w.benignInputs[0]);
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

// ---------------------------------------------------------------------
// Conditional branches under PathExpander retire in the block loop
// unless they would spawn, so the BTB's counters, LRU order and the
// counter resets decide what surfaces.  Every configuration below runs
// against the per-step loop.
// ---------------------------------------------------------------------

TEST(BlockStepBranches, SweepMatchesPerStepLoop)
{
    struct Case
    {
        std::string name;
        isa::Program program;
        std::vector<int32_t> input;
        uint32_t maxNtPathLength;
        std::string checker;    //!< a function for noSpawnFuncs
    };
    const auto &w = workloads::getWorkload("schedule");
    std::vector<Case> cases;
    cases.push_back({"schedule", minic::compile(w.source, w.name),
                     w.benignInputs[0], w.maxNtPathLength, ""});
    for (const auto &f : cases.back().program.funcs) {
        if (f.name != "main") {
            cases.back().checker = f.name;
            break;
        }
    }
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const std::string name = "generated_" + std::to_string(seed);
        cases.push_back({name,
                         isa::assemble(generateProgram(seed, 3, 8), name),
                         {}, 60, ""});
    }

    branch::BtbParams tiny;     // 2 sets of 2 ways
    tiny.entries = 4;
    tiny.ways = 2;
    branch::BtbParams direct;   // 8 sets of 1 way
    direct.entries = 8;
    direct.ways = 1;
    const branch::BtbParams btbs[] = {branch::BtbParams{}, tiny, direct};
    const uint8_t thresholds[] = {0, 1, 5, 15, 16};
    enum Option { None, PreFilter, NoSpawn, SelfPrune, FollowNt,
                  RandomSandbox, NumOptions };
    const char *optionNames[] = {"none", "spawnPreFilter", "noSpawnFuncs",
                                 "selfPrune", "followNonTakenInNt",
                                 "randomSpawnFraction+sandboxIo"};

    // Each configuration takes the next counter-reset interval of
    // 1-64 and the next option, so the sweep covers every interval
    // and every option across thresholds, BTBs, modes and cost models
    // without running their full product.
    uint64_t slot = 0;
    uint64_t spawned = 0;
    for (const Case &c : cases) {
        for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
            for (auto cost : {core::CostModelKind::Hardware,
                              core::CostModelKind::Software}) {
                for (const branch::BtbParams &btb : btbs) {
                    for (uint8_t threshold : thresholds) {
                        const uint64_t interval = 1 + slot % 64;
                        const auto option =
                            static_cast<Option>(slot % NumOptions);
                        ++slot;
                        SCOPED_TRACE(
                            c.name + ", " + core::peModeName(mode) +
                            (cost == core::CostModelKind::Software
                                 ? ", software"
                                 : ", hardware") +
                            ", btb " + std::to_string(btb.entries) + "x" +
                            std::to_string(btb.ways) + ", threshold " +
                            std::to_string(threshold) + ", interval " +
                            std::to_string(interval) + ", " +
                            optionNames[option]);
                        auto cfg = core::PeConfig::forMode(mode);
                        cfg.maxNtPathLength = c.maxNtPathLength;
                        cfg.costModel = cost;
                        cfg.btbParams = btb;
                        cfg.ntPathCounterThreshold = threshold;
                        cfg.counterResetInterval = interval;
                        cfg.spawnPreFilter = option == PreFilter;
                        if (option == NoSpawn && !c.checker.empty())
                            cfg.noSpawnFuncs = {c.checker};
                        cfg.selfPrune = option == SelfPrune;
                        cfg.followNonTakenInNt = option == FollowNt;
                        if (option == RandomSandbox) {
                            cfg.randomSpawnFraction = 0.3;
                            cfg.sandboxIo = true;
                        }
                        spawned += blockRunMatchesLegacy(c.program, cfg,
                                                         c.input)
                                       .ntPathsSpawned;
                    }
                }
            }
        }
    }
    EXPECT_GT(spawned, 0u);
}

TEST(BlockStepBranches, TraceTruncatesInsideABlock)
{
    // 400 branches; once a branch's spawn check is false it retires
    // in-block, so the cap falls in the middle of a block.
    const auto program = isa::assemble("li r20, 200\n"
                                       "li r12, 0\n"
                                       "loop:\n"
                                       "andi r13, r12, 1\n"
                                       "beq r13, r0, even\n"
                                       "addi r9, r9, 1\n"
                                       "even:\n"
                                       "addi r12, r12, 1\n"
                                       "addi r20, r20, -1\n"
                                       "bgt r20, r0, loop\n"
                                       "sys exit\n",
                                       "trace_cap");
    for (auto mode :
         {core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp}) {
        SCOPED_TRACE(core::peModeName(mode));
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = 20;
        cfg.recordEdgeTrace = true;
        cfg.edgeTraceCap = 150;
        core::RunResult r = blockRunMatchesLegacy(program, cfg, {});
        EXPECT_TRUE(r.branchTraceTruncated);
        EXPECT_EQ(r.branchTrace.size(), 150u);
    }
}

TEST(BlockStepBranches, HotBranchKeepsItsLruPlace)
{
    // In a two-set, two-way BTB a hot always-taken branch H shares
    // set 0 (even PCs) with A and B, which run in alternate iterations
    // and evict each other; the other two branches sit in set 1.  H's
    // in-loop bumps keep it most recently used, so it never misses
    // again and, at threshold 1, spawns exactly once.  A bump that
    // skipped the LRU stamp would let A or B evict it.
    std::ostringstream src;
    src << "li r20, 40\n"
        << "li r12, 0\n"
        << "hot:\n"
        << "beq r0, r0, body\n"     // pc 2: H
        << "nop\n"
        << "body:\n"
        << "andi r13, r12, 1\n"
        << "bne r13, r0, odd\n"     // pc 5
        << "beq r0, r0, next\n"     // pc 6: A
        << "nop\n"
        << "jmp next\n"
        << "nop\n"
        << "odd:\n"
        << "beq r0, r0, next\n"     // pc 10: B
        << "nop\n"
        << "next:\n"
        << "addi r12, r12, 1\n"
        << "addi r20, r20, -1\n"
        << "nop\n"
        << "bgt r20, r0, hot\n"     // pc 15
        << "sys exit\n";
    const auto program = isa::assemble(src.str(), "lru_kernel");
    const uint32_t hot = 2;
    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        SCOPED_TRACE(core::peModeName(mode));
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = 20;
        cfg.ntPathCounterThreshold = 1;
        cfg.btbParams.entries = 4;
        cfg.btbParams.ways = 2;
        core::RunResult r = blockRunMatchesLegacy(program, cfg, {});
        size_t hotSpawns = 0;
        for (const core::NtPathRecord &rec : r.ntRecords)
            hotSpawns += rec.spawnBranchPc == hot;
        EXPECT_EQ(hotSpawns, 1u);
        // A and B miss on every execution, so they keep spawning.
        EXPECT_GT(r.ntPathsSpawned, 40u);
    }
}

// ---------------------------------------------------------------------
// Detectors beyond each workload's own: the paper's CCured-like bounds
// checker, and a detector that reports every load and store and charges
// for every access and bounds check.  With a detector installed, loads,
// stores and Chkb surface to sim::step, so these legs hold the
// step-retire path's charges and detector dispatch, on the taken path
// and on NT-Paths, to the per-step loop.
// ---------------------------------------------------------------------

/** Reports every load and store; charges each access and Chkb. */
class EveryAccessDetector : public detect::Detector
{
  public:
    const char *name() const override { return "every-access"; }

    void
    onMemAccess(const detect::DetectCtx &ctx, uint32_t addr,
                bool isWrite) override
    {
        reportMem(ctx,
                  isWrite ? detect::ReportKind::GuardHit
                          : detect::ReportKind::WildAccess,
                  addr);
    }

    uint64_t memAccessCost() const override { return 3; }
    uint64_t boundsCheckCost() const override { return 5; }
};

/**
 * Run @p workload's benign input 0 and its first trigger input under
 * Off, Standard and Cmp, block-stepped and with the per-step loop, each
 * with a fresh @p Det; require the results identical.  Returns the
 * block-stepped runs' detector reports and NT-Paths, summed, so a leg
 * can show it exercised something.
 */
template <typename Det>
std::pair<size_t, size_t>
compareWithDetector(const std::string &workload)
{
    const auto &w = workloads::getWorkload(workload);
    const auto program = minic::compile(w.source, w.name);
    std::vector<std::vector<int32_t>> inputs = {w.benignInputs[0]};
    if (!w.triggerInputs.empty())
        inputs.push_back(w.triggerInputs.begin()->second);
    size_t reports = 0;
    size_t ntPaths = 0;
    for (auto mode :
         {core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp}) {
        SCOPED_TRACE(core::peModeName(mode));
        for (size_t i = 0; i < inputs.size(); ++i) {
            SCOPED_TRACE(i == 0 ? "benign input" : "trigger input");
            auto runWith = [&](bool legacy) {
                auto cfg = core::PeConfig::forMode(mode);
                cfg.maxNtPathLength = w.maxNtPathLength;
                cfg.legacyStepLoop = legacy;
                Det det;
                core::PathExpanderEngine engine(program, cfg, &det);
                return engine.run(inputs[i]);
            };
            const core::RunResult blk = runWith(false);
            expectIdentical(blk, runWith(true));
            reports += blk.monitor.reports().size();
            ntPaths += blk.ntRecords.size();
        }
    }
    return {reports, ntPaths};
}

TEST(BlockStepDetectors, BoundsCheckerMatchesPerStepLoop)
{
    for (const char *name : {"pe_bc", "pe_go", "pe_man"}) {
        SCOPED_TRACE(name);
        const auto [reports, ntPaths] =
            compareWithDetector<detect::BoundsChecker>(name);
        EXPECT_GT(reports, 0u);
        EXPECT_GT(ntPaths, 0u);
    }
}

TEST(BlockStepDetectors, EveryAccessDetectorMatchesPerStepLoop)
{
    // pe_go makes ~300k reports a run; these three keep the leg short.
    for (const char *name : {"schedule", "print_tokens", "pe_bc"}) {
        SCOPED_TRACE(name);
        const auto [reports, ntPaths] =
            compareWithDetector<EveryAccessDetector>(name);
        EXPECT_GT(reports, 0u);
        EXPECT_GT(ntPaths, 0u);
    }
}

} // namespace
