/**
 * @file
 * CMP-optimization tests (paper Section 4.3): correctness of the
 * tree-ordered versioning and commit/squash-token protocol, overlap
 * benefits, MaxNumNTPaths capping and forced squashes.
 */

#include <gtest/gtest.h>

#include "src/core/engine.hh"
#include "src/isa/assembler.hh"
#include "src/minic/compiler.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;

const char *loopy = R"(
int total = 0;
int mode = 0;
int hist[16];
int main() {
    int i = 0;
    while (i < 60) {
        if (i % 4 == 0) {
            total = total + 2;
        } else {
            total = total + 1;
        }
        if (mode == 3) {
            total = total * 2;
        }
        hist[i % 16] = hist[i % 16] + total;
        i = i + 1;
    }
    print_int(total);
    print_int(hist[3]);
    return 0;
}
)";

core::RunResult
run(const isa::Program &program, core::PeConfig cfg,
    std::vector<int32_t> input = {})
{
    core::PathExpanderEngine engine(program, cfg, nullptr);
    return engine.run(std::move(input));
}

TEST(Cmp, ProgramBehaviorMatchesBaseline)
{
    auto program = minic::compile(loopy, "loopy");
    auto off = run(program, core::PeConfig::forMode(core::PeMode::Off));
    auto cmp = run(program, core::PeConfig::forMode(core::PeMode::Cmp));
    EXPECT_GT(cmp.ntPathsSpawned, 0u);
    EXPECT_EQ(off.io.charOutput, cmp.io.charOutput);
    EXPECT_EQ(off.takenInstructions, cmp.takenInstructions);
}

TEST(Cmp, MatchesStandardModeResults)
{
    auto program = minic::compile(loopy, "loopy");
    auto std_ =
        run(program, core::PeConfig::forMode(core::PeMode::Standard));
    auto cmp = run(program, core::PeConfig::forMode(core::PeMode::Cmp));
    // Same NT-Path selection policy: same spawns and coverage.
    EXPECT_EQ(std_.ntPathsSpawned,
              cmp.ntPathsSpawned + cmp.ntPathsSkippedBusy);
    EXPECT_EQ(std_.io.charOutput, cmp.io.charOutput);
}

TEST(Cmp, OverlapsNtWorkWithTakenPath)
{
    // The whole point of Figure 4(b): NT instructions execute on idle
    // cores, so the primary core finishes far sooner than in the
    // standard configuration for the same NT workload.
    const auto &w = workloads::getWorkload("pe_go");
    auto program = minic::compile(w.source, w.name);

    auto stdCfg = core::PeConfig::forMode(core::PeMode::Standard);
    auto cmpCfg = core::PeConfig::forMode(core::PeMode::Cmp);
    auto std_ = run(program, stdCfg, w.benignInputs[0]);
    auto cmp = run(program, cmpCfg, w.benignInputs[0]);

    EXPECT_GT(cmp.ntInstructions, 0u);
    EXPECT_LT(cmp.cycles, std_.cycles);
}

TEST(Cmp, MaxNumNtPathsCapsOutstandingWork)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Cmp);
    cfg.maxNumNtPaths = 1;
    cfg.maxNtPathLength = 2000;
    auto capped = run(program, cfg);
    cfg.maxNumNtPaths = 32;
    auto roomy = run(program, cfg);
    EXPECT_GT(capped.ntPathsSkippedBusy, roomy.ntPathsSkippedBusy);
    EXPECT_LE(capped.ntPathsSpawned, roomy.ntPathsSpawned);
}

TEST(Cmp, QueueingBeyondIdleCores)
{
    // 2 cores = 1 idle core; long NT-Paths force queueing, yet all
    // spawned paths still run and the program result is unchanged.
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Cmp);
    cfg.numCores = 2;
    cfg.maxNtPathLength = 500;
    auto r = run(program, cfg);
    auto off = run(program, core::PeConfig::forMode(core::PeMode::Off));
    EXPECT_GT(r.ntPathsSpawned, 0u);
    EXPECT_EQ(r.io.charOutput, off.io.charOutput);
}

TEST(Cmp, DetectionEquivalentToStandard)
{
    const auto &w = workloads::getWorkload("print_tokens2");
    auto program = minic::compile(w.source, w.name);

    auto collectIds = [&](core::PeMode mode) {
        detect::AssertChecker checker;
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = w.maxNtPathLength;
        core::PathExpanderEngine engine(program, cfg, &checker);
        auto r = engine.run(w.benignInputs[0]);
        std::set<int32_t> ids;
        for (const auto &rep : r.monitor.reports())
            ids.insert(rep.assertId);
        return ids;
    };

    EXPECT_EQ(collectIds(core::PeMode::Standard),
              collectIds(core::PeMode::Cmp));
}

TEST(Cmp, SegmentDepthForcesSquashes)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Cmp);
    cfg.maxSegmentDepth = 2;
    cfg.maxNtPathLength = 2000;
    auto r = run(program, cfg);
    bool forced = false;
    for (const auto &rec : r.ntRecords)
        forced |= rec.cause == core::NtStopCause::ForcedSquash;
    EXPECT_TRUE(forced);
    // Correctness is unaffected by forced squashes.
    auto off = run(program, core::PeConfig::forMode(core::PeMode::Off));
    EXPECT_EQ(r.io.charOutput, off.io.charOutput);
}

TEST(Cmp, SingleIdleCoreStillWorks)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Cmp);
    cfg.numCores = 2;
    auto r = run(program, cfg);
    auto off = run(program, core::PeConfig::forMode(core::PeMode::Off));
    EXPECT_GT(r.ntPathsSpawned, 0u);
    EXPECT_EQ(r.io.charOutput, off.io.charOutput);
}

TEST(Cmp, FinalSquashFollowsSpawnOrder)
{
    // Five spawn branches in a row, each NT-Path spinning past the
    // taken path's exit: three run on the idle cores, two wait in the
    // queue, and the squash at exit ends all five, oldest first.
    const auto program = isa::assemble("beq r0, r0, a\n"
                                       "jmp spin\n"
                                       "a:\n"
                                       "beq r0, r0, b\n"
                                       "jmp spin\n"
                                       "b:\n"
                                       "beq r0, r0, c\n"
                                       "jmp spin\n"
                                       "c:\n"
                                       "beq r0, r0, d\n"
                                       "jmp spin\n"
                                       "d:\n"
                                       "beq r0, r0, e\n"
                                       "jmp spin\n"
                                       "e:\n"
                                       "sys exit\n"
                                       "spin:\n"
                                       "jmp spin\n",
                                       "final_squash");
    for (bool legacy : {false, true}) {
        SCOPED_TRACE(legacy ? "per-step loop" : "block loop");
        auto cfg = core::PeConfig::forMode(core::PeMode::Cmp);
        cfg.legacyStepLoop = legacy;
        cfg.maxNtPathLength = 100'000;
        auto r = run(program, cfg);
        ASSERT_EQ(r.ntRecords.size(), 5u);
        for (uint32_t i = 0; i < 5; ++i) {
            EXPECT_EQ(r.ntRecords[i].spawnBranchPc, 2 * i);
            EXPECT_EQ(r.ntRecords[i].cause, core::NtStopCause::ForcedSquash);
        }
        EXPECT_GT(r.ntRecords[0].length, 0u);
        EXPECT_EQ(r.ntRecords[4].length, 0u);   // never got a core
    }
}

TEST(Cmp, DeterministicAcrossRuns)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Cmp);
    auto a = run(program, cfg);
    auto b = run(program, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ntPathsSpawned, b.ntPathsSpawned);
}

} // namespace
