/**
 * @file
 * Prime-path enumeration, minimum path cover and runtime completion
 * tracking: the Cfg successor-order pin the whole path-id space rests
 * on, enumeration oracles on hand-built CFGs, the original quadratic
 * enumeration and cover as a field-for-field oracle
 * (primepath_reference.hh), structural properties (simplicity,
 * maximality, determinism, edge coverage) on compiled workloads,
 * every workload's pinned path-id space, truncation behavior, the
 * branch-trace fold, merge semantics (campaign accumulation ==
 * sharded merge, bit-identical), wire round-trips, the explorer's
 * path-objective checkpoint/resume identity, the original match-set
 * fold as an after-every-fold oracle for the automaton
 * (pathcov_reference.hh), and one hand-built program per fold stop
 * rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/cfg.hh"
#include "src/analysis/primepaths.hh"
#include "src/core/engine.hh"
#include "src/coverage/pathcov.hh"
#include "src/explore/explorer.hh"
#include "src/fleet/wire.hh"
#include "src/isa/assembler.hh"
#include "src/minic/compiler.hh"
#include "src/support/fnv.hh"
#include "src/support/status.hh"
#include "src/workloads/workload.hh"
#include "pathcov_reference.hh"
#include "primepath_reference.hh"
#include "tier_identity.hh"

namespace
{

using namespace pe;

// A diamond: read -> branch -> (then | else) -> join -> exit.
const char *diamondSrc = R"(
    sys read_int r8
    beq r8, r0, else_
    li r9, 1
    jmp join
else_:
    li r9, 2
join:
    sys print_int r9
    sys exit
)";

// A self-loop: read -> spin while nonzero -> exit.
const char *loopSrc = R"(
loop:
    sys read_int r8
    bne r8, r0, loop
    sys exit
)";

std::vector<uint32_t>
blockSeq(const analysis::Cfg &cfg, const analysis::PrimePath &path)
{
    return analysis::primePathBlocks(cfg, path);
}

/** Silences the truncation warn() lines of deliberately capped runs. */
struct QuietScope
{
    QuietScope() { setQuiet(true); }
    ~QuietScope() { setQuiet(was); }
    QuietScope(const QuietScope &) = delete;
    QuietScope &operator=(const QuietScope &) = delete;
    bool was = quiet();
};

// ---------------------------------------------------------------------
// The successor-order pin.  Prime-path ids are only stable across
// processes because every Cfg lists a block's successors in the same
// order: ascending target firstPc, edge id breaking ties (parallel
// branch edges to one target).  Everything downstream — canonical
// path order, cover selection, completion-word layout, fleet digests
// — inherits determinism from this.

TEST(PrimePaths, CfgSuccessorsAreSortedByTargetPc)
{
    for (const auto &name : workloads::workloadNames()) {
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, name);
        analysis::Cfg cfg(program);
        for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
            const auto &succs = cfg.block(b).succs;
            for (size_t i = 1; i < succs.size(); ++i) {
                const uint32_t pa =
                    cfg.block(cfg.edges()[succs[i - 1]].to).firstPc;
                const uint32_t pb =
                    cfg.block(cfg.edges()[succs[i]].to).firstPc;
                EXPECT_TRUE(pa < pb ||
                            (pa == pb && succs[i - 1] < succs[i]))
                    << name << " block " << b << " succ " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Enumeration oracles on hand-built CFGs.

TEST(PrimePaths, DiamondHasExactlyTwoPaths)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);

    ASSERT_EQ(set.paths.size(), 2u);
    EXPECT_FALSE(set.truncated);
    const uint32_t b0 = cfg.blockOf(0);
    const uint32_t bThen = cfg.blockOf(2);
    const uint32_t bElse = cfg.blockOf(4);
    const uint32_t bJoin = cfg.blockOf(5);
    // Canonical order is (start block, edge-id sequence); the beq's
    // BranchTaken edge (to else_) was materialized first, so the
    // else-arm carries the lower edge id and sorts first.
    EXPECT_EQ(blockSeq(cfg, set.paths[0]),
              (std::vector<uint32_t>{b0, bElse, bJoin}));
    EXPECT_EQ(blockSeq(cfg, set.paths[1]),
              (std::vector<uint32_t>{b0, bThen, bJoin}));

    // Both arms are needed to cover both branch directions.
    auto cover = analysis::computePathCover(cfg, set);
    EXPECT_EQ(cover.size(), 2u);
}

TEST(PrimePaths, SelfLoopProducesACyclePath)
{
    auto program = isa::assemble(loopSrc, "selfloop");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);

    EXPECT_FALSE(set.truncated);
    bool sawCycle = false;
    for (const auto &p : set.paths) {
        auto blocks = blockSeq(cfg, p);
        if (blocks.size() > 1 && blocks.front() == blocks.back())
            sawCycle = true;
    }
    EXPECT_TRUE(sawCycle) << "the back edge must close a cycle path";
}

// ---------------------------------------------------------------------
// Structural properties on compiled workloads.

TEST(PrimePaths, PathsAreSimpleAndDeterministic)
{
    for (const char *name : {"schedule", "print_tokens"}) {
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, name);
        analysis::Cfg cfg(program);
        auto set = analysis::enumeratePrimePaths(cfg);

        for (const auto &p : set.paths) {
            auto blocks = blockSeq(cfg, p);
            // Simple: no block repeats, except last == first (cycle).
            std::set<uint32_t> seen;
            for (size_t i = 0; i + 1 < blocks.size(); ++i)
                EXPECT_TRUE(seen.insert(blocks[i]).second) << name;
            if (blocks.back() != blocks.front()) {
                EXPECT_TRUE(seen.insert(blocks.back()).second) << name;
            }
        }

        // Two enumerations of the same program are identical.
        auto again = analysis::enumeratePrimePaths(cfg);
        ASSERT_EQ(again.paths.size(), set.paths.size()) << name;
        for (size_t i = 0; i < set.paths.size(); ++i) {
            EXPECT_EQ(again.paths[i].startBlock,
                      set.paths[i].startBlock);
            EXPECT_EQ(again.paths[i].edges, set.paths[i].edges);
        }
    }
}

TEST(PrimePaths, PathsAreMaximal)
{
    // Pairwise containment is quadratic; print_tokens is the smallest
    // untruncated workload (634 paths), small enough to check fully.
    const auto &w = workloads::getWorkload("print_tokens");
    auto program = minic::compile(w.source, "print_tokens");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);
    ASSERT_FALSE(set.truncated);

    // Containment compares block sequences: a proper contiguous
    // sub-sequence of another path's blocks means non-maximal.
    std::vector<std::vector<uint32_t>> seqs;
    seqs.reserve(set.paths.size());
    for (const auto &p : set.paths)
        seqs.push_back(blockSeq(cfg, p));
    for (size_t i = 0; i < seqs.size(); ++i) {
        for (size_t j = 0; j < seqs.size(); ++j) {
            if (i == j || seqs[i].size() >= seqs[j].size())
                continue;
            auto it = std::search(seqs[j].begin(), seqs[j].end(),
                                  seqs[i].begin(), seqs[i].end());
            EXPECT_EQ(it, seqs[j].end())
                << "path " << i << " is a subpath of " << j;
        }
    }
}

TEST(PrimePaths, EveryReachableDecisionEdgeIsOnSomePath)
{
    // Untruncated enumeration: every intraprocedural edge reachable
    // from some function root lies on at least one prime path, and
    // the greedy cover touches exactly the union the full set does.
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, "schedule");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);
    ASSERT_FALSE(set.truncated);

    std::set<uint32_t> onPaths;
    for (const auto &p : set.paths)
        onPaths.insert(p.edges.begin(), p.edges.end());

    for (uint32_t e = 0; e < cfg.edges().size(); ++e) {
        const auto &edge = cfg.edges()[e];
        if (edge.kind == analysis::EdgeKind::Call)
            continue;       // enumeration is intraprocedural
        if (!cfg.reachable()[edge.from])
            continue;
        EXPECT_TRUE(onPaths.count(e))
            << "edge " << e << " ("
            << analysis::edgeKindName(edge.kind)
            << ") missing from every prime path";
    }

    auto cover = analysis::computePathCover(cfg, set);
    ASSERT_FALSE(cover.empty());
    std::set<uint32_t> covered;
    for (uint32_t id : cover) {
        ASSERT_LT(id, set.paths.size());
        covered.insert(set.paths[id].edges.begin(),
                       set.paths[id].edges.end());
    }
    EXPECT_EQ(covered, onPaths)
        << "the cover must touch every edge any prime path touches";
}

/**
 * Kept paths that are not cycles and can still grow by one non-Call
 * edge and stay simple, by the textbook definition: forward to a
 * reachable block not on the path or to its first block (closing a
 * cycle), backward from a reachable block not on the path or from its
 * last block.
 */
struct Growable
{
    size_t forward = 0;
    size_t backward = 0;
};

Growable
countGrowable(const analysis::Cfg &cfg, const analysis::PrimePathSet &set)
{
    Growable out;
    for (const auto &p : set.paths) {
        const auto blocks = blockSeq(cfg, p);
        const uint32_t first = blocks.front();
        const uint32_t last = blocks.back();
        if (blocks.size() > 1 && first == last)
            continue;   // a cycle cannot grow
        const std::set<uint32_t> on(blocks.begin(), blocks.end());
        auto grows = [&](uint32_t edgeId, bool fwd) {
            const auto &edge = cfg.edges()[edgeId];
            if (edge.kind == analysis::EdgeKind::Call)
                return false;
            const uint32_t other = fwd ? edge.to : edge.from;
            if (other == (fwd ? first : last))
                return true;
            return cfg.reachable()[other] && !on.count(other);
        };
        if (std::any_of(cfg.block(last).succs.begin(),
                        cfg.block(last).succs.end(),
                        [&](uint32_t e) { return grows(e, true); }))
            out.forward++;
        if (std::any_of(cfg.block(first).preds.begin(),
                        cfg.block(first).preds.end(),
                        [&](uint32_t e) { return grows(e, false); }))
            out.backward++;
    }
    return out;
}

TEST(PrimePaths, NoUntruncatedPathCanGrow)
{
    // The maximality definition itself, linear in the path count, on
    // every workload whose enumeration completes.
    for (const char *name : {"schedule", "schedule2", "print_tokens",
                             "pe_gzip", "pe_parser"}) {
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, name);
        analysis::Cfg cfg(program);
        auto set = analysis::enumeratePrimePaths(cfg);
        ASSERT_FALSE(set.truncated) << name;
        const Growable g = countGrowable(cfg, set);
        EXPECT_EQ(g.forward, 0u) << name;
        EXPECT_EQ(g.backward, 0u) << name;
    }
}

TEST(PrimePaths, BudgetCutLeavesOneForwardGrowablePath)
{
    // When the generated-path budget trips inside a candidate's
    // successor loop before any extension, that candidate is kept
    // although it could still grow: exactly one such path per
    // budget-truncated workload, and no other kept path can grow
    // forward.
    const QuietScope quietScope;
    for (const char *name : {"pe_go", "pe_man", "print_tokens2"}) {
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, name);
        analysis::Cfg cfg(program);
        auto set = analysis::enumeratePrimePaths(cfg);
        ASSERT_TRUE(set.truncated) << name;
        EXPECT_EQ(countGrowable(cfg, set).forward, 1u) << name;
    }
}

uint64_t
pathDigest(const analysis::PrimePathSet &set)
{
    uint64_t h = kFnvOffset;
    for (const auto &p : set.paths) {
        h = fnvMix(h, p.startBlock);
        h = fnvMix(h, p.edges.size());
        for (uint32_t e : p.edges)
            h = fnvMix(h, e);
    }
    return h;
}

uint64_t
coverDigest(const std::vector<uint32_t> &cover)
{
    uint64_t h = kFnvOffset;
    for (uint32_t id : cover)
        h = fnvMix(h, id);
    return h;
}

TEST(PrimePaths, WorkloadCountsArePinned)
{
    // Regression pins: these move only when the enumeration, the
    // canonical order, the greedy cover or the compiler changes — all
    // of which invalidate persisted path-id spaces and must be loud.
    // The digests cover every path's start block and edges in id
    // order, and the cover's ids in selection order.
    struct Pin
    {
        const char *name;
        size_t paths;
        bool truncated;
        uint64_t generated;
        uint32_t roots;
        uint64_t pathDigest;
        size_t cover;
        uint64_t coverDigest;
    };
    const Pin pins[] = {
        {"pe_go", 1617, true, 131072, 4, 0x3a34a646d6245cceull, 14,
         0x0d9dcd5fcfcb8f65ull},
        {"pe_bc", 4096, true, 59663, 22, 0x902a4f1c0d57d08dull, 50,
         0x5b99c4dadbc1488dull},
        {"pe_man", 4096, true, 131072, 13, 0x7a4c10d9c7cfb3a7ull, 46,
         0xfbb87a70bb66ff47ull},
        {"print_tokens", 634, false, 7482, 16, 0xfbf29f178c9474eeull, 67,
         0x4c33558197c1d5edull},
        {"print_tokens2", 1682, true, 131072, 10, 0xafac2cdd19af6c88ull,
         44, 0x76b11f6faa59906cull},
        {"schedule", 3392, false, 29629, 13, 0x86d17ba8f96fe145ull, 52,
         0x342b1deed3fbfd9aull},
        {"schedule2", 3994, false, 34820, 15, 0x944769e457221a8cull, 58,
         0x760c7e12284a9002ull},
        {"pe_gzip", 1625, false, 10297, 15, 0x5a67690501a6c519ull, 39,
         0x4787dcf716f0b010ull},
        {"pe_vpr", 4096, true, 114920, 12, 0xdcae1642b3d5443bull, 40,
         0x17224e1caded10b8ull},
        {"pe_parser", 3362, false, 45237, 12, 0xc0283a941f60c258ull, 57,
         0xa1d562e95088e417ull},
    };
    ASSERT_EQ(std::size(pins), workloads::workloadNames().size());
    const QuietScope quietScope;
    for (const auto &pin : pins) {
        const auto &w = workloads::getWorkload(pin.name);
        auto program = minic::compile(w.source, pin.name);
        analysis::Cfg cfg(program);
        auto set = analysis::enumeratePrimePaths(cfg);
        EXPECT_EQ(set.paths.size(), pin.paths) << pin.name;
        EXPECT_EQ(set.truncated, pin.truncated) << pin.name;
        EXPECT_EQ(set.generated, pin.generated) << pin.name;
        EXPECT_EQ(set.roots, pin.roots) << pin.name;
        EXPECT_EQ(pathDigest(set), pin.pathDigest) << pin.name;
        const auto cover = analysis::computePathCover(cfg, set);
        EXPECT_EQ(cover.size(), pin.cover) << pin.name;
        EXPECT_EQ(coverDigest(cover), pin.coverDigest) << pin.name;
    }
}

TEST(PrimePaths, CapTruncatesLoudlyAndKeepsAPrefix)
{
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, "schedule");
    analysis::Cfg cfg(program);

    analysis::PrimePathOptions opts;
    opts.maxPaths = 1;
    auto capped = analysis::enumeratePrimePaths(cfg, opts);
    EXPECT_TRUE(capped.truncated);
    EXPECT_LE(capped.paths.size(), 1u);

    // The cover of a truncated set still only picks kept ids.
    auto cover = analysis::computePathCover(cfg, capped);
    for (uint32_t id : cover)
        EXPECT_LT(id, capped.paths.size());
}

// ---------------------------------------------------------------------
// The original quadratic enumeration and cover as an oracle: the
// library's suffix-lookup filter and lazy greedy cover must return
// exactly what they return, field for field.

void
expectMatchesReference(const analysis::Cfg &cfg,
                       const analysis::PrimePathOptions &opts,
                       const std::string &what)
{
    const auto want = analysis::reference::enumeratePrimePaths(cfg, opts);
    const auto got = analysis::enumeratePrimePaths(cfg, opts);
    EXPECT_EQ(got.truncated, want.truncated) << what;
    EXPECT_EQ(got.generated, want.generated) << what;
    EXPECT_EQ(got.roots, want.roots) << what;
    ASSERT_EQ(got.paths.size(), want.paths.size()) << what;
    for (size_t i = 0; i < want.paths.size(); ++i) {
        ASSERT_EQ(got.paths[i].startBlock, want.paths[i].startBlock)
            << what << " path " << i;
        ASSERT_EQ(got.paths[i].edges, want.paths[i].edges)
            << what << " path " << i;
    }
    EXPECT_EQ(analysis::computePathCover(cfg, got),
              analysis::reference::computePathCover(cfg, want))
        << what;
}

TEST(PrimePathOracle, WorkloadsMatchUnderEveryCap)
{
    // Both caps over a range that cuts each workload's enumeration at
    // many depths, including inside a candidate's successor loop.  The
    // default caps are pinned by WorkloadCountsArePinned instead: the
    // quadratic reference takes over a second on them.
    const QuietScope quietScope;
    for (const auto &name : workloads::workloadNames()) {
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, name);
        analysis::Cfg cfg(program);
        for (uint32_t maxPaths : {1u, 7u, 64u, 500u, 4096u}) {
            for (uint64_t maxGenerated :
                 {1ull, 3ull, 50ull, 333ull, 1000ull, 4097ull, 20000ull}) {
                analysis::PrimePathOptions opts;
                opts.maxPaths = maxPaths;
                opts.maxGenerated = maxGenerated;
                expectMatchesReference(
                    cfg, opts,
                    name + " maxPaths " + std::to_string(maxPaths) +
                        " maxGenerated " + std::to_string(maxGenerated));
            }
        }
    }
}

TEST(PrimePathOracle, GeneratedProgramsMatchUnderManyBudgets)
{
    // Random single-function programs at the default caps, then under
    // generated-path budgets that cut the enumeration at many points:
    // every budget for the small ones, so the budget trips inside
    // every candidate once, and 16 spread budgets for the rest.
    const QuietScope quietScope;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        const std::string name = "pp_gen" + std::to_string(seed);
        auto program =
            isa::assemble(test::generateProgram(seed, 2, 5), name);
        analysis::Cfg cfg(program);
        expectMatchesReference(cfg, {}, name);
        const uint64_t full = analysis::enumeratePrimePaths(cfg).generated;
        const uint64_t step = full <= 500 ? 1 : full / 16;
        for (uint64_t budget = 1; budget <= full; budget += step) {
            analysis::PrimePathOptions opts;
            opts.maxGenerated = budget;
            expectMatchesReference(cfg, opts,
                                   name + " budget " +
                                       std::to_string(budget));
        }
    }
}

// A two-block loop entered through A, where A's first successor (by
// target pc) leaves the loop: E -> A, A -> {T, B}, B -> A.
const char *cutLoopSrc = R"(
    jmp a
t:
    sys exit
a:
    sys read_int r8
    beq r8, r0, t
    jmp a
)";

TEST(PrimePathOracle, BudgetCutCandidateIsFilteredLikeAnyFinal)
{
    // FIFO order processes [E] [T] [A] [B] [E,A] [A,T] [A,B] [B,A]; at
    // a budget of 10 generated paths the budget trips on [B,A]'s first
    // successor T, so [B,A] is finalized while it can still grow.  It
    // is a suffix of the cycle [A,B,A] and must be dropped like any
    // other final.  Every other budget is checked against the
    // reference as well.
    auto program = isa::assemble(cutLoopSrc, "cutloop");
    analysis::Cfg cfg(program);
    const uint32_t bA = cfg.blockOf(2);
    const uint32_t bB = cfg.blockOf(4);
    ASSERT_EQ(cfg.block(bA).succs.size(), 2u);

    const QuietScope quietScope;
    analysis::PrimePathOptions opts;
    opts.maxGenerated = 10;
    const auto set = analysis::enumeratePrimePaths(cfg, opts);
    EXPECT_TRUE(set.truncated);
    EXPECT_EQ(set.generated, 10u);
    for (const auto &p : set.paths) {
        EXPECT_NE(blockSeq(cfg, p), (std::vector<uint32_t>{bB, bA}))
            << "the budget-cut [B,A] is a suffix of [A,B,A]";
    }
    const uint64_t full = analysis::enumeratePrimePaths(cfg).generated;
    for (uint64_t budget = 1; budget <= full + 1; ++budget) {
        opts.maxGenerated = budget;
        expectMatchesReference(cfg, opts,
                               "budget " + std::to_string(budget));
    }
}


// ---------------------------------------------------------------------
// Runtime fold: branch-decision streams into completion bits.

core::RunResult
runTraced(const isa::Program &program, std::vector<int32_t> input,
          uint32_t traceCap = 1u << 18,
          core::PeMode mode = core::PeMode::Off)
{
    auto cfg = core::PeConfig::forMode(mode);
    cfg.recordEdgeTrace = true;
    cfg.edgeTraceCap = traceCap;
    core::PathExpanderEngine engine(program, cfg, nullptr);
    return engine.run(input);
}

void
foldRun(coverage::PathCoverage &tracker, const core::RunResult &res)
{
    tracker.fold(res.branchTrace, res.branchTraceTruncated,
                 res.stopCause == core::RunStopCause::Completed);
}

TEST(PathCoverage, FoldCompletesExactlyTheWalkedPaths)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);
    ASSERT_EQ(set.paths.size(), 2u);

    // Map ids to arms rather than hardcoding the canonical order.
    const uint32_t bThen = cfg.blockOf(2);
    uint32_t thenId = analysis::noBlock, elseId = analysis::noBlock;
    for (uint32_t i = 0; i < set.paths.size(); ++i) {
        if (blockSeq(cfg, set.paths[i])[1] == bThen)
            thenId = i;
        else
            elseId = i;
    }
    ASSERT_NE(thenId, analysis::noBlock);
    ASSERT_NE(elseId, analysis::noBlock);

    coverage::PathCoverage tracker(program);
    ASSERT_EQ(tracker.numPaths(), 2u);
    EXPECT_EQ(tracker.completedCount(), 0u);

    // Input 1: beq r8, r0 not taken, the then-arm runs.
    foldRun(tracker, runTraced(program, {1}));
    EXPECT_EQ(tracker.foldedRuns(), 1u);
    EXPECT_TRUE(tracker.completed(thenId));
    EXPECT_FALSE(tracker.completed(elseId));
    EXPECT_EQ(tracker.completedCount(), 1u);

    // Input 0: the else-arm; now everything is complete.
    foldRun(tracker, runTraced(program, {0}));
    EXPECT_TRUE(tracker.completed(elseId));
    EXPECT_EQ(tracker.completedCount(), 2u);
    EXPECT_EQ(tracker.coverCompleted(), tracker.coverSize());
    EXPECT_EQ(tracker.desyncRuns(), 0u);
    EXPECT_EQ(tracker.truncatedRuns(), 0u);
}

TEST(PathCoverage, TruncatedTracesAreCountedNotTrusted)
{
    auto program = isa::assemble(loopSrc, "selfloop");
    coverage::PathCoverage tracker(program);

    // Three loop iterations under a 2-event trace cap: the recording
    // stops mid-run, the fold absorbs the prefix and counts the
    // truncation instead of desyncing or inventing completions.
    foldRun(tracker, runTraced(program, {1, 1, 0}, /*traceCap=*/2));
    EXPECT_EQ(tracker.foldedRuns(), 1u);
    EXPECT_EQ(tracker.truncatedRuns(), 1u);
    EXPECT_EQ(tracker.desyncRuns(), 0u);
}

TEST(PathCoverage, ShardedMergeEqualsSerialAccumulation)
{
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, "schedule");

    std::vector<core::RunResult> runs;
    for (const auto &input : w.benignInputs)
        runs.push_back(runTraced(program, input));

    // Serial: one tracker folds every run in order.
    coverage::PathCoverage serial(program);
    for (const auto &r : runs)
        foldRun(serial, r);
    EXPECT_GT(serial.completedCount(), 0u);

    // Sharded: round-robin the same runs over three trackers, then
    // merge in shard order — the fleet coordinator's exact shape.
    coverage::PathCoverage shards[] = {
        coverage::PathCoverage(program),
        coverage::PathCoverage(program),
        coverage::PathCoverage(program),
    };
    for (size_t i = 0; i < runs.size(); ++i)
        foldRun(shards[i % 3], runs[i]);

    coverage::PathCoverage merged(program);
    for (const auto &shard : shards)
        merged.merge(shard);
    EXPECT_EQ(merged.words(), serial.words());
    EXPECT_EQ(merged.digest(), serial.digest());
    EXPECT_EQ(merged.completedCount(), serial.completedCount());
    EXPECT_EQ(merged.coverCompleted(), serial.coverCompleted());
    EXPECT_EQ(merged.foldedRuns(), serial.foldedRuns());

    // The raw-word variant (fleet frames) lands on the same bits.
    coverage::PathCoverage viaWords(program);
    for (const auto &shard : shards)
        viaWords.mergeWords(shard.words());
    EXPECT_EQ(viaWords.words(), serial.words());
    EXPECT_EQ(viaWords.digest(), serial.digest());
}

TEST(PathCoverage, WireStateRoundTripsAndRefusesForeignPrograms)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    coverage::PathCoverage tracker(program);
    foldRun(tracker, runTraced(program, {1}));

    wire::Encoder enc;
    tracker.encodeState(enc);
    const std::string bytes(enc.buffer().data(), enc.size());

    coverage::PathCoverage restored(program);
    wire::Decoder dec(bytes);
    restored.decodeState(dec);
    EXPECT_EQ(restored.words(), tracker.words());
    EXPECT_EQ(restored.digest(), tracker.digest());
    EXPECT_EQ(restored.foldedRuns(), tracker.foldedRuns());

    // A tracker over a different program refuses the state at word
    // granularity (a finer mismatch is caught upstream: explorer and
    // fleet checkpoints validate the program fingerprint and config
    // hash before any tracker state is ever decoded).
    const auto &w = workloads::getWorkload("schedule");
    auto other = minic::compile(w.source, "schedule");
    coverage::PathCoverage foreign(other);
    ASSERT_NE((foreign.numPaths() + 63) / 64,
              (tracker.numPaths() + 63) / 64);
    wire::Decoder dec2(bytes);
    EXPECT_THROW(foreign.decodeState(dec2), wire::WireError);
}

// ---------------------------------------------------------------------
// Explorer integration: the path objective must keep the explorer's
// checkpoint/resume identity, and a policy-word mismatch must refuse.

struct TempPath
{
    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

explore::ExploreOptions
pathObjectiveOptions(uint64_t maxRuns, uint64_t seed = 0x1234)
{
    explore::ExploreOptions opts;
    opts.config = core::PeConfig::forMode(core::PeMode::Off);
    opts.config.recordEdgeTrace = true;
    opts.pathObjective = true;
    opts.policy = explore::SchedulePolicy::RareEdgeWeighted;
    opts.budget.maxRuns = maxRuns;
    opts.batchSize = 8;
    opts.seed = seed;
    return opts;
}

std::vector<std::vector<int32_t>>
scheduleSeeds(const workloads::Workload &workload)
{
    return {workload.benignInputs.begin(),
            workload.benignInputs.begin() + 3};
}

TEST(PathObjective, CheckpointResumeIsBitIdentical)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_pathobj_resume_test.ckpt");

    explore::Explorer full(program, scheduleSeeds(workload),
                           pathObjectiveOptions(59));
    auto fullRes = full.run();
    EXPECT_EQ(fullRes.stop, explore::ExploreStop::RunBudget);
    ASSERT_NE(full.pathTracker(), nullptr);
    EXPECT_GT(full.pathTracker()->completedCount(), 0u);

    {
        auto opts = pathObjectiveOptions(27);
        opts.checkpointPath = ckpt.path;
        explore::Explorer head(program, scheduleSeeds(workload), opts);
        EXPECT_EQ(head.run().runs, 27u);
    }

    auto opts = pathObjectiveOptions(59);
    opts.resumeFrom = ckpt.path;
    explore::Explorer tail(program, scheduleSeeds(workload), opts);
    auto tailRes = tail.run();

    // The general exploration state continues bit-identically...
    EXPECT_EQ(fullRes.runs, tailRes.runs);
    EXPECT_EQ(fullRes.instructions, tailRes.instructions);
    EXPECT_EQ(full.corpus().frontier().takenWords(),
              tail.corpus().frontier().takenWords());
    EXPECT_EQ(full.corpus().frontier().ntWords(),
              tail.corpus().frontier().ntWords());
    ASSERT_EQ(full.corpus().size(), tail.corpus().size());
    for (size_t i = 0; i < full.corpus().size(); ++i) {
        EXPECT_EQ(full.corpus().entries()[i].input,
                  tail.corpus().entries()[i].input);
    }
    // ...and so does the path tracker itself.
    ASSERT_NE(tail.pathTracker(), nullptr);
    EXPECT_EQ(tail.pathTracker()->words(),
              full.pathTracker()->words());
    EXPECT_EQ(tail.pathTracker()->digest(),
              full.pathTracker()->digest());
}

TEST(PathObjective, PolicyWordMismatchRefusesTheCheckpoint)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_pathobj_mismatch_test.ckpt");

    {
        auto opts = pathObjectiveOptions(27);
        opts.checkpointPath = ckpt.path;
        explore::Explorer e(program, scheduleSeeds(workload), opts);
        e.run();
    }

    // Same config hash (trace recording still on) but the objective
    // off: the schedule the checkpoint was built under differs, so
    // the policy word must refuse the resume.
    auto opts = pathObjectiveOptions(59);
    opts.pathObjective = false;
    opts.resumeFrom = ckpt.path;
    explore::Explorer e(program, scheduleSeeds(workload), opts);
    EXPECT_THROW(e.run(), FatalError);
}

// ---------------------------------------------------------------------
// The (path, pos) match-set fold as an oracle (pathcov_reference.hh):
// the automaton must leave the same completion words, counters and
// encoded state after every fold, and the reference's overflow
// counter, whose slot the library fills with 0, must stay 0.

/** One fold's input: a branch trace and its two flags. */
struct FoldInput
{
    std::vector<uint32_t> trace;
    bool truncated = false;
    bool clean = true;
};

FoldInput
foldInputOf(const core::RunResult &res)
{
    return {res.branchTrace, res.branchTraceTruncated,
            res.stopCause == core::RunStopCause::Completed};
}

std::string
stateBytes(const auto &tracker)
{
    wire::Encoder enc;
    tracker.encodeState(enc);
    return std::string(enc.buffer().data(), enc.size());
}

/** The library tracker and the reference fold, fed in lockstep. */
struct FoldPair
{
    explicit FoldPair(const isa::Program &program)
        : got(program), want(program)
    {
    }

    FoldPair(const analysis::Cfg &cfg, const analysis::PrimePathSet &set)
        : got(cfg, set, {}), want(cfg, set)
    {
    }

    void fold(const FoldInput &in, const std::string &what)
    {
        got.fold(in.trace, in.truncated, in.clean);
        want.fold(in.trace, in.truncated, in.clean);
        EXPECT_EQ(got.words(), want.words()) << what;
        EXPECT_EQ(got.foldedRuns(), want.foldedRuns()) << what;
        EXPECT_EQ(got.truncatedRuns(), want.truncatedRuns()) << what;
        EXPECT_EQ(got.desyncRuns(), want.desyncRuns()) << what;
        EXPECT_EQ(want.overflowedMatches(), 0u) << what;
        EXPECT_EQ(stateBytes(got), stateBytes(want)) << what;
    }

    coverage::PathCoverage got;
    coverage::reference::PathCoverage want;
};

/**
 * Fold @p inputs in order, then a half-length truncated copy and an
 * unclean copy of every seventh one.
 */
void
foldWithVariants(FoldPair &pair, const std::vector<FoldInput> &inputs,
                 const std::string &what)
{
    for (size_t k = 0; k < inputs.size(); ++k)
        pair.fold(inputs[k], what + " trace " + std::to_string(k));
    for (size_t k = 0; k < inputs.size(); k += 7) {
        FoldInput cut = inputs[k];
        cut.trace.resize(cut.trace.size() / 2);
        cut.truncated = true;
        pair.fold(cut, what + " trace " + std::to_string(k) + " cut");
        FoldInput unclean = inputs[k];
        unclean.clean = false;
        pair.fold(unclean,
                  what + " trace " + std::to_string(k) + " unclean");
    }
}

/** Parameterized by workload name, so ctest runs them in parallel. */
class PathCoverageOracle : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PathCoverageOracle, WorkloadTracesMatchAfterEveryFold)
{
    // The workload's benign inputs in Off and Standard, then every run
    // of a fixed-seed path-objective explorer session.
    const QuietScope quietScope;
    const std::string &name = GetParam();
    const auto &w = workloads::getWorkload(name);
    auto program = minic::compile(w.source, name);
    std::vector<FoldInput> inputs;
    for (core::PeMode mode : {core::PeMode::Off, core::PeMode::Standard}) {
        for (const auto &input : w.benignInputs)
            inputs.push_back(
                foldInputOf(runTraced(program, input, 1u << 18, mode)));
    }
    auto opts = pathObjectiveOptions(40, 29);
    opts.threads = 1;
    opts.onRun = [&](const core::RunResult &r) {
        inputs.push_back(foldInputOf(r));
    };
    const std::vector<std::vector<int32_t>> seeds(
        w.benignInputs.begin(),
        w.benignInputs.begin() +
            std::min<size_t>(3, w.benignInputs.size()));
    explore::Explorer(program, seeds, opts).run();

    FoldPair pair(program);
    foldWithVariants(pair, inputs, name);
    EXPECT_GT(pair.got.completedCount(), 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PathCoverageOracle,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST_F(PathCoverageOracle, GeneratedProgramsMatchAfterEveryFold)
{
    // Random programs whose divisions may fault: clean and crashed
    // runs, in Off and Standard.
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        const std::string name = "pc_gen" + std::to_string(seed);
        auto program =
            isa::assemble(test::generateProgram(seed, 2, 5), name);
        std::vector<FoldInput> inputs;
        for (core::PeMode mode : {core::PeMode::Off, core::PeMode::Standard})
            inputs.push_back(
                foldInputOf(runTraced(program, {}, 1u << 18, mode)));
        FoldPair pair(program);
        foldWithVariants(pair, inputs, name);
    }
}

TEST_F(PathCoverageOracle, NestedAndRepeatedPathsMatch)
{
    // No enumerated prime path sits inside another, so there every
    // output chain is one path long.  A hand-built set whose paths nest
    // and repeat takes the chains through failure links and shared
    // terminals: each prime path, its prefix and its suffix one edge
    // shorter, and every tenth path and its start block twice.
    const auto &w = workloads::getWorkload("print_tokens");
    auto program = minic::compile(w.source, "print_tokens");
    analysis::Cfg cfg(program);
    const auto prime = analysis::enumeratePrimePaths(cfg);
    analysis::PrimePathSet set;
    for (size_t i = 0; i < prime.paths.size(); ++i) {
        const analysis::PrimePath &p = prime.paths[i];
        set.paths.push_back(p);
        if (!p.edges.empty()) {
            set.paths.push_back(
                {p.startBlock, {p.edges.begin(), p.edges.end() - 1}});
            set.paths.push_back({cfg.edges()[p.edges[0]].to,
                                 {p.edges.begin() + 1, p.edges.end()}});
        }
        if (i % 10 == 0) {
            set.paths.push_back(p);
            set.paths.push_back({p.startBlock, {}});
        }
    }
    // Below the reference's match cap, which then cannot overflow.
    ASSERT_LT(set.paths.size(),
              coverage::reference::PathCoverage::kMaxActiveMatches);

    FoldPair pair(cfg, set);
    std::vector<FoldInput> inputs;
    for (const auto &input : w.benignInputs)
        inputs.push_back(foldInputOf(runTraced(program, input)));
    foldWithVariants(pair, inputs, "nested print_tokens");
    EXPECT_GT(pair.got.completedCount(), 0u);
}

// ---------------------------------------------------------------------
// The fold's stop rules, one hand-built program each, checked against
// the oracle and against the counters and completions they must leave.

/** The id of @p program's prime path over exactly @p blockPcs. */
uint32_t
pathIdAt(const isa::Program &program, std::vector<uint32_t> blockPcs)
{
    analysis::Cfg cfg(program);
    const auto set = analysis::enumeratePrimePaths(cfg);
    std::vector<uint32_t> blocks;
    for (uint32_t pc : blockPcs)
        blocks.push_back(cfg.blockOf(pc));
    for (uint32_t id = 0; id < set.paths.size(); ++id) {
        if (blockSeq(cfg, set.paths[id]) == blocks)
            return id;
    }
    ADD_FAILURE() << "no prime path over the given blocks";
    return 0;
}

/** Branch event for the branch at @p pc. */
uint32_t
event(uint32_t pc, bool taken)
{
    return (pc << 1) | (taken ? 1u : 0u);
}

TEST(PathCoverageStop, EventForAnotherPcDesyncs)
{
    // The loop's bne sits at pc 1: one taken event closes the cycle,
    // then an event naming pc 2 stops the fold there.
    auto program = isa::assemble(loopSrc, "selfloop");
    FoldPair pair(program);
    pair.fold({{event(1, true), event(2, false)}, false, true},
              "wrong pc");
    EXPECT_EQ(pair.got.desyncRuns(), 1u);
    EXPECT_TRUE(pair.got.completed(pathIdAt(program, {0, 0})));
    EXPECT_EQ(pair.got.completedCount(), 1u);
}

TEST(PathCoverageStop, ReturnWithNoOpenFrameDesyncs)
{
    auto program = isa::assemble(R"(
    sys read_int r8
    jr ra
)",
                                 "toplevel_jr");
    FoldPair pair(program);
    pair.fold({{}, false, true}, "jr at top level");
    EXPECT_EQ(pair.got.desyncRuns(), 1u);
    // The block's one-block path completed on entry, before the jr.
    EXPECT_TRUE(pair.got.completed(pathIdAt(program, {0})));
}

TEST(PathCoverageStop, RecursionPastTheDepthCapDesyncs)
{
    auto program = isa::assemble(R"(
    jal ra, f
    sys exit
f:
    jal ra, f
    jr ra
)",
                                 "recurse");
    program.funcs.push_back(isa::FuncInfo{"f", 2, 4});
    FoldPair pair(program);
    pair.fold({{}, false, true}, "unbounded recursion");
    EXPECT_EQ(pair.got.desyncRuns(), 1u);
    EXPECT_EQ(pair.got.completedCount(), 0u);
}

TEST(PathCoverageStop, BranchFreeLoopHitsTheStepBound)
{
    auto program = isa::assemble(R"(
spin:
    addi r8, r8, 1
    jmp spin
)",
                                 "spin");
    const uint32_t cycle = pathIdAt(program, {0, 0});
    FoldPair unclean(program);
    unclean.fold({{}, false, false}, "spin unclean");
    EXPECT_EQ(unclean.got.desyncRuns(), 0u);
    EXPECT_EQ(unclean.got.completedCount(), 0u);

    // A clean exit walks the tail, which never ends: the step bound
    // stops it, after the cycle completed.
    FoldPair clean(program);
    clean.fold({{}, false, true}, "spin clean");
    EXPECT_EQ(clean.got.desyncRuns(), 1u);
    EXPECT_TRUE(clean.got.completed(cycle));
}

TEST(PathCoverageStop, UncleanTailPastTheLastBranchCompletesNothing)
{
    // The beq at pc 1 falls through to the then-arm, whose jmp to the
    // join is straight-line tail past the last recorded branch.
    auto program = isa::assemble(diamondSrc, "diamond");
    const uint32_t thenArm = pathIdAt(program, {0, 2, 5});
    FoldPair pair(program);
    pair.fold({{event(1, false)}, false, false}, "unclean tail");
    EXPECT_EQ(pair.got.desyncRuns(), 0u);
    EXPECT_EQ(pair.got.completedCount(), 0u);
    pair.fold({{event(1, false)}, false, true}, "clean tail");
    EXPECT_TRUE(pair.got.completed(thenArm));
    EXPECT_EQ(pair.got.completedCount(), 1u);
}

TEST(PathCoverageStop, OneBlockLeafCompletesOnEntry)
{
    auto program = isa::assemble(R"(
    jal ra, leaf
    sys exit
leaf:
    jr ra
)",
                                 "leaf");
    // The assembler declares one function over the whole image; the
    // leaf's own declaration makes it an enumeration root.
    program.funcs.push_back(isa::FuncInfo{"leaf", 2, 3});
    const uint32_t leaf = pathIdAt(program, {2});
    const uint32_t caller = pathIdAt(program, {0, 1});
    FoldPair pair(program);
    pair.fold({{}, false, true}, "leaf call");
    EXPECT_EQ(pair.got.desyncRuns(), 0u);
    EXPECT_TRUE(pair.got.completed(leaf));
    EXPECT_TRUE(pair.got.completed(caller));
    EXPECT_EQ(pair.got.completedCount(), 2u);
}

} // namespace
