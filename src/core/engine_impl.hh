/**
 * @file
 * Shared internal state and helpers of the PathExpander engine,
 * used by both the inline (Off/Standard) and the CMP drivers.
 *
 * This is an implementation header (included only by engine.cc and
 * cmp.cc), not part of the public API.
 */

#ifndef PE_CORE_ENGINE_IMPL_HH
#define PE_CORE_ENGINE_IMPL_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/branch/btb.hh"
#include "src/core/engine.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/main_memory.hh"
#include "src/sim/interpreter.hh"
#include "src/support/rng.hh"

namespace pe::core
{

/** All per-run mutable state. */
struct PathExpanderEngine::RunState
{
    RunState(const isa::Program &program, const PeConfig &config)
        : memory(config.layout.memWords),
          btb(config.btbParams),
          hierarchy(config.mode == PeMode::Cmp ? config.numCores : 1,
                    config.timing.mem),
          result(program),
          sinceCounterReset(0),
          rng(config.randomSpawnSeed)
    {}

    mem::MainMemory memory;
    branch::Btb btb;
    mem::MemHierarchy hierarchy;
    detect::ObjectRegistry registry;    //!< primary-path object view
    RunResult result;
    sim::Core primary;
    uint64_t sinceCounterReset;
    Rng rng;                            //!< random spawn factor

    /**
     * Self-pruning (cfg.selfPrune): one flag per instruction, set on
     * the branches maybePromote promoted, which the block tier then
     * retires with no bookkeeping, and the PCs of those branches, so
     * the next counter reset demotes them in O(promoted).  Allocated
     * only when pruning engages; promotion state is per run (counter
     * values and coverage are), so it cannot live on the engine.
     */
    std::vector<uint8_t> promoted;
    std::vector<uint32_t> promotedPcs;

    /** Watchdog cancel token; null for the vast majority of runs. */
    const std::atomic<bool> *cancel = nullptr;
};

namespace engine_detail
{

/**
 * Watchdog poll, placed once per execution-loop dispatch: a null
 * check when no deadline is armed (the common case), one relaxed
 * atomic load when one is.
 */
inline bool
cancelRequested(const PathExpanderEngine::RunState &state)
{
    return state.cancel &&
           state.cancel->load(std::memory_order_relaxed);
}

/**
 * Instruction cap for one runBlock dispatch.  Without a watchdog a
 * block may run to the caller's full remaining budget; with one, a
 * single dispatch could otherwise retire hundreds of millions of
 * instructions (branches run in-block) before the next poll.
 * Chunking is bit-identical — the engine loops re-enter the block
 * path at the updated pc and all counts accumulate — it only bounds
 * the poll interval, to well under a millisecond.
 */
inline uint64_t
blockCap(const PathExpanderEngine::RunState &state, uint64_t remaining)
{
    constexpr uint64_t pollChunk = uint64_t{1} << 16;
    return state.cancel ? std::min(remaining, pollChunk) : remaining;
}

/** True when the software (PIN) cost model applies to this run. */
inline bool
softwareCosts(const PeConfig &cfg)
{
    return cfg.costModel == CostModelKind::Software &&
           cfg.mode != PeMode::Off;
}

/**
 * Per-instruction cycle charge the cost model adds to an
 * instruction's base cost: the software model's JIT dilation, zero
 * under the hardware model.  Callers pass it as runBlock's
 * perInstExtra, so BlockOut::cycles is exactly what the per-step loop
 * accumulates through chargeStep for the same instructions, and the
 * in-block clock (memory access times, the CMP cycle budget) sees it.
 */
inline uint64_t
blockDilation(const PeConfig &cfg)
{
    return softwareCosts(cfg) ? cfg.swCosts.perInstructionDilation : 0;
}

/**
 * Instruction budget of one taken-path bulk dispatch: what is left of
 * the instruction limit, clipped at the next counter reset.  A block
 * therefore never runs across a reset, so advanceResetClock lands
 * every reset on the instruction where the per-step loop resets, every
 * branch a block retires reads and bumps the counters the per-step
 * loop would, and promoted branches run only in the counter epoch that
 * promoted them.
 */
inline uint64_t
takenBudget(const PeConfig &cfg, const PathExpanderEngine::RunState &state)
{
    return std::min(
        cfg.maxTakenInstructions - state.result.takenInstructions,
        cfg.counterResetInterval - state.sinceCounterReset);
}

/**
 * Advance the counter-reset clock by @p n retired taken-path
 * instructions (CounterResetInterval, Section 4.2).  At the boundary
 * zero the BTB exercise counters and demote every promoted branch: the
 * counters its promotion found at the cap start over, so its
 * bookkeeping has teeth again until it re-saturates.  With
 * PathExpander off nothing touches the BTB, so a reset there changes
 * nothing.
 */
inline void
advanceResetClock(const PeConfig &cfg, PathExpanderEngine::RunState &state,
                  uint64_t n)
{
    state.sinceCounterReset += n;
    if (state.sinceCounterReset < cfg.counterResetInterval)
        return;
    state.btb.resetCounters();
    state.sinceCounterReset = 0;
    for (uint32_t pc : state.promotedPcs)
        state.promoted[pc] = 0;
    state.promotedPcs.clear();
}

/**
 * The block tier's memory port for a detector-free run on @p coreId,
 * whose block starts at cycle @p now: chargeStep's memory terms for
 * the same accesses.  An NT-Path's port (@p inNt) bounds its write
 * set by the L1 capacity and charges the software model's NT-store
 * log cost.
 */
inline sim::MemPort
memPort(const PeConfig &cfg, PathExpanderEngine::RunState &state,
        mem::MemCtx &ctx, int coreId, uint64_t now, bool inNt)
{
    return {ctx,
            state.hierarchy,
            coreId,
            now,
            inNt ? state.hierarchy.l1LineCapacity() : SIZE_MAX,
            inNt && softwareCosts(cfg) ? cfg.swCosts.ntWriteLogCost : 0};
}

/**
 * The block tier's branch port for the taken path: the coverage bit
 * alone with PathExpander off and no edge trace; otherwise the trace
 * when recorded and, under PathExpander, the BTB, so only a branch
 * that would spawn surfaces.  Pass it only where takenBranchesInBlock
 * holds.
 */
inline sim::BranchPort
takenBranchPort(const PeConfig &cfg, PathExpanderEngine::RunState &state)
{
    const bool peActive = cfg.mode != PeMode::Off;
    sim::BranchPort port;
    port.kind = peActive || cfg.recordEdgeTrace
                    ? sim::BranchPort::Kind::Taken
                    : sim::BranchPort::Kind::Coverage;
    port.coverage = &state.result.coverage;
    if (peActive) {
        port.btb = &state.btb;
        port.threshold = cfg.ntPathCounterThreshold;
    }
    if (cfg.recordEdgeTrace) {
        port.trace = &state.result.branchTrace;
        port.traceTruncated = &state.result.branchTraceTruncated;
        port.traceCap = cfg.edgeTraceCap;
    }
    port.branchExtra =
        softwareCosts(cfg) ? cfg.swCosts.branchAnalysisCost : 0;
    return port;
}

/**
 * True when taken-path branches may retire in the block tier.  Not
 * under PathExpander with the random spawn factor: there a branch
 * whose count is at the threshold still draws from the run's RNG.
 */
inline bool
takenBranchesInBlock(const PeConfig &cfg)
{
    return cfg.mode == PeMode::Off || !(cfg.randomSpawnFraction > 0.0);
}

/**
 * The block tier's branch port for an NT-Path: the NT coverage bit.
 * Pass it only without followNonTakenInNt, whose redirect reads and
 * bumps BTB counters at every NT-Path branch.
 */
inline sim::BranchPort
ntBranchPort(const PeConfig &cfg, PathExpanderEngine::RunState &state)
{
    sim::BranchPort port;
    port.kind = sim::BranchPort::Kind::Nt;
    port.coverage = &state.result.coverage;
    port.branchExtra =
        softwareCosts(cfg) ? cfg.swCosts.branchAnalysisCost : 0;
    return port;
}

/**
 * Cycles consumed by one executed step on @p coreId at time @p now:
 * base opcode cost, memory-hierarchy latency, detector check cost and
 * (when applicable) the software-implementation instrumentation cost.
 */
uint64_t chargeStep(const isa::Program &program, const PeConfig &cfg,
                    PathExpanderEngine::RunState &state,
                    detect::Detector *detector, int coreId,
                    const sim::StepResult &res, uint64_t now, bool inNt);

/**
 * Route one step's events into the object registry view @p registry
 * and the installed @p detector (reports go to the monitor area).
 */
void routeEvents(const isa::Program &program, const PeConfig &cfg,
                 PathExpanderEngine::RunState &state,
                 detect::Detector *detector,
                 detect::ObjectRegistry &registry, mem::MemCtx &ctx,
                 const sim::StepResult &res, bool fromNt,
                 uint32_t ntSpawnPc);

/**
 * NT-Path selection (Section 4.2 plus the random-factor extension):
 * spawn when the non-taken edge's exercise count is below the
 * threshold, or — with randomSpawnFraction > 0 — occasionally even
 * when it is not.  The tagged-checking-function exclusion is a
 * per-PC flag folded into the decoded program (no range scan).
 */
inline bool
shouldSpawn(const PeConfig &cfg, PathExpanderEngine::RunState &state,
            const sim::DecodedProgram &decoded, uint32_t pc, bool ntDir)
{
    if (decoded.noSpawn(pc))
        return false;
    // Static spawn pre-filter: edges marked doomed at construction
    // (immediate-syscall NT continuations) are never worth a spawn.
    // Flags are only ever set when cfg.spawnPreFilter is on.
    if (decoded.doomedEdge(pc, ntDir))
        return false;
    if (state.btb.count(pc, ntDir) < cfg.ntPathCounterThreshold)
        return true;
    return cfg.randomSpawnFraction > 0.0 &&
           state.rng.nextDouble() < cfg.randomSpawnFraction;
}

/**
 * The runtime saturation predicate (self-pruning, cfg.selfPrune):
 * after the per-step path has fully bookkept a resolved branch, set
 * its promoted flag, which lets the block tier run it, when every
 * piece of that bookkeeping has provably become a no-op:
 *
 *  - statically eligible: its BTB set can never evict, so skipping
 *    the LRU stamp cannot change a victim (analysis/regions.hh);
 *  - both taken-path coverage bits recorded: further onTakenEdge
 *    calls are idempotent;
 *  - per direction, the spawn decision is frozen false: the edge is
 *    no-spawn-tagged or statically doomed (shouldSpawn returns
 *    before reading the counter — the skipped increment is then
 *    unobservable until the reset zeroes it anyway), or its counter
 *    sits at the saturation cap (increments are value no-ops and,
 *    with threshold <= cap enforced by the caller's activation gate,
 *    count < threshold can never hold again this epoch).
 *
 * The next counter reset demotes every promotion (advanceResetClock)
 * and the branch falls back to the per-step path until it
 * re-saturates.
 */
inline void
maybePromote(PathExpanderEngine::RunState &state,
             const sim::DecodedProgram &decoded, uint32_t pc)
{
    if (!decoded.pruneEligible(pc) || state.promoted[pc])
        return;
    const coverage::BranchCoverage &cov = state.result.coverage;
    if (!cov.takenEdgeCovered(pc, false) ||
        !cov.takenEdgeCovered(pc, true)) {
        return;
    }
    const bool noSpawn = decoded.noSpawn(pc);
    for (bool dir : {false, true}) {
        if (noSpawn || decoded.doomedEdge(pc, dir) ||
            state.btb.atCap(pc, dir)) {
            continue;
        }
        return;     // this direction's spawn check still has teeth
    }
    state.promoted[pc] = 1;
    state.promotedPcs.push_back(pc);
}

/** Direction and entry PC of the non-taken edge of a resolved branch. */
inline bool
ntEdgeDir(const sim::StepResult &res)
{
    return !res.branchTaken;
}

inline uint32_t
ntEdgeTarget(const sim::StepResult &res)
{
    return res.branchTaken ? res.branchFallthrough : res.branchTarget;
}

} // namespace engine_detail

} // namespace pe::core

#endif // PE_CORE_ENGINE_IMPL_HH
