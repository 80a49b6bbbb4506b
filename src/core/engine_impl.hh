/**
 * @file
 * Shared internal state of the PathExpander engine and the one place
 * that advances a path.  A PathAdvancer, built once per run, holds two
 * routines: advanceTaken moves the taken path and advanceNt moves one
 * NT-Path, each by one block or one step.  They run the same NT-Path
 * semantics (the termination rules, the detector hooks, the cost
 * model) for both drivers, which keep only policy: the inline driver
 * (Off/Standard, engine.cc) checks the watchdog, checkpoints and
 * squashes; the CMP driver (cmp.cc) picks the core that runs, spawns,
 * ends paths and commits segments.
 *
 * This is an implementation header (included only by engine.cc and
 * cmp.cc), not part of the public API.  Both routines are defined here
 * so that each driver's translation unit can inline them; the
 * step-retire member they share is one out-of-line function in
 * engine.cc.
 */

#ifndef PE_CORE_ENGINE_IMPL_HH
#define PE_CORE_ENGINE_IMPL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "src/branch/btb.hh"
#include "src/core/engine.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/main_memory.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/sim/interpreter.hh"
#include "src/support/rng.hh"
#include "src/support/status.hh"

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
 * Instruction budget of one taken-path bulk dispatch: what is left of
 * the instruction limit, clipped at the next counter reset.  A block
 * therefore never runs across a reset, so advanceResetClock lands
 * every reset on the instruction where the per-step loop resets, and
 * every branch a block retires reads and bumps the counters the
 * per-step loop would.
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
 * instructions (CounterResetInterval, Section 4.2), zeroing the BTB
 * exercise counters at the boundary.  With PathExpander off nothing
 * touches the BTB, so a reset there changes nothing.
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
}

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

/** How an NT-Path ended: the cause and, on a crash, the exception. */
struct NtEnd
{
    NtStopCause cause;
    sim::CrashKind crashKind = sim::CrashKind::None;
};

/**
 * One NT-Path's sandbox: the versioned buffer its stores go to, its
 * object-registry overlay, its copy of the I/O channel under sandboxIo,
 * and its length.  The registers it runs on belong to the driver: the
 * checkpointed primary core inline, the path's own core in CMP.
 */
struct NtPath
{
    NtPath(int pathId, const detect::ObjectRegistry *registry,
           const sim::StepResult &branch)
        : buf(pathId), overlay(registry), spawnPc(branch.pc),
          ntDir(ntEdgeDir(branch))
    {}

    mem::VersionedBuffer buf;
    detect::ObjectRegistry overlay;
    std::unique_ptr<sim::IoChannel> specIo;
    uint32_t spawnPc;
    bool ntDir;                 //!< direction of the explored edge
    uint64_t length = 0;
};

/**
 * The per-run path-advance object: the run's block-tier ports, built
 * once, and the two routines that move a path.  A routine runs one
 * block through sim::runBlock when the path's next instruction can
 * start one, and otherwise one instruction through sim::step, which it
 * retires (charge and event routing) and bookkeeps.  The differences
 * between the drivers are values, not forks: the hit-only flag of the
 * memory port, an NT core's cycle budget (none inline), and whether the
 * block tier runs at all.
 */
class PathAdvancer
{
  public:
    PathAdvancer(const isa::Program &program, const PeConfig &cfg,
                 const sim::DecodedProgram &decoded,
                 detect::Detector *detector,
                 PathExpanderEngine::RunState &state)
        : program(program), cfg(cfg), decoded(decoded),
          detector(detector), state(state),
          peActive(cfg.mode != PeMode::Off),
          // Under the redirect ablation a CMP NT-Path reads and bumps
          // the BTB counters the primary's in-block branches bump, so
          // no core has private work to run ahead: step everything.
          useBlocks(!cfg.legacyStepLoop &&
                    !(cfg.mode == PeMode::Cmp && cfg.followNonTakenInNt)),
          // Chkb/Assert are inert and loads and stores run in-block
          // only without a detector.
          detectorFree(detector == nullptr),
          sw(softwareCosts(cfg)),
          l1Capacity(state.hierarchy.l1LineCapacity())
    {
        const uint64_t branchExtra =
            sw ? cfg.swCosts.branchAnalysisCost : 0;
        // The taken path's branch port: the coverage bit alone with
        // PathExpander off and no edge trace; otherwise the trace when
        // recorded and, under PathExpander, the BTB, so only a branch
        // that would spawn surfaces.
        takenPort.kind = peActive || cfg.recordEdgeTrace
                             ? sim::BranchPort::Kind::Taken
                             : sim::BranchPort::Kind::Coverage;
        takenPort.coverage = &state.result.coverage;
        if (peActive) {
            takenPort.btb = &state.btb;
            takenPort.threshold = cfg.ntPathCounterThreshold;
        }
        if (cfg.recordEdgeTrace) {
            takenPort.trace = &state.result.branchTrace;
            takenPort.traceTruncated = &state.result.branchTraceTruncated;
            takenPort.traceCap = cfg.edgeTraceCap;
        }
        takenPort.branchExtra = branchExtra;
        // With the random spawn factor a branch at the threshold still
        // draws from the run's RNG, so taken-path branches surface.
        if (!peActive || !(cfg.randomSpawnFraction > 0.0))
            takenBranches = &takenPort;

        // An NT-Path branch's NT coverage bit is its whole effect unless
        // the redirect ablation reads and bumps its counters.
        ntPort.kind = sim::BranchPort::Kind::Nt;
        ntPort.coverage = &state.result.coverage;
        ntPort.branchExtra = branchExtra;
        if (!cfg.followNonTakenInNt)
            ntBranches = &ntPort;
    }

    /**
     * Move the taken path, on core 0 at cycle @p clock, by one block or
     * one step through @p ctx.  A block runs the path's private work:
     * every branch that would not spawn, and without a detector
     * Chkb/Assert, loads and stores (through a hit-only memory port
     * when @p hitOnly); it stops at the next counter reset.  A stepped
     * branch is counted and, when it should spawn, handed to
     * @p spawn after its taken edge's counter bump and before the
     * counter-reset clock moves, so the spawn reads this epoch's
     * counters.
     *
     * @return false once the path has stopped: exit, a crash or the
     *         instruction limit.
     */
    template <typename Spawn>
    bool advanceTaken(uint64_t &clock, mem::MemCtx &ctx, bool hitOnly,
                      Spawn &&spawn);

    /**
     * Enter the NT-Path @p path of the branch @p branch, on @p cpu,
     * which holds the spawning core's registers: bump the non-taken
     * edge's counter (counters are also updated at the entry of an
     * NT-Path, Section 4.2), count the spawn, record the NT edge,
     * redirect @p cpu onto it with the NT-entry predicate armed under
     * variable fixing, and copy the I/O channel under sandboxIo.
     */
    void enterNt(const sim::StepResult &branch, sim::Core &cpu,
                 NtPath &path);

    /**
     * Move @p path, running on @p cpu as core @p coreId at cycle
     * @p clock, by one block or one step.  Its block starts no
     * instruction after @p cycleBudget cycles, and with @p hitOnly it
     * surfaces L1 misses and any store that could overflow the write
     * set.
     *
     * @return how the path ended (Section 4.2's termination rules), or
     *         nothing while it goes on.
     */
    std::optional<NtEnd> advanceNt(sim::Core &cpu, NtPath &path,
                                   int coreId, uint64_t &clock,
                                   uint64_t cycleBudget, bool hitOnly);

    /** Append @p path's record, ended by @p end, to the run's result. */
    void
    recordNt(const NtPath &path, NtEnd end)
    {
        state.result.ntRecords.push_back(
            {path.spawnPc, path.ntDir, path.length, end.cause,
             end.crashKind});
    }

  private:
    /**
     * Retire one instruction sim::step ran on @p coreId at cycle @p now,
     * on the NT-Path @p nt or, when it is null, the taken path: route
     * its object events to the path's registry view and its detector
     * events to the detector (reports go to the monitor area), and
     * return its cycles: base cost, memory latency, the detector's
     * check costs and the software model's instrumentation.
     */
    uint64_t retire(const sim::StepResult &res, int coreId, uint64_t now,
                    mem::MemCtx &ctx, NtPath *nt);

    const isa::Program &program;
    const PeConfig &cfg;
    const sim::DecodedProgram &decoded;
    detect::Detector *const detector;
    PathExpanderEngine::RunState &state;

    const bool peActive;
    const bool useBlocks;
    const bool detectorFree;
    const bool sw;
    const uint32_t l1Capacity;
    sim::BranchPort takenPort;
    sim::BranchPort ntPort;
    const sim::BranchPort *takenBranches = nullptr; //!< or null: surface
    const sim::BranchPort *ntBranches = nullptr;    //!< or null: surface
};

template <typename Spawn>
bool
PathAdvancer::advanceTaken(uint64_t &clock, mem::MemCtx &ctx, bool hitOnly,
                           Spawn &&spawn)
{
    RunResult &result = state.result;
    sim::Core &core = state.primary;
    if (result.takenInstructions >= cfg.maxTakenInstructions) {
        result.hitInstructionLimit = true;
        result.stopCause = RunStopCause::InstructionLimit;
        return false;
    }

    if (useBlocks &&
        decoded.startsBlock(core.pc, takenBranches != nullptr,
                            detectorFree, detectorFree)) {
        const sim::MemPort port{.ctx = ctx,
                                .hierarchy = state.hierarchy,
                                .startCycle = clock,
                                .hitOnly = hitOnly};
        const sim::BlockOut blk = sim::runBlock(
            decoded, core, blockCap(state, takenBudget(cfg, state)),
            UINT64_MAX, sw ? cfg.swCosts.perInstructionDilation : 0,
            takenBranches, detectorFree, detectorFree ? &port : nullptr);
        if (blk.instructions) {
            result.takenInstructions += blk.instructions;
            clock += blk.cycles;
            advanceResetClock(cfg, state, blk.instructions);
            return true;
        }
    }

    const sim::StepResult res = sim::step(decoded, core, ctx, result.io,
                                          /*allowIo=*/true, cfg.layout);
    if (res.crashed()) {
        result.programCrashed = true;
        result.programCrashKind = res.crash;
        result.stopCause = RunStopCause::Crashed;
        return false;
    }
    pe_assert(!res.unsafeEvent, "unsafe event on the taken path");

    ++result.takenInstructions;
    clock += retire(res, 0, clock, ctx, nullptr);
    if (res.exited)
        return false;

    if (res.branch) {
        result.coverage.onTakenEdge(res.pc, res.branchTaken);
        if (cfg.recordEdgeTrace) {
            result.recordBranchEvent(res.pc, res.branchTaken,
                                     cfg.edgeTraceCap);
        }
        if (peActive) {
            state.btb.increment(res.pc, res.branchTaken);
            if (shouldSpawn(cfg, state, decoded, res.pc, ntEdgeDir(res)))
                spawn(res);
        }
    }
    advanceResetClock(cfg, state, 1);
    return true;
}

inline void
PathAdvancer::enterNt(const sim::StepResult &branch, sim::Core &cpu,
                      NtPath &path)
{
    RunResult &result = state.result;
    state.btb.increment(path.spawnPc, path.ntDir);
    ++result.ntPathsSpawned;
    result.coverage.onNtEdge(path.spawnPc, path.ntDir);
    cpu.pc = ntEdgeTarget(branch);
    cpu.ntEntryPred = cfg.variableFixing;
    if (cfg.sandboxIo)
        path.specIo = std::make_unique<sim::IoChannel>(result.io);
}

inline std::optional<NtEnd>
PathAdvancer::advanceNt(sim::Core &cpu, NtPath &path, int coreId,
                        uint64_t &clock, uint64_t cycleBudget, bool hitOnly)
{
    RunResult &result = state.result;
    if (path.length >= cfg.maxNtPathLength)
        return NtEnd{NtStopCause::MaxLength};
    mem::MemCtx ctx(state.memory, &path.buf);

    if (useBlocks &&
        decoded.startsBlock(cpu.pc, ntBranches != nullptr, detectorFree,
                            detectorFree)) {
        // Without a detector, stores write the versioned buffer
        // in-block.  The store that overflows it ends the block and the
        // path stops right after it, as in the per-step loop; through a
        // hit-only port that store surfaces instead.
        const sim::MemPort port{
            .ctx = ctx,
            .hierarchy = state.hierarchy,
            .coreId = coreId,
            .startCycle = clock,
            .ntLineBound = l1Capacity,
            .ntStoreCost = sw ? cfg.swCosts.ntWriteLogCost : 0,
            .hitOnly = hitOnly};
        const sim::BlockOut blk = sim::runBlock(
            decoded, cpu, blockCap(state, cfg.maxNtPathLength - path.length),
            cycleBudget, sw ? cfg.swCosts.perInstructionDilation : 0,
            ntBranches, detectorFree, detectorFree ? &port : nullptr);
        if (blk.instructions) {
            path.length += blk.instructions;
            result.ntInstructions += blk.instructions;
            clock += blk.cycles;
            if (path.buf.numLines() > l1Capacity)
                return NtEnd{NtStopCause::CapacityOverflow};
            return std::nullopt;
        }
    }

    const sim::StepResult res =
        sim::step(decoded, cpu, ctx, path.specIo ? *path.specIo : result.io,
                  /*allowIo=*/cfg.sandboxIo, cfg.layout);
    if (res.crashed()) {
        // The exception is swallowed, never delivered to the OS.
        return NtEnd{NtStopCause::Crash, res.crash};
    }
    if (res.unsafeEvent)
        return NtEnd{NtStopCause::UnsafeEvent};

    ++path.length;
    ++result.ntInstructions;
    clock += retire(res, coreId, clock, ctx, &path);
    if (res.exited)
        return NtEnd{NtStopCause::ProgramEnd};

    if (res.branch) {
        bool followed = res.branchTaken;
        if (cfg.followNonTakenInNt &&
            state.btb.count(res.pc, !res.branchTaken) == 0) {
            // Ablation: redirect onto the cold non-taken edge.
            followed = !res.branchTaken;
            cpu.pc = followed ? res.branchTarget : res.branchFallthrough;
            state.btb.increment(res.pc, followed);
        }
        result.coverage.onNtEdge(res.pc, followed);
    }
    if (path.buf.numLines() > l1Capacity)
        return NtEnd{NtStopCause::CapacityOverflow};
    return std::nullopt;
}

} // namespace engine_detail

} // namespace pe::core

#endif // PE_CORE_ENGINE_IMPL_HH
