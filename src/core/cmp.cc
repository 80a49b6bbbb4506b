/**
 * @file
 * The CMP optimization (paper Section 4.3, Figure 4(b) and Figure 6).
 *
 * NT-Paths execute on the idle cores of the CMP while the primary
 * core continues on the taken path.  The taken path is cut into
 * segments at every spawn point; segments and NT-Paths form the
 * tree-structured version order of Figure 6(c):
 *
 *  - each path reads its own buffer, then its ancestor segments,
 *    then committed memory;
 *  - a segment commits only with a commit token from its parent
 *    segment and a squash token from its sibling NT-Path (the one
 *    spawned at the branch where the segment began);
 *  - when the segment chain must shrink (the paper's dirty-line
 *    displacement case), the oldest blocking NT-Path is squashed
 *    immediately so the taken path never stalls.
 *
 * Timing: every core has its own cycle clock; the scheduler always
 * advances the globally least-advanced active core, so cross-core
 * interleaving and shared L2/memory port contention are modeled.
 * Spawning charges the primary core the register-copy overhead
 * (Table 2: 20 cycles); squash charges the NT core (10 cycles).
 */

#include <deque>
#include <memory>

#include "src/core/engine_impl.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/support/status.hh"

namespace pe::core
{

using namespace engine_detail;

namespace
{

/** One NT-Path in flight (running on a core or queued). */
struct NtTask
{
    sim::Core cpu;
    uint32_t spawnPc = 0;
    bool ntDir = false;
    uint64_t spawnTime = 0;         //!< primary time at spawn
    std::unique_ptr<mem::VersionedBuffer> buf;
    std::unique_ptr<detect::ObjectRegistry> overlay;
    std::unique_ptr<sim::IoChannel> specIo; //!< sandboxIo extension
    int core = -1;                  //!< executing core, or -1 if queued
    uint64_t length = 0;
    bool done = false;
    NtStopCause cause = NtStopCause::MaxLength;
    sim::CrashKind crashKind = sim::CrashKind::None;
};

/** One uncommitted taken-path segment. */
struct Segment
{
    std::unique_ptr<mem::VersionedBuffer> buf;
    NtTask *sibling = nullptr;      //!< must squash before we commit
};

/** Scheduler and version-management state of one CMP run. */
struct CmpState
{
    std::vector<uint64_t> coreTime;             //!< per-core clocks
    std::vector<NtTask *> onCore;               //!< core -> task
    std::vector<std::unique_ptr<NtTask>> tasks; //!< all spawned tasks
    std::deque<NtTask *> queue;                 //!< spawned, no core yet
    std::deque<Segment> segments;               //!< oldest first
    int nextPathId = 1;

    size_t outstanding() const
    {
        size_t n = 0;
        for (const auto &t : tasks) {
            if (!t->done)
                ++n;
        }
        return n;
    }

    int allocPathId()
    {
        int id = nextPathId;
        nextPathId = nextPathId % 255 + 1;  // 8-bit IDs, 0 reserved
        return id;
    }
};

} // namespace

void
PathExpanderEngine::runCmp(RunState &state)
{
    RunResult &result = state.result;
    sim::Core &primary = state.primary;

    CmpState cmp;
    cmp.coreTime.assign(cfg.numCores, 0);
    cmp.onCore.assign(cfg.numCores, nullptr);

    const uint32_t l1Capacity = state.hierarchy.l1LineCapacity();
    const bool useBlocks = !cfg.legacyStepLoop;
    const uint64_t dilation = blockDilation(cfg);
    const bool detectorFree = detector == nullptr;
    // Branch ports, as in the inline driver: the primary retires every
    // branch that would not spawn in-block, the NT cores every branch
    // unless the redirect ablation reads counters there.
    sim::BranchPort takenBranches = takenBranchPort(cfg, state);
    sim::BranchPort *const primaryBranches =
        takenBranchesInBlock(cfg) ? &takenBranches : nullptr;
    sim::BranchPort ntBranches = ntBranchPort(cfg, state);
    sim::BranchPort *const coreBranches =
        cfg.followNonTakenInNt ? nullptr : &ntBranches;

    auto currentPrimaryBuf = [&]() -> mem::VersionedBuffer * {
        return cmp.segments.empty() ? nullptr
                                    : cmp.segments.back().buf.get();
    };

    // Fix up children when a committed segment's buffer disappears.
    auto reparentChildrenOf = [&](mem::VersionedBuffer *dead,
                                  mem::VersionedBuffer *replacement) {
        for (auto &seg : cmp.segments) {
            if (seg.buf->parent() == dead)
                seg.buf->setParent(replacement);
        }
        for (auto &t : cmp.tasks) {
            if (!t->done && t->buf->parent() == dead)
                t->buf->setParent(replacement);
        }
    };

    // Commit every leading segment whose tokens are available.
    auto tryCommit = [&]() {
        while (!cmp.segments.empty()) {
            Segment &front = cmp.segments.front();
            if (front.sibling && !front.sibling->done)
                break;  // waiting for the squash token
            front.buf->commitTo(state.memory);
            reparentChildrenOf(front.buf.get(), front.buf->parent());
            cmp.segments.pop_front();
        }
    };

    auto finishNt = [&](NtTask &task, NtStopCause cause,
                        sim::CrashKind crashKind) {
        task.done = true;
        task.cause = cause;
        task.crashKind = crashKind;

        NtPathRecord record;
        record.spawnBranchPc = task.spawnPc;
        record.spawnEdgeTaken = task.ntDir;
        record.length = task.length;
        record.cause = cause;
        record.crashKind = crashKind;
        result.ntRecords.push_back(record);

        if (task.core >= 0) {
            int c = task.core;
            // Gang-invalidation of the path's tagged lines.
            cmp.coreTime[c] += cfg.timing.squashOverhead;
            cmp.onCore[c] = nullptr;
            task.core = -1;
            // Hand the freed core to the oldest queued NT-Path.
            while (!cmp.queue.empty()) {
                NtTask *next = cmp.queue.front();
                cmp.queue.pop_front();
                if (next->done)
                    continue;
                next->core = c;
                cmp.onCore[c] = next;
                cmp.coreTime[c] =
                    std::max(cmp.coreTime[c], next->spawnTime) +
                    cfg.timing.spawnOverhead;
                break;
            }
        }
        tryCommit();
    };

    // Squash the oldest NT-Path blocking the segment chain.
    auto forceSquashOldest = [&]() {
        for (auto &seg : cmp.segments) {
            if (seg.sibling && !seg.sibling->done) {
                finishNt(*seg.sibling, NtStopCause::ForcedSquash,
                         sim::CrashKind::None);
                return;
            }
        }
    };

    auto spawn = [&](const sim::StepResult &branchRes) {
        if (cmp.outstanding() >= cfg.maxNumNtPaths) {
            ++result.ntPathsSkippedBusy;
            return;
        }
        bool ntDir = ntEdgeDir(branchRes);
        state.btb.increment(branchRes.pc, ntDir);
        ++result.ntPathsSpawned;
        result.coverage.onNtEdge(branchRes.pc, ntDir);

        auto task = std::make_unique<NtTask>();
        task->cpu = primary;  // fast register copy, core to core
        task->cpu.pc = ntEdgeTarget(branchRes);
        task->cpu.ntEntryPred = cfg.variableFixing;
        task->spawnPc = branchRes.pc;
        task->ntDir = ntDir;
        task->spawnTime = cmp.coreTime[0];
        task->buf =
            std::make_unique<mem::VersionedBuffer>(cmp.allocPathId());
        task->buf->setParent(currentPrimaryBuf());
        task->overlay =
            std::make_unique<detect::ObjectRegistry>(&state.registry);
        if (cfg.sandboxIo) {
            task->specIo =
                std::make_unique<sim::IoChannel>(result.io);
        }

        // Cut the taken path: a new segment begins after the branch;
        // its sibling is the NT-Path just spawned.
        Segment seg;
        seg.buf =
            std::make_unique<mem::VersionedBuffer>(cmp.allocPathId());
        seg.buf->setParent(currentPrimaryBuf());
        seg.sibling = task.get();
        cmp.segments.push_back(std::move(seg));

        // The primary core pays the register-copy spawn overhead.
        cmp.coreTime[0] += cfg.timing.spawnOverhead;

        // Place on an idle core, or queue in a free thread context.
        int idle = -1;
        for (int c = 1; c < cfg.numCores; ++c) {
            if (!cmp.onCore[c]) {
                idle = c;
                break;
            }
        }
        if (idle >= 0) {
            task->core = idle;
            cmp.onCore[idle] = task.get();
            cmp.coreTime[idle] = std::max(cmp.coreTime[idle],
                                          cmp.coreTime[0]);
        } else {
            cmp.queue.push_back(task.get());
        }
        cmp.tasks.push_back(std::move(task));

        if (cmp.segments.size() > cfg.maxSegmentDepth)
            forceSquashOldest();
    };

    auto stepNt = [&](int c) {
        NtTask &task = *cmp.onCore[c];
        if (task.length >= cfg.maxNtPathLength) {
            finishNt(task, NtStopCause::MaxLength, sim::CrashKind::None);
            return;
        }
        mem::MemCtx ctx(state.memory, task.buf.get());
        if (useBlocks &&
            decoded.startsBlock(task.cpu.pc, coreBranches != nullptr,
                                detectorFree, detectorFree)) {
            // A stretch on the NT core.  The cycle budget,
            // which counts each access's memory latency, stops the
            // block exactly where the least-advanced-core scheduler
            // would stop picking this core (strict inequality against
            // lower-indexed cores, which win clock ties), so every
            // instruction retires at the same position in the global
            // step order as under the per-step loop: the shared L2
            // port and bus see the same acquisition order, nothing
            // else reads this path's buffer, and the instruction
            // count at a later force-squash is identical.
            uint64_t bound = cmp.coreTime[0] - 1;
            for (int j = 1; j < cfg.numCores; ++j) {
                if (j == c || !cmp.onCore[j])
                    continue;
                uint64_t b = j < c ? cmp.coreTime[j] - 1
                                   : cmp.coreTime[j];
                if (b < bound)
                    bound = b;
            }
            const sim::MemPort port = memPort(
                cfg, state, ctx, c, cmp.coreTime[c], /*inNt=*/true);
            sim::BlockOut blk = sim::runBlock(
                decoded, task.cpu,
                blockCap(state, cfg.maxNtPathLength - task.length),
                bound - cmp.coreTime[c], dilation, coreBranches,
                detectorFree, detectorFree ? &port : nullptr);
            if (blk.instructions) {
                task.length += blk.instructions;
                result.ntInstructions += blk.instructions;
                cmp.coreTime[c] += blk.cycles;
                // A store that overflowed the write set ended the
                // block; the per-step loop stops the path there too.
                if (task.buf->numLines() > l1Capacity)
                    finishNt(task, NtStopCause::CapacityOverflow,
                             sim::CrashKind::None);
                return;
            }
        }
        sim::IoChannel &ntIo =
            task.specIo ? *task.specIo : result.io;
        sim::StepResult res = sim::step(decoded, task.cpu, ctx, ntIo,
                                        /*allowIo=*/cfg.sandboxIo,
                                        cfg.layout);
        if (res.crashed()) {
            finishNt(task, NtStopCause::Crash, res.crash);
            return;
        }
        if (res.unsafeEvent) {
            finishNt(task, NtStopCause::UnsafeEvent,
                     sim::CrashKind::None);
            return;
        }

        ++task.length;
        ++result.ntInstructions;
        cmp.coreTime[c] +=
            chargeStep(program, cfg, state, detector, c, res,
                       cmp.coreTime[c], /*inNt=*/true);
        routeEvents(program, cfg, state, detector, *task.overlay, ctx,
                    res, /*fromNt=*/true, task.spawnPc);

        if (res.exited) {
            finishNt(task, NtStopCause::ProgramEnd,
                     sim::CrashKind::None);
            return;
        }
        if (res.branch) {
            bool followed = res.branchTaken;
            if (cfg.followNonTakenInNt &&
                state.btb.count(res.pc, !res.branchTaken) == 0) {
                followed = !res.branchTaken;
                task.cpu.pc = followed ? res.branchTarget
                                       : res.branchFallthrough;
                state.btb.increment(res.pc, followed);
            }
            result.coverage.onNtEdge(res.pc, followed);
        }
        if (task.buf->numLines() > l1Capacity)
            finishNt(task, NtStopCause::CapacityOverflow,
                     sim::CrashKind::None);
    };

    bool primaryDone = false;
    auto stepPrimary = [&]() {
        if (result.takenInstructions >= cfg.maxTakenInstructions) {
            result.hitInstructionLimit = true;
            result.stopCause = RunStopCause::InstructionLimit;
            primaryDone = true;
            return;
        }
        mem::MemCtx ctx(state.memory, currentPrimaryBuf());
        if (useBlocks &&
            decoded.startsBlock(primary.pc, primaryBranches != nullptr,
                                detectorFree, detectorFree)) {
            // A stretch on the primary.  The cycle budget, which
            // counts each access's memory latency, keeps the primary
            // within the span where the scheduler would keep picking
            // it (the primary wins clock ties), so no NT-core step is
            // displaced and its memory accesses and BTB bumps keep
            // their places in the global order.  The instruction
            // budget stops the block at the next counter reset.  A
            // branch that would spawn surfaces, so the block spawns
            // nothing and leaves tryCommit nothing to do.
            uint64_t budget = UINT64_MAX;
            for (int c = 1; c < cfg.numCores; ++c) {
                if (cmp.onCore[c] && cmp.coreTime[c] < budget)
                    budget = cmp.coreTime[c];
            }
            if (budget != UINT64_MAX)
                budget -= cmp.coreTime[0];
            const sim::MemPort port = memPort(
                cfg, state, ctx, 0, cmp.coreTime[0], /*inNt=*/false);
            sim::BlockOut blk = sim::runBlock(
                decoded, primary, blockCap(state, takenBudget(cfg, state)),
                budget, dilation, primaryBranches, detectorFree,
                detectorFree ? &port : nullptr);
            if (blk.instructions) {
                result.takenInstructions += blk.instructions;
                cmp.coreTime[0] += blk.cycles;
                advanceResetClock(cfg, state, blk.instructions);
                return;
            }
        }
        sim::StepResult res = sim::step(decoded, primary, ctx, result.io,
                                        /*allowIo=*/true, cfg.layout);
        if (res.crashed()) {
            result.programCrashed = true;
            result.programCrashKind = res.crash;
            result.stopCause = RunStopCause::Crashed;
            primaryDone = true;
            return;
        }
        pe_assert(!res.unsafeEvent, "unsafe event on the taken path");

        ++result.takenInstructions;
        cmp.coreTime[0] +=
            chargeStep(program, cfg, state, detector, 0, res,
                       cmp.coreTime[0], /*inNt=*/false);
        routeEvents(program, cfg, state, detector, state.registry, ctx,
                    res, /*fromNt=*/false, 0);

        if (res.exited) {
            primaryDone = true;
            return;
        }
        if (res.branch) {
            result.coverage.onTakenEdge(res.pc, res.branchTaken);
            if (cfg.recordEdgeTrace) {
                result.recordBranchEvent(res.pc, res.branchTaken,
                                         cfg.edgeTraceCap);
            }
            state.btb.increment(res.pc, res.branchTaken);
            if (shouldSpawn(cfg, state, decoded, res.pc, ntEdgeDir(res)))
                spawn(res);
        }
        advanceResetClock(cfg, state, 1);
        tryCommit();
    };

    while (!primaryDone) {
        if (cancelRequested(state)) {
            result.aborted = true;
            result.stopCause = RunStopCause::Deadline;
            break;
        }
        // Advance the least-advanced active core.
        int next = 0;
        for (int c = 1; c < cfg.numCores; ++c) {
            if (cmp.onCore[c] && cmp.coreTime[c] < cmp.coreTime[next])
                next = c;
        }
        if (next == 0)
            stepPrimary();
        else
            stepNt(next);
    }

    // Program ended: outstanding NT-Paths are squashed and the
    // remaining segments drain into memory.
    for (auto &t : cmp.tasks) {
        if (!t->done)
            finishNt(*t, NtStopCause::ForcedSquash,
                     sim::CrashKind::None);
    }
    tryCommit();
    pe_assert(cmp.segments.empty(), "uncommitted segments at exit");

    result.cycles = cmp.coreTime[0];
    result.coreCycles = cmp.coreTime;
}

} // namespace pe::core
