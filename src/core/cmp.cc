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
 * advances the globally least-advanced active core (the primary wins
 * ties, then the lower core index), so cross-core interleaving and
 * shared L2/memory port contention are modeled.  Spawning charges the
 * primary core the register-copy overhead (Table 2: 20 cycles);
 * squash charges the NT core (10 cycles).
 *
 * Quanta: a picked core runs its *private* work in one block — ALU
 * ops, L1 hits, branches that retire in the block loop, stores that
 * cannot overflow its write set — because no other core reads what
 * that work changes.  It stops before its next *shared* event (an L1
 * miss, a spawn attempt, an NT-Path end, exit, a crash, the
 * instruction limit, anything that surfaces), which runs through
 * sim::step only when the core is picked, so shared events keep the
 * per-step loop's global order.  The primary's blocks have no cycle
 * budget; an NT core's block starts no instruction at or after the
 * primary's clock, because the primary's spawns and its exit read
 * NT-Path lengths.  Under followNonTakenInNt NT-Paths read and bump
 * BTB counters, so there the driver steps every instruction.
 */

#include <algorithm>
#include <deque>
#include <list>
#include <memory>

#include "src/core/engine_impl.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/support/status.hh"

namespace pe::core
{

using namespace engine_detail;

namespace
{

struct Segment;

/** One live NT-Path (running on a core or queued). */
struct NtTask
{
    sim::Core cpu;
    uint32_t spawnPc = 0;
    bool ntDir = false;
    uint64_t spawnTime = 0;         //!< primary time at spawn
    mem::VersionedBuffer buf;
    detect::ObjectRegistry overlay;
    std::unique_ptr<sim::IoChannel> specIo; //!< sandboxIo extension
    Segment *segment = nullptr;     //!< the segment cut at its spawn
    int core = -1;                  //!< executing core, or -1 if queued
    uint64_t length = 0;

    NtTask(int pathId, const detect::ObjectRegistry *registry)
        : buf(pathId), overlay(registry)
    {}
};

/** One uncommitted taken-path segment. */
struct Segment
{
    std::unique_ptr<mem::VersionedBuffer> buf;
    NtTask *sibling = nullptr;      //!< live NT-Path; commits after it
};

/**
 * Scheduler and version-management state of one CMP run.  Only live
 * NT-Paths exist: an ending path leaves `live`, which frees its
 * buffer, overlay and I/O copy, once finishNt has cleared the
 * pointers to it (its segment's sibling, the queue).
 */
struct CmpState
{
    std::vector<uint64_t> coreTime;             //!< per-core clocks
    std::vector<NtTask *> onCore;               //!< core -> task
    std::list<NtTask> live;                     //!< in spawn order
    std::deque<NtTask *> queue;                 //!< spawned, no core yet
    std::deque<Segment> segments;               //!< oldest first
    int nextPathId = 1;

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
    // Under the redirect ablation an NT-Path reads and bumps the BTB
    // counters that the primary's in-block branches bump, so no core
    // has private work to run ahead: step every instruction.
    const bool useBlocks = !cfg.legacyStepLoop && !cfg.followNonTakenInNt;
    const uint64_t dilation = blockDilation(cfg);
    const bool detectorFree = detector == nullptr;
    // Branch ports, as in the inline driver: the primary retires every
    // branch that would not spawn in-block, the NT cores every branch.
    sim::BranchPort takenBranches = takenBranchPort(cfg, state);
    sim::BranchPort *const primaryBranches =
        takenBranchesInBlock(cfg) ? &takenBranches : nullptr;
    sim::BranchPort ntBranches = ntBranchPort(cfg, state);

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
        for (NtTask &t : cmp.live) {
            if (t.buf.parent() == dead)
                t.buf.setParent(replacement);
        }
    };

    // Commit every leading segment whose tokens are available.
    auto tryCommit = [&]() {
        while (!cmp.segments.empty()) {
            Segment &front = cmp.segments.front();
            if (front.sibling)
                break;  // waiting for the squash token
            front.buf->commitTo(state.memory);
            reparentChildrenOf(front.buf.get(), front.buf->parent());
            cmp.segments.pop_front();
        }
    };

    // End @p task: record it, hand its core on and drop it.
    auto finishNt = [&](NtTask &task, NtStopCause cause,
                        sim::CrashKind crashKind) {
        NtPathRecord record;
        record.spawnBranchPc = task.spawnPc;
        record.spawnEdgeTaken = task.ntDir;
        record.length = task.length;
        record.cause = cause;
        record.crashKind = crashKind;
        result.ntRecords.push_back(record);

        task.segment->sibling = nullptr;    // the squash token
        const int c = task.core;
        if (c < 0) {
            cmp.queue.erase(
                std::find(cmp.queue.begin(), cmp.queue.end(), &task));
        }
        cmp.live.remove_if([&](const NtTask &t) { return &t == &task; });

        if (c >= 0) {
            // Gang-invalidation of the path's tagged lines.
            cmp.coreTime[c] += cfg.timing.squashOverhead;
            cmp.onCore[c] = nullptr;
            // Hand the freed core to the oldest queued NT-Path.
            if (!cmp.queue.empty()) {
                NtTask *next = cmp.queue.front();
                cmp.queue.pop_front();
                next->core = c;
                cmp.onCore[c] = next;
                cmp.coreTime[c] =
                    std::max(cmp.coreTime[c], next->spawnTime) +
                    cfg.timing.spawnOverhead;
            }
        }
        tryCommit();
    };

    // Squash the oldest NT-Path blocking the segment chain.
    auto forceSquashOldest = [&]() {
        for (auto &seg : cmp.segments) {
            if (seg.sibling) {
                finishNt(*seg.sibling, NtStopCause::ForcedSquash,
                         sim::CrashKind::None);
                return;
            }
        }
    };

    auto spawn = [&](const sim::StepResult &branchRes) {
        if (cmp.live.size() >= cfg.maxNumNtPaths) {
            ++result.ntPathsSkippedBusy;
            return;
        }
        bool ntDir = ntEdgeDir(branchRes);
        state.btb.increment(branchRes.pc, ntDir);
        ++result.ntPathsSpawned;
        result.coverage.onNtEdge(branchRes.pc, ntDir);

        NtTask &task =
            cmp.live.emplace_back(cmp.allocPathId(), &state.registry);
        task.cpu = primary;  // fast register copy, core to core
        task.cpu.pc = ntEdgeTarget(branchRes);
        task.cpu.ntEntryPred = cfg.variableFixing;
        task.spawnPc = branchRes.pc;
        task.ntDir = ntDir;
        task.spawnTime = cmp.coreTime[0];
        task.buf.setParent(currentPrimaryBuf());
        if (cfg.sandboxIo) {
            task.specIo =
                std::make_unique<sim::IoChannel>(result.io);
        }

        // Cut the taken path: a new segment begins after the branch;
        // its sibling is the NT-Path just spawned.
        Segment seg;
        seg.buf =
            std::make_unique<mem::VersionedBuffer>(cmp.allocPathId());
        seg.buf->setParent(currentPrimaryBuf());
        seg.sibling = &task;
        cmp.segments.push_back(std::move(seg));
        task.segment = &cmp.segments.back();

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
            task.core = idle;
            cmp.onCore[idle] = &task;
            cmp.coreTime[idle] = std::max(cmp.coreTime[idle],
                                          cmp.coreTime[0]);
        } else {
            cmp.queue.push_back(&task);
        }

        if (cmp.segments.size() > cfg.maxSegmentDepth)
            forceSquashOldest();
    };

    auto stepNt = [&](int c) {
        NtTask &task = *cmp.onCore[c];
        if (task.length >= cfg.maxNtPathLength) {
            finishNt(task, NtStopCause::MaxLength, sim::CrashKind::None);
            return;
        }
        mem::MemCtx ctx(state.memory, &task.buf);
        if (useBlocks &&
            decoded.startsBlock(task.cpu.pc, /*execBranches=*/true,
                                detectorFree, detectorFree)) {
            // The core's private work, up to its next shared event:
            // the hit-only port surfaces L1 misses and the store that
            // would overflow the write set.  The block starts no
            // instruction at or after the primary's clock (the primary
            // wins ties), because the primary's spawns and its exit
            // read this path's length.
            sim::MemPort port = memPort(cfg, state, ctx, c,
                                        cmp.coreTime[c], /*inNt=*/true);
            port.hitOnly = true;
            sim::BlockOut blk = sim::runBlock(
                decoded, task.cpu,
                blockCap(state, cfg.maxNtPathLength - task.length),
                cmp.coreTime[0] - 1 - cmp.coreTime[c], dilation,
                &ntBranches, detectorFree, detectorFree ? &port : nullptr);
            if (blk.instructions) {
                task.length += blk.instructions;
                result.ntInstructions += blk.instructions;
                cmp.coreTime[c] += blk.cycles;
                return;
            }
        }
        // A shared event, and this core is the scheduler's pick.
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
        routeEvents(program, cfg, state, detector, task.overlay, ctx,
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
        if (task.buf.numLines() > l1Capacity)
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
            // The primary's private work, with no cycle budget, up to
            // the next counter reset.  A branch that would spawn
            // surfaces, so the block spawns nothing and leaves
            // tryCommit nothing to do.  While an NT core runs, the
            // hit-only port surfaces L1 misses; with none running,
            // nothing else happens before the block's end, so its
            // misses run in-block too.
            sim::MemPort port = memPort(cfg, state, ctx, 0,
                                        cmp.coreTime[0], /*inNt=*/false);
            port.hitOnly = std::any_of(
                cmp.onCore.begin() + 1, cmp.onCore.end(),
                [](const NtTask *t) { return t != nullptr; });
            sim::BlockOut blk = sim::runBlock(
                decoded, primary, blockCap(state, takenBudget(cfg, state)),
                UINT64_MAX, dilation, primaryBranches, detectorFree,
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

    // Program ended: outstanding NT-Paths are squashed in spawn order
    // and the remaining segments drain into memory.
    while (!cmp.live.empty()) {
        finishNt(cmp.live.front(), NtStopCause::ForcedSquash,
                 sim::CrashKind::None);
    }
    tryCommit();
    pe_assert(cmp.segments.empty(), "uncommitted segments at exit");

    result.cycles = cmp.coreTime[0];
    result.coreCycles = cmp.coreTime;
}

} // namespace pe::core
