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
 * BTB counters, so there every instruction steps.
 *
 * This file holds the policy only: the pick rule, the hit-only choice,
 * an NT core's cycle budget, spawn, ending a path and commit.  Every
 * path moves through engine_impl.hh's PathAdvancer: the primary by
 * advanceTaken, an NT core by advanceNt.
 */

#include <algorithm>
#include <deque>
#include <list>
#include <memory>

#include "src/core/engine_impl.hh"

namespace pe::core
{

using namespace engine_detail;

namespace
{

struct Segment;

/** One live NT-Path (running on a core or queued). */
struct NtTask : NtPath
{
    using NtPath::NtPath;

    sim::Core cpu;                  //!< its core's registers
    uint64_t spawnTime = 0;         //!< primary time at spawn
    Segment *segment = nullptr;     //!< the segment cut at its spawn
    int core = -1;                  //!< executing core, or -1 if queued
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
    PathAdvancer paths(program, cfg, decoded, detector, state);

    CmpState cmp;
    cmp.coreTime.assign(cfg.numCores, 0);
    cmp.onCore.assign(cfg.numCores, nullptr);

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

    // End @p task: record it, hand its core on and drop it.  A segment
    // commits only once its sibling has ended, so this is the one place
    // that commits.
    auto finishNt = [&](NtTask &task, NtEnd end) {
        paths.recordNt(task, end);

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
                finishNt(*seg.sibling, {NtStopCause::ForcedSquash});
                return;
            }
        }
    };

    auto spawn = [&](const sim::StepResult &branchRes) {
        if (cmp.live.size() >= cfg.maxNumNtPaths) {
            ++result.ntPathsSkippedBusy;
            return;
        }
        NtTask &task = cmp.live.emplace_back(cmp.allocPathId(),
                                             &state.registry, branchRes);
        task.cpu = primary;  // fast register copy, core to core
        paths.enterNt(branchRes, task.cpu, task);
        task.spawnTime = cmp.coreTime[0];
        task.buf.setParent(currentPrimaryBuf());

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

    for (;;) {
        if (cancelRequested(state)) {
            result.aborted = true;
            result.stopCause = RunStopCause::Deadline;
            break;
        }
        // Advance the least-advanced active core.
        int next = 0;
        bool ntRunning = false;
        for (int c = 1; c < cfg.numCores; ++c) {
            if (!cmp.onCore[c])
                continue;
            ntRunning = true;
            if (cmp.coreTime[c] < cmp.coreTime[next])
                next = c;
        }
        if (next == 0) {
            // The primary's private work has no cycle budget.  While an
            // NT core runs, the hit-only port surfaces its L1 misses;
            // with none running, nothing else happens before the
            // block's end, so its misses run in-block too.
            mem::MemCtx ctx(state.memory, currentPrimaryBuf());
            if (!paths.advanceTaken(cmp.coreTime[0], ctx, ntRunning,
                                    spawn)) {
                break;
            }
            continue;
        }
        // An NT core's private work starts no instruction at or after
        // the primary's clock (the primary wins ties), because the
        // primary's spawns and its exit read this path's length.
        NtTask &task = *cmp.onCore[next];
        if (auto end = paths.advanceNt(
                task.cpu, task, next, cmp.coreTime[next],
                cmp.coreTime[0] - 1 - cmp.coreTime[next],
                /*hitOnly=*/true)) {
            finishNt(task, *end);
        }
    }

    // The run ended: outstanding NT-Paths are squashed in spawn order
    // (as host aborts when the watchdog cut the run short), which
    // drains the remaining segments into memory.
    const NtStopCause cause = result.aborted ? NtStopCause::HostAbort
                                             : NtStopCause::ForcedSquash;
    while (!cmp.live.empty())
        finishNt(cmp.live.front(), {cause});
    pe_assert(cmp.segments.empty(), "uncommitted segments at exit");

    result.cycles = cmp.coreTime[0];
    result.coreCycles = cmp.coreTime;
}

} // namespace pe::core
