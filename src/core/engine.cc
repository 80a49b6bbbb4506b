/**
 * @file
 * PathExpander engine: shared helpers, baseline and the standard
 * (inline checkpoint/rollback) configuration.  The CMP driver lives in
 * cmp.cc.
 */

#include "src/core/engine.hh"

#include <mutex>
#include <unordered_set>

#include "src/analysis/priors.hh"
#include "src/checkpoint/checkpoint.hh"
#include "src/core/engine_impl.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/support/status.hh"

namespace pe::core
{

namespace engine_detail
{

uint64_t
chargeStep(const isa::Program &, const PeConfig &cfg,
           PathExpanderEngine::RunState &state,
           detect::Detector *detector, int coreId,
           const sim::StepResult &res, uint64_t now, bool inNt)
{
    uint64_t cycles = sim::opcodeCost(cfg.timing, res.op);

    if (res.memRead || res.memWrite) {
        cycles += state.hierarchy.accessLatency(coreId, res.memAddr,
                                                now + cycles);
        if (detector)
            cycles += detector->memAccessCost();
    }
    if (res.boundsCheck && detector)
        cycles += detector->boundsCheckCost();

    if (softwareCosts(cfg)) {
        const SoftwareCostParams &sw = cfg.swCosts;
        cycles += sw.perInstructionDilation;
        if (res.branch)
            cycles += sw.branchAnalysisCost;
        if (inNt && res.memWrite)
            cycles += sw.ntWriteLogCost;
    }
    return cycles;
}

void
routeEvents(const isa::Program &program, const PeConfig &cfg,
            PathExpanderEngine::RunState &state,
            detect::Detector *detector, detect::ObjectRegistry &registry,
            mem::MemCtx &ctx, const sim::StepResult &res, bool fromNt,
            uint32_t ntSpawnPc)
{
    if (res.registeredObject)
        registry.registerObject(res.objBase, res.objSize, res.objKind);
    if (res.unregisteredObject)
        registry.unregisterObject(res.objBase);

    if (!detector)
        return;
    if (!res.memRead && !res.memWrite && !res.boundsCheck &&
        !res.assertFired) {
        return;
    }

    detect::DetectCtx dctx;
    dctx.program = &program;
    dctx.registry = &registry;
    dctx.monitor = &state.result.monitor;
    dctx.pc = res.pc;
    dctx.fromNtPath = fromNt;
    dctx.ntSpawnPc = ntSpawnPc;
    dctx.dataBase = program.dataBase;
    dctx.heapBase = program.heapBase;
    dctx.heapTop =
        static_cast<uint32_t>(ctx.read(isa::Program::heapPtrCell));
    dctx.stackBase = cfg.layout.heapLimit();
    dctx.memWords = cfg.layout.memWords;

    if (res.boundsCheck)
        detector->onBoundsCheck(dctx, res.checkAddr);
    if (res.memRead)
        detector->onMemAccess(dctx, res.memAddr, false);
    if (res.memWrite)
        detector->onMemAccess(dctx, res.memAddr, true);
    if (res.assertFired)
        detector->onAssert(dctx, res.assertId);
}

} // namespace engine_detail

using namespace engine_detail;

PathExpanderEngine::PathExpanderEngine(const isa::Program &prog,
                                       const PeConfig &config,
                                       detect::Detector *det)
    : program(prog), cfg(config), detector(det),
      decoded(prog, config.timing)
{
    pe_assert(cfg.numCores >= 1, "need at least one core");
    pe_assert(cfg.maxNtPathLength > 0, "MaxNTPathLength must be positive");
    // The stack must hold the 16 words above the initial SP and leave
    // a heap below it; otherwise heapLimit() wraps or reaches zero.
    if (cfg.layout.stackWords < 16 ||
        cfg.layout.stackWords >= cfg.layout.memWords) {
        pe_fatal("machine layout needs 16 <= stackWords < memWords, got "
                 "stackWords ", cfg.layout.stackWords, " and memWords ",
                 cfg.layout.memWords);
    }

    // Resolve the tagged checking functions (Section 6.2) to code
    // ranges once, folded into per-PC no-spawn flags.
    for (const auto &name : cfg.noSpawnFuncs) {
        for (const auto &f : program.funcs) {
            if (f.name == name)
                decoded.markNoSpawn(f.startPc, f.endPc);
        }
    }

    // Static verification at load.  Never aborts — malformed
    // programs are legal inputs (the interpreter raises BadJump and
    // friends) — but error findings are surfaced once per program.
    verified = &analysis::verifyCached(program);
    if (verified->hasErrors()) {
        static std::mutex warnMtx;
        static std::unordered_set<uint64_t> warned;
        const uint64_t fp = analysis::programFingerprint(program);
        std::lock_guard<std::mutex> lock(warnMtx);
        if (warned.insert(fp).second) {
            warn("program '", program.name, "' has ",
                 verified->errorCount(),
                 " static verifier error(s); first: ",
                 analysis::formatDiagnostic(
                     program, verified->diagnostics.front()));
        }
    }

    // Static spawn pre-filter: mark provably-doomed NT edges so
    // shouldSpawn() rejects them in O(1).  Only meaningful while a
    // syscall actually squashes NT-Paths, i.e. without I/O
    // sandboxing.
    if (cfg.spawnPreFilter && !cfg.sandboxIo) {
        const analysis::BranchPriors priors =
            analysis::computeBranchPriors(program, cfg.maxNtPathLength);
        for (const auto &[pc, edges] : priors.branches) {
            if (edges[0].doomed)
                decoded.markDoomedEdge(pc, false);
            if (edges[1].doomed)
                decoded.markDoomedEdge(pc, true);
        }
    }

    // Self-pruning: per-program static eligibility, shared by every
    // run's superblock cache.  Branches in BTB sets that could evict
    // are excluded so skipping their LRU stamps can't change a victim.
    if (cfg.selfPrune) {
        pe_assert(cfg.btbParams.ways > 0 &&
                      cfg.btbParams.entries >= cfg.btbParams.ways,
                  "degenerate BTB geometry");
        pruneElig = analysis::computeSaturationEligibility(
            program, cfg.btbParams.entries / cfg.btbParams.ways,
            cfg.btbParams.ways);
    }
}

RunResult
PathExpanderEngine::run(const std::vector<int32_t> &input,
                        const std::atomic<bool> *cancel)
{
    RunState state(program, cfg);
    state.cancel = cancel;
    state.result.io.input = input;
    sim::loadProgram(program, state.memory, state.primary, cfg.layout);

    if (cfg.mode == PeMode::Cmp)
        runCmp(state);
    else
        runInline(state);

    state.result.l2ContentionCycles =
        state.hierarchy.l2Port().contentionCycles();
    if (state.result.coreCycles.empty())
        state.result.coreCycles.push_back(state.result.cycles);

    // Digest of the architected memory image, for the sandboxing
    // invariant (PathExpander must not perturb it): a four-lane
    // FNV-1a over the image.  Engine.MemoryDigestIsPinned and
    // MainMemory.DigestMatchesFlatImage pin its value, and so do the
    // benchmark's recorded digests.
    state.result.memoryDigest = state.memory.digest();
    return std::move(state.result);
}

namespace
{

/**
 * Execute one NT-Path inline on the primary core (standard
 * configuration, Figure 4(a)).
 *
 * The caller has already decided to spawn: the register checkpoint is
 * taken here, execution redirects onto the non-taken edge with the
 * NT-entry predicate optionally armed, all stores go to a fresh
 * versioned buffer, and on termination everything but the monitor
 * area rolls back.
 *
 * @return cycles consumed (charged to the single core, serially).
 */
uint64_t
exploreNtInline(const isa::Program &program, const PeConfig &cfg,
                const sim::DecodedProgram &decoded,
                PathExpanderEngine::RunState &state,
                detect::Detector *detector,
                const sim::StepResult &branchRes, uint64_t startCycle)
{
    RunResult &result = state.result;
    sim::Core &core = state.primary;

    uint64_t cycles = 0;
    const bool sw = softwareCosts(cfg);
    cycles += sw ? cfg.swCosts.checkpointCost : cfg.timing.spawnOverhead;

    auto checkpoint = checkpoint::take(core);

    bool ntDir = ntEdgeDir(branchRes);
    core.pc = ntEdgeTarget(branchRes);
    core.ntEntryPred = cfg.variableFixing;

    mem::VersionedBuffer buf(1);
    mem::MemCtx ctx(state.memory, &buf);
    detect::ObjectRegistry overlay(&state.registry);

    // With the sandboxIo extension the NT-Path runs against a
    // speculative copy of the I/O channel, discarded at squash; the
    // copy is only made when that extension is on.
    sim::IoChannel specIo;
    if (cfg.sandboxIo)
        specIo = result.io;
    sim::IoChannel &ntIo = cfg.sandboxIo ? specIo : result.io;
    const bool allowIo = cfg.sandboxIo;

    result.coverage.onNtEdge(branchRes.pc, ntDir);

    NtPathRecord record;
    record.spawnBranchPc = branchRes.pc;
    record.spawnEdgeTaken = ntDir;

    const uint32_t l1Capacity = state.hierarchy.l1LineCapacity();
    const bool useBlocks = !cfg.legacyStepLoop;
    const uint64_t dilation = blockDilation(cfg);

    for (;;) {
        if (cancelRequested(state)) {
            // The whole run is being cancelled; squash this NT-Path
            // now so the caller sees a consistent (rolled-back)
            // architected state.
            record.cause = NtStopCause::HostAbort;
            break;
        }
        if (record.length >= cfg.maxNtPathLength) {
            record.cause = NtStopCause::MaxLength;
            break;
        }
        if (useBlocks &&
            decoded.startsBlock(core.pc, /*execBranches=*/false,
                                detector == nullptr)) {
            // Straight-line stretch: no StepResult, no engine
            // round-trip.  Block-safe instructions cannot write the
            // versioned buffer, so the capacity check cannot trip
            // mid-block.
            sim::BlockOut blk = sim::runBlock(
                decoded, core,
                blockCap(state, cfg.maxNtPathLength - record.length),
                UINT64_MAX, /*perInstExtra=*/0, nullptr,
                detector == nullptr);
            if (blk.instructions) {
                record.length += blk.instructions;
                result.ntInstructions += blk.instructions;
                cycles += blk.cycles + dilation * blk.instructions;
                continue;   // re-check the length bound first
            }
        }
        sim::StepResult res =
            sim::step(decoded, core, ctx, ntIo, allowIo, cfg.layout);
        if (res.crashed()) {
            // The exception is swallowed, never delivered to the OS.
            record.cause = NtStopCause::Crash;
            record.crashKind = res.crash;
            break;
        }
        if (res.unsafeEvent) {
            record.cause = NtStopCause::UnsafeEvent;
            break;
        }

        ++record.length;
        ++result.ntInstructions;
        cycles += chargeStep(program, cfg, state, detector, /*core=*/0,
                             res, startCycle + cycles, /*inNt=*/true);
        routeEvents(program, cfg, state, detector, overlay, ctx, res,
                    /*fromNt=*/true, branchRes.pc);

        if (res.exited) {
            record.cause = NtStopCause::ProgramEnd;
            break;
        }

        if (res.branch) {
            bool followed = res.branchTaken;
            if (cfg.followNonTakenInNt &&
                state.btb.count(res.pc, !res.branchTaken) == 0) {
                // Ablation: redirect onto the cold non-taken edge.
                followed = !res.branchTaken;
                core.pc = followed ? res.branchTarget
                                   : res.branchFallthrough;
                state.btb.increment(res.pc, followed);
            }
            result.coverage.onNtEdge(res.pc, followed);
        }

        if (buf.numLines() > l1Capacity) {
            record.cause = NtStopCause::CapacityOverflow;
            break;
        }
    }

    // Squash: gang-invalidate the Vtag lines, restore the checkpoint,
    // drop the registry overlay.  Only the monitor area survives.
    if (sw) {
        cycles += cfg.swCosts.restoreRegsCost +
                  cfg.swCosts.ntRestorePerWord * buf.numWords();
    } else {
        cycles += cfg.timing.squashOverhead;
    }
    checkpoint::restore(core, checkpoint);

    result.ntRecords.push_back(record);
    return cycles;
}

} // namespace

void
PathExpanderEngine::runInline(RunState &state)
{
    RunResult &result = state.result;
    sim::Core &core = state.primary;
    mem::MemCtx ctx(state.memory, nullptr);

    uint64_t &cycles = result.cycles;
    const bool peActive = cfg.mode != PeMode::Off;
    const bool useBlocks = !cfg.legacyStepLoop;
    const uint64_t dilation = blockDilation(cfg);

    // Self-pruning engages only in regimes where the saturation
    // predicate's no-op proof holds (see maybePromote): the Standard
    // main path, no random spawn factor to consume RNG draws at a
    // pruned branch, no NT redirect ablation reading frozen counters
    // from NT-Paths, and a threshold within the counter range so "at
    // cap" really does freeze the spawn compare false.
    // Branch tracing needs every conditional branch to surface from
    // the bulk dispatch paths (blocks run them silently, superblocks
    // even more so); the result bits are unchanged, only the
    // execution strategy slows down.
    const bool traceEdges = cfg.recordEdgeTrace;
    const bool pruneActive =
        useBlocks && peActive && cfg.selfPrune && !traceEdges &&
        cfg.randomSpawnFraction == 0.0 && !cfg.followNonTakenInNt &&
        cfg.ntPathCounterThreshold <= state.btb.maxCount();
    if (pruneActive) {
        state.superblocks = std::make_unique<sim::SuperblockCache>(
            decoded, pruneElig.branchEligible);
    }

    for (;;) {
        if (cancelRequested(state)) {
            result.aborted = true;
            result.stopCause = RunStopCause::Deadline;
            break;
        }
        if (result.takenInstructions >= cfg.maxTakenInstructions) {
            result.hitInstructionLimit = true;
            result.stopCause = RunStopCause::InstructionLimit;
            break;
        }

        // Self-pruned dispatch: the pruned image runs straight-line
        // work *and* promoted (saturated) branches in one loop with
        // no coverage writes, counter bumps or spawn checks.  The
        // budget is clipped to the counter-reset boundary so a reset
        // lands at the exact instruction the per-step loop would
        // reset at — a superblock must not execute branches that
        // belong to the post-reset (demoted) regime.
        if (pruneActive) {
            state.superblocks->syncEpoch(state.btb.resetEpoch());
            if (!core.ntEntryPred &&
                state.superblocks->startsSuper(core.pc,
                                               detector == nullptr)) {
                const uint64_t budget = std::min(
                    cfg.maxTakenInstructions - result.takenInstructions,
                    cfg.counterResetInterval - state.sinceCounterReset);
                sim::SuperOut so = sim::runSuperblock(
                    *state.superblocks, core, blockCap(state, budget),
                    detector == nullptr);
                if (so.instructions) {
                    result.takenInstructions += so.instructions;
                    result.prunedInstructions += so.instructions;
                    state.sinceCounterReset += so.instructions;
                    cycles += so.cycles + dilation * so.instructions;
                    if (softwareCosts(cfg)) {
                        cycles += cfg.swCosts.branchAnalysisCost *
                                  so.branches;
                    }
                    if (state.sinceCounterReset >=
                        cfg.counterResetInterval) {
                        state.btb.resetCounters();
                        state.sinceCounterReset = 0;
                    }
                    continue;   // re-check the instruction limit first
                }
            }
        }

        // With PE off, a branch's whole effect is opcode cost plus a
        // coverage bit, so blocks run straight through them: pass the
        // run's coverage tracker as the in-block branch sink.
        // Likewise Chkb/Assert are inert without a detector.
        const bool branchesInBlock = !peActive && !traceEdges;
        if (useBlocks &&
            decoded.startsBlock(core.pc, branchesInBlock,
                                detector == nullptr)) {
            sim::BlockOut blk = sim::runBlock(
                decoded, core,
                blockCap(state, cfg.maxTakenInstructions -
                                    result.takenInstructions),
                UINT64_MAX, /*perInstExtra=*/0,
                branchesInBlock ? &result.coverage : nullptr,
                detector == nullptr);
            if (blk.instructions) {
                result.takenInstructions += blk.instructions;
                state.sinceCounterReset += blk.instructions;
                cycles += blk.cycles + dilation * blk.instructions;
                // The per-step loop resets the BTB counters at every
                // interval crossing; with no branch (hence no counter
                // bump) inside a block, folding the crossings into
                // one reset plus a modulo is bit-identical.
                if (peActive && state.sinceCounterReset >=
                                    cfg.counterResetInterval) {
                    state.btb.resetCounters();
                    state.sinceCounterReset %= cfg.counterResetInterval;
                }
                continue;   // re-check the instruction limit first
            }
        }

        sim::StepResult res = sim::step(decoded, core, ctx, result.io,
                                        /*allowIo=*/true, cfg.layout);
        if (res.crashed()) {
            result.programCrashed = true;
            result.programCrashKind = res.crash;
            result.stopCause = RunStopCause::Crashed;
            break;
        }
        pe_assert(!res.unsafeEvent, "unsafe event on the taken path");

        ++result.takenInstructions;
        ++state.sinceCounterReset;
        cycles += chargeStep(program, cfg, state, detector, /*core=*/0,
                             res, cycles, /*inNt=*/false);
        routeEvents(program, cfg, state, detector, state.registry, ctx,
                    res, /*fromNt=*/false, 0);

        if (res.exited)
            break;

        if (res.branch) {
            result.coverage.onTakenEdge(res.pc, res.branchTaken);
            if (traceEdges) {
                result.recordBranchEvent(res.pc, res.branchTaken,
                                         cfg.edgeTraceCap);
            }

            if (peActive) {
                state.btb.increment(res.pc, res.branchTaken);
                bool ntDir = ntEdgeDir(res);
                if (shouldSpawn(cfg, state, decoded, res.pc, ntDir)) {
                    // Exercise counters are also bumped at the entry
                    // of an NT-Path (Section 4.2).
                    state.btb.increment(res.pc, ntDir);
                    ++result.ntPathsSpawned;
                    cycles += exploreNtInline(program, cfg, decoded,
                                              state, detector, res,
                                              cycles);
                }
                // The bookkeeping above may have been the branch's
                // last observable act; if so, hand it to the pruned
                // image.
                if (pruneActive)
                    maybePromote(state, decoded, res.pc);
            }
        }

        if (peActive &&
            state.sinceCounterReset >= cfg.counterResetInterval) {
            state.btb.resetCounters();
            state.sinceCounterReset = 0;
        }
    }
}

uint64_t
baselineCycles(const isa::Program &program,
               const std::vector<int32_t> &input,
               const sim::MachineLayout &layout)
{
    PeConfig cfg = PeConfig::forMode(PeMode::Off);
    cfg.layout = layout;
    PathExpanderEngine engine(program, cfg, nullptr);
    return engine.run(input).cycles;
}

} // namespace pe::core
