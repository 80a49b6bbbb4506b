/**
 * @file
 * PathExpander engine: construction, the run entry point and the
 * inline driver, which runs the baseline and the standard (inline
 * checkpoint/rollback) configuration.  The CMP driver lives in cmp.cc;
 * both move their paths through engine_impl.hh's PathAdvancer.
 */

#include "src/core/engine.hh"

#include <bit>
#include <mutex>
#include <unordered_set>

#include "src/analysis/priors.hh"
#include "src/checkpoint/checkpoint.hh"
#include "src/core/engine_impl.hh"
#include "src/support/status.hh"

namespace pe::core
{

using namespace engine_detail;

PathExpanderEngine::PathExpanderEngine(const isa::Program &prog,
                                       const PeConfig &config,
                                       detect::Detector *det)
    : program(prog), cfg(config), detector(det),
      decoded(prog, config.timing)
{
    if (cfg.numCores < 1)
        pe_fatal("the engine needs at least one core, got ", cfg.numCores);
    if (cfg.maxNtPathLength < 1) {
        pe_fatal("MaxNTPathLength must be at least 1, got ",
                 cfg.maxNtPathLength);
    }
    // The stack must hold the 16 words above the initial SP and leave
    // a heap below it; otherwise heapLimit() wraps or reaches zero.
    if (cfg.layout.stackWords < 16 ||
        cfg.layout.stackWords >= cfg.layout.memWords) {
        pe_fatal("machine layout needs 16 <= stackWords < memWords, got "
                 "stackWords ", cfg.layout.stackWords, " and memWords ",
                 cfg.layout.memWords);
    }

    // The BTB indexes its sets with the PC's low bits.
    const branch::BtbParams &btb = cfg.btbParams;
    if (btb.ways < 1)
        pe_fatal("BTB needs at least one way, got ", btb.ways);
    if (btb.entries % btb.ways != 0) {
        pe_fatal("BTB entries must be a multiple of its ways, got ",
                 btb.entries, " entries and ", btb.ways, " ways");
    }
    if (!std::has_single_bit(btb.entries / btb.ways)) {
        pe_fatal("BTB set count (entries / ways) must be a power of two, "
                 "got ", btb.entries / btb.ways, " sets");
    }
    if (btb.counterBits < 1 || btb.counterBits > 8) {
        pe_fatal("BTB exercise counters need 1 to 8 bits, got ",
                 static_cast<unsigned>(btb.counterBits));
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

namespace engine_detail
{

uint64_t
PathAdvancer::retire(const sim::StepResult &res, int coreId, uint64_t now,
                     mem::MemCtx &ctx, NtPath *nt)
{
    uint64_t cycles = sim::opcodeCost(cfg.timing, res.op);
    const bool mem = res.memRead || res.memWrite;
    if (mem) {
        cycles +=
            state.hierarchy.accessLatency(coreId, res.memAddr, now + cycles);
    }
    if (sw) {
        const SoftwareCostParams &costs = cfg.swCosts;
        cycles += costs.perInstructionDilation;
        if (res.branch)
            cycles += costs.branchAnalysisCost;
        if (nt && res.memWrite)
            cycles += costs.ntWriteLogCost;
    }

    detect::ObjectRegistry &registry = nt ? nt->overlay : state.registry;
    if (res.registeredObject)
        registry.registerObject(res.objBase, res.objSize, res.objKind);
    if (res.unregisteredObject)
        registry.unregisterObject(res.objBase);

    if (!detector || !(mem || res.boundsCheck || res.assertFired))
        return cycles;
    if (mem)
        cycles += detector->memAccessCost();
    if (res.boundsCheck)
        cycles += detector->boundsCheckCost();

    detect::DetectCtx dctx;
    dctx.program = &program;
    dctx.registry = &registry;
    dctx.monitor = &state.result.monitor;
    dctx.pc = res.pc;
    dctx.fromNtPath = nt != nullptr;
    dctx.ntSpawnPc = nt ? nt->spawnPc : 0;
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
    return cycles;
}

} // namespace engine_detail

void
PathExpanderEngine::runInline(RunState &state)
{
    RunResult &result = state.result;
    sim::Core &core = state.primary;
    mem::MemCtx ctx(state.memory, nullptr);
    PathAdvancer paths(program, cfg, decoded, detector, state);
    const bool sw = softwareCosts(cfg);

    // The standard configuration (Figure 4(a)): the NT-Path runs to its
    // end on this core, between a register checkpoint and its restore.
    // Its stores go to a fresh versioned buffer and everything but the
    // monitor area rolls back; its cycles are charged to the one core,
    // serially.
    auto exploreNt = [&](const sim::StepResult &branch) {
        result.cycles +=
            sw ? cfg.swCosts.checkpointCost : cfg.timing.spawnOverhead;
        const auto checkpoint = checkpoint::take(core);
        NtPath path(1, &state.registry, branch);
        paths.enterNt(branch, core, path);
        std::optional<NtEnd> end;
        while (!end) {
            // A cancelled run squashes its NT-Path now, so the caller
            // sees a consistent (rolled-back) architected state.
            if (cancelRequested(state)) {
                end = NtEnd{NtStopCause::HostAbort};
            } else {
                end = paths.advanceNt(core, path, 0, result.cycles,
                                      UINT64_MAX, /*hitOnly=*/false);
            }
        }
        // Squash: gang-invalidate the Vtag lines, restore the
        // checkpoint, drop the registry overlay.
        if (sw) {
            result.cycles += cfg.swCosts.restoreRegsCost +
                             cfg.swCosts.ntRestorePerWord *
                                 path.buf.numWords();
        } else {
            result.cycles += cfg.timing.squashOverhead;
        }
        checkpoint::restore(core, checkpoint);
        paths.recordNt(path, *end);
    };

    for (;;) {
        if (cancelRequested(state)) {
            result.aborted = true;
            result.stopCause = RunStopCause::Deadline;
            break;
        }
        if (!paths.advanceTaken(result.cycles, ctx, /*hitOnly=*/false,
                                exploreNt)) {
            break;
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
