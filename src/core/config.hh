/**
 * @file
 * PathExpander configuration.
 *
 * Defaults reproduce the paper's experimental setup (Section 6.3):
 * MaxNTPathLength = 1000 instructions (100 for the small Siemens
 * benchmarks), NTPathCounterThreshold = 5, MaxNumNTPaths = 32 for the
 * CMP option, and a 4-core CMP.
 */

#ifndef PE_CORE_CONFIG_HH
#define PE_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/branch/btb.hh"
#include "src/sim/interpreter.hh"
#include "src/sim/timing.hh"

namespace pe::core
{

/** Which PathExpander implementation runs. */
enum class PeMode : uint8_t
{
    Off,        //!< baseline: plain monitored run, no NT-Paths
    Standard,   //!< Figure 4(a): checkpoint, run NT-Path inline, roll back
    Cmp,        //!< Figure 4(b): NT-Paths on idle cores of the CMP
};

const char *peModeName(PeMode mode);

/** Hardware extension vs. PIN-style software implementation. */
enum class CostModelKind : uint8_t
{
    Hardware,   //!< Section 4: the proposed hardware extensions
    Software,   //!< Section 5: dynamic binary instrumentation
};

/**
 * Cycle costs of the PIN-based software implementation (Section 5).
 * Values reflect published dynamic-binary-instrumentation costs: a
 * per-instruction JIT/code-cache dilation, an analysis routine with a
 * hash-table lookup on every branch, processor-state checkpointing
 * through the PIN API, and an old-value restore log for every NT-Path
 * store.
 */
struct SoftwareCostParams
{
    uint64_t perInstructionDilation = 8;
    uint64_t branchAnalysisCost = 250;
    uint64_t checkpointCost = 4000;
    uint64_t ntWriteLogCost = 100;
    uint64_t ntRestorePerWord = 100;
    uint64_t restoreRegsCost = 800;
};

/** Full engine configuration. */
struct PeConfig
{
    PeMode mode = PeMode::Standard;
    CostModelKind costModel = CostModelKind::Hardware;

    /** Termination condition 1: resource bound per NT-Path. */
    uint32_t maxNtPathLength = 1000;

    /** Spawn when the non-taken edge's exercise count is below this. */
    uint8_t ntPathCounterThreshold = 5;

    /** CMP option: bound on outstanding (running + queued) NT-Paths. */
    uint32_t maxNumNtPaths = 32;

    /** Reset the BTB exercise counters every this many instructions. */
    uint64_t counterResetInterval = 1'000'000;

    /**
     * Arm the NT-entry predicate at NT-Path entrances so the
     * compiler's Pfix/Pfixst instructions execute (Section 4.4).
     * Disabled for the "before consistency fixing" runs of Table 5
     * and the Figure 3 latency probes.
     */
    bool variableFixing = true;

    /**
     * Ablation of the Section 4.2 design choice: when true, an
     * NT-Path redirects onto cold non-taken edges at branches it
     * encounters instead of following the actual outcome.
     */
    bool followNonTakenInNt = false;

    /**
     * Extension of the Section 7.1 discussion ("this problem can be
     * addressed by adding random factor into PathExpander's NT-Path
     * selection"): even when an edge's exercise counter has reached
     * the threshold, spawn with this probability.  0 disables the
     * random factor (the paper's prototype).  Deterministic per run.
     */
    double randomSpawnFraction = 0.0;

    /** Seed for the random spawn factor. */
    uint64_t randomSpawnSeed = 0x9e3779b97f4a7c15ull;

    /**
     * Extension of the Section 3.2 discussion: with OS support,
     * unsafe events could be sandboxed too ("more than 90% of
     * NT-Paths may potentially execute up to 1000 instructions").
     * When true, an NT-Path performs I/O against a speculative copy
     * of the I/O channel that is discarded at squash, instead of
     * being terminated by the unsafe event.
     */
    bool sandboxIo = false;

    /** CMP option: total cores (1 primary + idle cores for NT-Paths). */
    int numCores = 4;

    /** Safety net against runaway workloads. */
    uint64_t maxTakenInstructions = 500'000'000;

    /** CMP: force-squash the oldest NT-Path beyond this segment depth. */
    uint32_t maxSegmentDepth = 48;

    /**
     * Functions whose branches never spawn NT-Paths (paper Section
     * 6.2: "we just need to tag those checking functions in advance
     * so that PathExpander does not spawn NT-Paths within them").
     * Our evaluated detectors are single instructions, so this is
     * empty by default; software checkers with instrumented checking
     * routines list them here.
     */
    std::vector<std::string> noSpawnFuncs;

    /**
     * Static spawn pre-filter (src/analysis/priors.hh): at engine
     * construction, mark branch edges whose straight-line NT
     * continuation provably hits a syscall before doing any work, and
     * refuse to spawn those NT-Paths.  Changes which NT-Paths run
     * (the doomed edge's coverage bit is never recorded and its BTB
     * counter never saturates), so it is opt-in and part of
     * configHash().
     */
    bool spawnPreFilter = false;

    /**
     * Retired: self-pruning is gone, since the block loop retires every
     * branch that would not spawn, and nothing reads this flag.  It
     * stays only until the benchmark's Standard arm stops setting it;
     * configHash() hashes a constant false in its slot.
     */
    bool selfPrune = false;

    /**
     * Record the taken-path branch-decision stream into
     * RunResult::branchTrace: one (pc << 1) | taken word per executed
     * conditional branch, in order, capped at edgeTraceCap events.
     * The block tier appends the words of the branches it retires
     * through its branch port, so tracing changes no result and keeps
     * branches in the block loop.  Part of configHash() as an
     * engine-behavior input.
     */
    bool recordEdgeTrace = false;

    /**
     * Cap on recorded branchTrace events per run (~1 MiB at the
     * default); overflow sets RunResult::branchTraceTruncated.
     */
    uint32_t edgeTraceCap = 1u << 18;

    /**
     * Test hook: force the legacy one-instruction-at-a-time
     * execution loop instead of the pre-decoded block-stepped loop
     * (`sim::runBlock`).  The two loops are bit-identical by
     * contract — `tests/block_step_test.cpp` proves it across every
     * workload and a random-program sweep — so this knob selects an
     * execution *strategy*, not a behavior, and is deliberately
     * excluded from configHash().
     */
    bool legacyStepLoop = false;

    sim::MachineLayout layout;
    branch::BtbParams btbParams;
    sim::TimingConfig timing = sim::TimingConfig::standardConfig();
    SoftwareCostParams swCosts;

    /** Paper-default configuration for @p m. */
    static PeConfig forMode(PeMode m);
};

/**
 * FNV-1a digest over every field of @p cfg (including the nested
 * timing, layout, BTB and software-cost parameters).  Two configs
 * hash equal iff they run the engine identically, so benches and the
 * exploration JSONL stamp this into their output to make result
 * trajectories comparable across machines and revisions.
 */
uint64_t configHash(const PeConfig &cfg);

} // namespace pe::core

#endif // PE_CORE_CONFIG_HH
