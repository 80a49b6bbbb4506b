/**
 * @file
 * The pre-decoded program, the only decoder of the simulator.
 *
 * Everything knowable once per program moves out of the per-step
 * path: each `isa::Instruction` becomes a 16-byte DecodedInst with
 * its opcode-table HandlerKind (optable.hh), static branch and jump
 * targets are validated, the base cycle cost is precomputed, and the
 * engine's no-spawn ranges, doomed NT edges and self-pruning
 * eligibility fold into per-PC flags.
 *
 * Two tiers execute the image.  `sim::step` (interpreter.hh) runs any
 * instruction and reports a StepResult.  The block tier, `runBlock`
 * below, runs block-safe instructions in one dispatch loop
 * (dispatch.cc) without a StepResult, stopping *before* the first
 * instruction the engine must observe — detector hooks and memory ops
 * with a detector attached, syscalls, conditional branches that would
 * spawn or that it was not given, anything that would crash — which
 * surfaces to `sim::step`, so results are bit-identical to the
 * per-step loop by construction.  Besides a cycle budget and the
 * NT-entry predicate prologue, the block tier takes two opt-ins: a
 * memory port through which detector-free runs execute loads and
 * stores, and a branch port through which conditional branches
 * retire with their coverage bit, edge-trace word and, on the taken
 * path under PathExpander, their BTB counter bump.
 *
 * The dispatch loop uses computed goto, so it needs GCC or Clang.
 */

#ifndef PE_SIM_DECODED_HH
#define PE_SIM_DECODED_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/isa/program.hh"
#include "src/sim/core.hh"
#include "src/sim/optable.hh"
#include "src/sim/timing.hh"

namespace pe::branch
{
class Btb;
}

namespace pe::coverage
{
class BranchCoverage;
}

namespace pe::mem
{
class MemCtx;
}

namespace pe::sim
{

/**
 * How the block tier executes one instruction: `Surface`, or the kind
 * of its own opcode, one per opcode-table row.  Surface marks what the
 * tier never runs, which the engine runs through `sim::step` instead:
 * Surface-class opcodes and statically invalid branch and jump
 * targets.  Dense: the kinds index the dispatch loop's label table.
 */
enum class HandlerKind : uint8_t
{
    Surface = 0,
#define PE_KIND(op, ...) op,
    PE_OPCODE_TABLE(PE_KIND, PE_KIND)
#undef PE_KIND
    NumHandlerKinds
};

/** The kind of a bulk-executable instruction with opcode @p op. */
constexpr HandlerKind
handlerKind(isa::Opcode op)
{
    return static_cast<HandlerKind>(static_cast<uint8_t>(op) + 1);
}

// One opcode-table row per isa::Opcode, in opcode order.
static_assert(static_cast<size_t>(HandlerKind::NumHandlerKinds) ==
                  static_cast<size_t>(isa::Opcode::NumOpcodes) + 1,
              "one opcode-table row per isa::Opcode");
#define PE_IN_ORDER(op, ...)                                            \
    static_assert(HandlerKind::op == handlerKind(isa::Opcode::op),      \
                  "opcode-table rows follow isa::Opcode order");
PE_OPCODE_TABLE(PE_IN_ORDER, PE_IN_ORDER)
#undef PE_IN_ORDER

/** One pre-decoded instruction (16 bytes; hot-loop friendly). */
struct DecodedInst
{
    int32_t imm = 0;
    uint32_t cost = 0;          //!< opcodeCost(timing, op); 0 if Surface
    HandlerKind kind = HandlerKind::Surface;
    isa::Opcode op = isa::Opcode::Nop;  //!< what sim::step executes
    OpClass cls = OpClass::Surface;     //!< op's class, kept when Surface
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t flags = 0;

    static constexpr uint8_t FlagNoSpawn = 1u << 0;
    /** Static priors: spawning this branch's fall-through-direction
     *  NT-Path is provably useless (immediate syscall). */
    static constexpr uint8_t FlagDoomedFall = 1u << 1;
    /** Same, for the taken-direction NT-Path. */
    static constexpr uint8_t FlagDoomedTaken = 1u << 2;
    /** Self-pruning: this branch's BTB set can never evict, so the
     *  engine may promote it once it saturates
     *  (analysis::computeSaturationEligibility). */
    static constexpr uint8_t FlagPruneEligible = 1u << 3;
};

// The decoded array is the hottest data structure in the simulator:
// every tier streams it.  Pin the 16-byte layout so a future field
// can't silently fatten every program image and halve the
// instructions per cache line.
static_assert(sizeof(DecodedInst) == 16,
              "DecodedInst must stay 16 bytes (hot-loop array)");

/**
 * A program decoded once per engine against a fixed TimingConfig.
 * Read-only once the owning engine's constructor has folded its per-PC
 * flags in, so one instance is safely shared by every run of it.
 */
class DecodedProgram
{
  public:
    DecodedProgram() = default;

    /** Decode @p program's code against @p timing. */
    DecodedProgram(const isa::Program &program,
                   const TimingConfig &timing);

    /** Fold a no-spawn function range [@p startPc, @p endPc) in. */
    void markNoSpawn(uint32_t startPc, uint32_t endPc);

    /** True when branches at @p pc must not spawn NT-Paths. */
    bool noSpawn(uint32_t pc) const
    {
        return pc < codeLen &&
               (insts[pc].flags & DecodedInst::FlagNoSpawn) != 0;
    }

    /** Mark @p pc's @p takenDir NT edge as statically doomed. */
    void markDoomedEdge(uint32_t pc, bool takenDir)
    {
        if (pc < codeLen) {
            insts[pc].flags |= takenDir ? DecodedInst::FlagDoomedTaken
                                        : DecodedInst::FlagDoomedFall;
        }
    }

    /** True when the spawn pre-filter rejects @p pc's @p takenDir edge. */
    bool doomedEdge(uint32_t pc, bool takenDir) const
    {
        const uint8_t flag = takenDir ? DecodedInst::FlagDoomedTaken
                                      : DecodedInst::FlagDoomedFall;
        return pc < codeLen && (insts[pc].flags & flag) != 0;
    }

    /** Mark the branch at @p pc as eligible for self-pruning. */
    void markPruneEligible(uint32_t pc)
    {
        if (pc < codeLen)
            insts[pc].flags |= DecodedInst::FlagPruneEligible;
    }

    /** True when the branch at @p pc may ever be promoted. */
    bool pruneEligible(uint32_t pc) const
    {
        return pc < codeLen &&
               (insts[pc].flags & DecodedInst::FlagPruneEligible) != 0;
    }

    /**
     * True when the instruction at @p pc can start a block — the
     * engine's cheap pre-check that skips the runBlock call entirely
     * on surfacing-dense stretches (a zero-instruction call costs a
     * prologue and a writeback for nothing).  runBlock itself remains
     * correct without it.  @p execBranches mirrors whether the caller
     * will pass a branch port, @p inertChecks whether the run has no
     * detector and @p execMemory whether it will pass a memory port:
     * only then do conditional branches (respectively Chkb/Assert,
     * loads and stores) start a block.
     */
    bool startsBlock(uint32_t pc, bool execBranches = false,
                     bool inertChecks = false,
                     bool execMemory = false) const
    {
        if (pc >= codeLen)
            return false;
        const DecodedInst &di = insts[pc];
        return di.kind != HandlerKind::Surface &&
               (di.cls != OpClass::Check || inertChecks) &&
               (di.cls != OpClass::Branch || execBranches) &&
               ((di.cls != OpClass::Load && di.cls != OpClass::Store) ||
                execMemory);
    }

    /** The code length: the instructions data() holds before its
     *  sentinel. */
    uint32_t size() const { return codeLen; }
    const DecodedInst *data() const { return insts.data(); }

  private:
    /** The decoded code and, after it, one Surface sentinel, so the
     *  dispatch loop surfaces on falling off the end without a
     *  per-instruction bound test.  Empty when default-constructed. */
    std::vector<DecodedInst> insts;
    uint32_t codeLen = 0;
};

/**
 * A memory port: what the block tier needs to run loads and stores
 * itself instead of surfacing them.  Valid only for a run with no
 * detector, where an access's whole effect is a register or the
 * path's write set plus the cache model's latency.
 */
struct MemPort
{
    mem::MemCtx &ctx;               //!< the path's view of memory
    mem::MemHierarchy &hierarchy;   //!< the run's cache model
    int coreId = 0;                 //!< the core issuing the accesses
    uint64_t startCycle = 0;        //!< clock at the block's first inst
    /** A store that leaves ctx's buffer above this many L1 lines ends
     *  the block (an NT-Path's write-set bound; none on a taken path). */
    size_t ntLineBound = SIZE_MAX;
    uint64_t ntStoreCost = 0;       //!< extra cycles per retired store
    /** Hit-only: run only the accesses whose effects stay on this
     *  core.  A load or store whose line misses the core's L1, and a
     *  store into a buffer already holding ntLineBound lines, surface
     *  untouched instead.  Selects the dispatch loop's hit-only
     *  variant once per call, not a test per access. */
    bool hitOnly = false;
};

/**
 * A branch port: what the block tier needs to retire conditional
 * branches itself instead of surfacing them.  Each kind is the whole
 * effect a branch has in one regime, so retiring it in the loop
 * changes nothing the per-step path would not.
 */
struct BranchPort
{
    enum class Kind : uint8_t
    {
        /** PathExpander off, no edge trace: the taken-path coverage
         *  bit is the branch's whole effect. */
        Coverage,
        /** The taken path otherwise: the coverage bit, the edge trace
         *  when one is given and, when a BTB is given, the would-spawn
         *  check and the exercise-counter bump. */
        Taken,
        /** An NT-Path that follows branch outcomes: the NT coverage
         *  bit. */
        Nt,
    };

    Kind kind = Kind::Coverage;
    coverage::BranchCoverage *coverage = nullptr;
    /** The run's BTB under PathExpander (Taken only): a branch whose
     *  non-taken edge would spawn surfaces untouched; any other bumps
     *  its taken-edge counter in-loop.  Null with PathExpander off. */
    branch::Btb *btb = nullptr;
    uint8_t threshold = 0;          //!< ntPathCounterThreshold
    /** The taken-path edge trace (Taken only), or null: one
     *  (pc << 1) | taken word per branch up to traceCap words, after
     *  which *traceTruncated is set. */
    std::vector<uint32_t> *trace = nullptr;
    bool *traceTruncated = nullptr;
    uint32_t traceCap = 0;
    /** Cycles a branch costs beyond its base opcode cost (the
     *  software cost model's branch analysis; zero with PE off). */
    uint64_t branchExtra = 0;
    /** Self-pruning (Taken only): one flag per instruction, set on the
     *  promoted branches, which retire with no coverage write, trace
     *  word, counter bump or spawn check.  Null when not engaged. */
    const uint8_t *promoted = nullptr;
    uint64_t promotedRetired = 0;   //!< promoted branches run, summed
};

/** What one runBlock call retired in bulk. */
struct BlockOut
{
    uint64_t instructions = 0;  //!< instructions executed
    /** What the per-step loop charges for them: base opcode costs, the
     *  cost model's extras and, through a memory port, each access's
     *  latency and each store's ntStoreCost. */
    uint64_t cycles = 0;
};

/**
 * The block tier: execute consecutive block-safe instructions from
 * @p core.pc, stopping *before* the first instruction that must
 * surface to the engine and after at most @p maxInstructions.
 *
 * The returned cycle total is exactly what the legacy loop
 * accumulates through the engine's `retire` for these instructions:
 * their base opcode costs, @p perInstExtra per instruction (the
 * software cost model's dilation), each branch's `branchExtra` and,
 * for loads and stores run through @p port, the memory latency and
 * NT-store log cost.  The same running total is the block's clock,
 * which times memory accesses and meets the cycle budget.
 *
 * @p cycleBudget bounds the cycles the block may consume: an
 * instruction starts only while the cycles retired so far are <= the
 * budget.  The CMP driver bounds an NT core's block this way, so the
 * block starts no instruction at or after the primary core's clock;
 * the first instruction is always within budget (the caller was just
 * picked, so its clock is below the primary's).  UINT64_MAX is no
 * budget, and selects a loop with no per-instruction budget test.
 *
 * On return `core.pc` rests on the first unexecuted instruction and
 * the NT-entry predicate has been maintained exactly as the per-step
 * loop would have (cleared at the first non-fixing instruction;
 * leading Pfix instructions execute their writes).
 *
 * @p branches, when non-null, opts conditional branches into the
 * block.  Through a Taken port a promoted branch is tested for first:
 * it resolves, redirects, charges its base cost plus `branchExtra`,
 * adds one to `promotedRetired` and does nothing else.  Any other
 * branch resolves and does its port kind's work.  On the taken path
 * under PathExpander that starts with one BTB lookup: when the branch
 * would spawn — it is not in a no-spawn range, its non-taken edge is
 * not doomed, and that edge's count is below `threshold` — it
 * surfaces untouched and `sim::step` redoes it and spawns; otherwise
 * it bumps its counter.  Every retired branch then sets its coverage
 * bit, appends its trace word, charges `branchExtra` and redirects.
 * The caller keeps the BTB's counters and the promotion flags to this
 * block (no counter reset inside it), so it clips taken-path blocks
 * at the next reset.  When null, conditional branches surface.
 *
 * @p inertChecks, when true, asserts the run carries no detector, in
 * which case Chkb and Assert retire in-block as opcode-cost NOPs:
 * every consumer of their events (the detector's check cost and its
 * onBoundsCheck/onAssert dispatch, both in the engine's `retire`) is
 * gated on a detector being present.  When false they surface.
 *
 * @p port, when non-null, also asserts a detector-free run and opts
 * loads and stores into the block.  Each access goes through
 * `port->ctx` and is charged `hierarchy.accessLatency` at the
 * port's start cycle plus the cycles retired so far plus its opcode
 * cost — the `now + cost` the engine's `retire` passes, so shared port
 * waits come out the same.  The block looks up the port core's L1
 * once per call and runs a hit inline; only a miss calls out.  An
 * out-of-range address surfaces untouched (sim::step raises
 * BadAddress).  A store that leaves
 * ctx's buffer above `ntLineBound` lines retires and ends the block;
 * the caller stops the NT-Path before anything else runs.  Through a
 * hit-only port an access runs only when its line hits the core's L1
 * (charged the L1 hit latency, whatever the clock) and, for a store,
 * when ctx's buffer holds fewer than `ntLineBound` lines; any other
 * access surfaces with nothing changed, so no store overflows the
 * buffer in-block.  When null, loads and stores surface.
 */
BlockOut runBlock(const DecodedProgram &decoded, Core &core,
                  uint64_t maxInstructions,
                  uint64_t cycleBudget = UINT64_MAX,
                  uint64_t perInstExtra = 0,
                  BranchPort *branches = nullptr,
                  bool inertChecks = false,
                  const MemPort *port = nullptr);

} // namespace pe::sim

#endif // PE_SIM_DECODED_HH
