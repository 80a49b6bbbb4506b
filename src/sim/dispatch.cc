/**
 * @file
 * The bulk dispatch loop: the block tier, `runBlock`.
 *
 * One computed-goto loop with one label per opcode-table row runs
 * every block-safe instruction; execute() gives each table class its
 * semantics.  Two optional operands opt more of the program into the
 * loop: a memory port (loads and stores) and a branch port (every
 * conditional branch that would not spawn an NT-Path).  Two choices
 * made once per call select one of four instantiations of the loop, so
 * no loop carries a per-instruction test for a choice it did not get:
 * a hit-only memory port, and a finite cycle budget.  The loop needs
 * no per-instruction PC bound either: runBlock tests the entry PC, and
 * the decoded image ends in a Surface sentinel.
 */

#include <iterator>

#include "src/branch/btb.hh"
#include "src/coverage/coverage.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/sim/decoded.hh"

#if !defined(__GNUC__) && !defined(__clang__)
#error "the bulk dispatch loop needs labels-as-values (GCC or Clang)"
#endif

namespace pe::sim
{

namespace
{

/** The operands of one runBlock call that execute() consults. */
struct Block
{
    const BranchPort *branches;
    bool inertChecks;
    const MemPort *port;
    /** The port core's L1 and hit latency, resolved once per call. */
    mem::Cache *l1;
    uint64_t l1Latency;
};

/** What execute() did with one instruction. */
enum class Exec : uint8_t
{
    Surface,    //!< changed nothing: sim::step must run it
    Retired,    //!< retired; the block goes on
    Last,       //!< retired; the block ends after it
};

/**
 * Retire the conditional branch @p di at @p pc, resolved @p taken,
 * through @p br, a port of any kind but Coverage, and add its extra
 * cycles to @p cycles; or change nothing and return false when it
 * would spawn.
 */
[[gnu::always_inline]] inline bool
retireBranch(const BranchPort &br, const DecodedInst &di, uint32_t pc,
             bool taken, uint64_t &cycles)
{
    if (br.kind == BranchPort::Kind::Nt) {
        br.coverage->onNtEdge(pc, taken);
    } else {
        if (br.btb) {
            // shouldSpawn's static legs: a no-spawn branch or a doomed
            // non-taken edge never spawns, whatever its count.
            const uint8_t waived =
                DecodedInst::FlagNoSpawn |
                (taken ? DecodedInst::FlagDoomedFall
                       : DecodedInst::FlagDoomedTaken);
            const uint8_t spawnBelow =
                (di.flags & waived) ? 0 : br.threshold;
            if (!br.btb->bumpUnlessBelow(pc, taken, spawnBelow))
                return false;   // would spawn: sim::step redoes it
        }
        br.coverage->onTakenEdge(pc, taken);
        if (br.trace) {
            if (br.trace->size() < br.traceCap)
                br.trace->push_back((pc << 1) | (taken ? 1u : 0u));
            else
                *br.traceTruncated = true;
        }
    }
    cycles += br.branchExtra;
    return true;
}

/**
 * Execute @p di, whose opcode-table class is C, advance @p pc and add
 * any memory latency to @p cycles, the effective cycles the block has
 * retired before @p di — or change nothing when it must surface.
 * Pfix and Pfixst reach here only with the NT-entry predicate clear,
 * where they retire as opcode-cost NOPs.  HitOnly is the memory
 * port's hitOnly flag.
 */
template <OpClass C, bool HitOnly, class Expr>
[[gnu::always_inline]] inline Exec
execute(const Block &blk, Core &core, const DecodedInst &di,
        uint32_t codeSize, uint32_t &pc, uint64_t &cycles, Expr expr)
{
    auto a = [&] { return core.readReg(di.rs1); };
    auto b = [&] {
        return C == OpClass::Imm ? di.imm : core.readReg(di.rs2);
    };
    uint32_t next = pc + 1;
    if constexpr (C == OpClass::Surface) {
        return Exec::Surface;
    } else if constexpr (C == OpClass::Alu || C == OpClass::Imm) {
        core.writeReg(di.rd, expr(a(), b()));
    } else if constexpr (C == OpClass::Trap) {
        const int32_t divisor = b();
        if (divisor == 0)
            return Exec::Surface;   // step() raises DivByZero
        core.writeReg(di.rd, expr(a(), divisor));
    } else if constexpr (C == OpClass::Branch) {
        const BranchPort *const br = blk.branches;
        if (!br)
            return Exec::Surface;
        const bool taken = expr(a(), b());
        // PathExpander off and untraced, tested first and laid out as
        // the fall-through: the coverage bit is all, and the PE-off
        // loop pays nothing for the rest.
        if (br->kind == BranchPort::Kind::Coverage) [[likely]]
            br->coverage->onTakenEdge(pc, taken);
        else if (!retireBranch(*br, di, pc, taken, cycles))
            return Exec::Surface;
        if (taken)
            next = static_cast<uint32_t>(di.imm);   // valid: decode
    } else if constexpr (C == OpClass::Jump || C == OpClass::Link) {
        if constexpr (C == OpClass::Link)
            core.writeReg(di.rd, static_cast<int32_t>(pc + 1));
        next = static_cast<uint32_t>(di.imm);       // valid: decode
    } else if constexpr (C == OpClass::JumpReg) {
        const int32_t target = a();
        if (target < 0 || static_cast<uint32_t>(target) >= codeSize)
            return Exec::Surface;   // step() raises BadJump
        next = static_cast<uint32_t>(target);
    } else if constexpr (C == OpClass::Check) {
        // Nothing consumes Chkb/Assert events without a detector.
        if (!blk.inertChecks)
            return Exec::Surface;
    } else if constexpr (C == OpClass::Load || C == OpClass::Store) {
        // Without a detector an access changes a register or the
        // path's write set, and the cache model.
        if (!blk.port)
            return Exec::Surface;
        const MemPort &port = *blk.port;
        const auto addr = static_cast<uint32_t>(wrapAdd(a(), di.imm));
        if constexpr (HitOnly) {
            // Only what stays on this core runs: an L1 hit, and a
            // store that cannot overflow the write set.  The rest
            // surfaces untouched, for the caller to step in order.
            if (!port.ctx.valid(addr))
                return Exec::Surface;   // step() raises BadAddress
            if constexpr (C == OpClass::Store) {
                const mem::VersionedBuffer *buf = port.ctx.buffer();
                if (buf && buf->numLines() >= port.ntLineBound)
                    return Exec::Surface;
            }
            if (!blk.l1->accessIfHit(addr))
                return Exec::Surface;
        }
        if constexpr (C == OpClass::Load) {
            int32_t value;
            if (!port.ctx.tryRead(addr, value))
                return Exec::Surface;   // step() raises BadAddress
            core.writeReg(di.rd, value);
        } else if (!port.ctx.tryWrite(addr, b())) {
            return Exec::Surface;       // step() raises BadAddress
        }
        // A miss is issued at the instruction's start clock plus its
        // opcode cost: the `now + cost` the engine's `retire` passes.
        // A hit's latency does not depend on it.
        if (HitOnly || blk.l1->access(addr)) [[likely]] {
            cycles += blk.l1Latency;
        } else {
            cycles += port.hierarchy.missLatency(
                addr, port.startCycle + cycles + di.cost);
        }
        if constexpr (C == OpClass::Store) {
            cycles += port.ntStoreCost;
            const mem::VersionedBuffer *buf = port.ctx.buffer();
            if (!HitOnly && buf && buf->numLines() > port.ntLineBound) {
                pc = next;
                return Exec::Last;      // the caller stops the path
            }
        }
    }
    pc = next;
    return Exec::Retired;
}

/**
 * runBlock's loop from an in-range PC; HitOnly is the memory port's
 * hitOnly flag and Budgeted whether the cycle budget is finite.
 */
template <bool HitOnly, bool Budgeted>
BlockOut
runLoop(const DecodedProgram &decoded, Core &core,
        const uint64_t maxInstructions, const uint64_t cycleBudget,
        const uint64_t perInstExtra, const BranchPort *branches,
        bool inertChecks, const MemPort *port)
{
    const Block blk{branches, inertChecks, port,
                    port ? &port->hierarchy.l1(port->coreId) : nullptr,
                    port ? port->hierarchy.l1HitLatency() : 0};
    const DecodedInst *const insts = decoded.data();
    const uint32_t codeSize = decoded.size();
    uint64_t left = maxInstructions;
    uint32_t pc = core.pc;
    uint64_t cycles = 0;
    const DecodedInst *di;

    static const void *const kLabels[] = {
        &&H_Surface,
#define PE_LABEL(op, ...) &&H_##op,
        PE_OPCODE_TABLE(PE_LABEL, PE_LABEL)
#undef PE_LABEL
    };
    static_assert(std::size(kLabels) ==
                  static_cast<size_t>(HandlerKind::NumHandlerKinds));

    // Past the last instruction lies the Surface sentinel.
#define PE_NEXT()                                                       \
    do {                                                                \
        if (left == 0 || (Budgeted && cycles > cycleBudget))            \
            goto H_Surface;                                             \
        di = insts + pc;                                                \
        goto *kLabels[static_cast<uint8_t>(di->kind)];                  \
    } while (0)

    // NT-entrance prologue: while the predicate is set only the
    // leading predicated fixes run — Pfix performs its write, Pfixst
    // (a potential memory write) surfaces — and the first other
    // instruction clears it, exactly the per-step rule.
    while (core.ntEntryPred) [[unlikely]] {
        if (left == 0 || (Budgeted && cycles > cycleBudget))
            goto H_Surface;
        di = insts + pc;
        if (di->kind == HandlerKind::Surface ||
            di->cls == OpClass::FixStore) {
            goto H_Surface;
        }
        if (di->cls != OpClass::Fix) {
            core.ntEntryPred = false;
            break;
        }
        core.writeReg(di->rd, di->imm);
        --left;
        cycles += di->cost + perInstExtra;
        ++pc;
    }

    PE_NEXT();

#define PE_HANDLER(op, cls, field, ...)                                 \
  H_##op: {                                                             \
    const Exec done = execute<OpClass::cls, HitOnly>(                   \
        blk, core, *di, codeSize, pc, cycles,                           \
        []([[maybe_unused]] int32_t a, [[maybe_unused]] int32_t b) {    \
            return __VA_ARGS__;                                         \
        });                                                             \
    if (done == Exec::Surface)                                          \
        goto H_Surface;                                                 \
    --left;                                                             \
    cycles += di->cost + perInstExtra;                                  \
    if (done == Exec::Last)                                             \
        goto H_Surface;                                                 \
    PE_NEXT();                                                          \
  }

    PE_OPCODE_TABLE(PE_HANDLER, PE_HANDLER)
#undef PE_HANDLER
#undef PE_NEXT

  H_Surface:
    core.pc = pc;
    return {maxInstructions - left, cycles};
}

} // namespace

BlockOut
runBlock(const DecodedProgram &decoded, Core &core,
         const uint64_t maxInstructions, const uint64_t cycleBudget,
         const uint64_t perInstExtra, const BranchPort *branches,
         bool inertChecks, const MemPort *port)
{
    // The one PC bound test: from here on every PC the loop reaches is
    // in the image or its sentinel.
    if (core.pc >= decoded.size())
        return {};
    // No cycle count exceeds UINT64_MAX, so that budget is none.
    const bool budgeted = cycleBudget != UINT64_MAX;
    const auto loop =
        port && port->hitOnly
            ? (budgeted ? runLoop<true, true> : runLoop<true, false>)
            : (budgeted ? runLoop<false, true> : runLoop<false, false>);
    return loop(decoded, core, maxInstructions, cycleBudget, perInstExtra,
                branches, inertChecks, port);
}

} // namespace pe::sim
