/**
 * @file
 * Edge operands through every execution tier.
 *
 * Every opcode runs through `sim::step` and through the block tier —
 * without a branch port, with a coverage-only one, and one
 * instruction per dispatch under a zero cycle budget; loads and
 * stores also with a memory port; branches also through every other
 * port kind (an NT-Path's, the taken path's with a BTB that does and
 * does not let them spawn, with an edge trace) and with their
 * promoted flag set and clear.
 * ALU, immediate and branch opcodes take every pair of INT32_MIN,
 * INT32_MAX, -1, 0, 1 and the shift amounts 31, 32 and -1.  Each
 * result is checked against a value computed here from
 * first principles (64-bit arithmetic, floor division), never from the
 * simulator's opcode table, which both tiers share: this is what
 * keeps the per-step loop an independent oracle for the block tier.
 * The memory port's boundary cases — bad addresses, the NT write-set
 * bound and shared L2 port waits — run through the engine against
 * the per-step loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/branch/btb.hh"
#include "src/core/engine.hh"
#include "src/coverage/coverage.hh"
#include "src/isa/instruction.hh"
#include "src/mem/hierarchy.hh"
#include "src/sim/interpreter.hh"
#include "tier_identity.hh"

namespace
{

using namespace pe;
using isa::Opcode;
using test::blockRunMatchesLegacy;

constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
constexpr int32_t kMax = std::numeric_limits<int32_t>::max();

/** First operands: the edges of the int32 range. */
const std::vector<int32_t> kEdges = {kMin, kMax, -1, 0, 1};
/** Second operands: the edges plus the shift amounts 31, 32 and -1. */
const std::vector<int32_t> kSecond = {kMin, kMax, -1, 0, 1, 31, 32};

const std::vector<Opcode> kAluOps = {
    Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div, Opcode::Rem,
    Opcode::And, Opcode::Or,  Opcode::Xor, Opcode::Shl, Opcode::Shr,
    Opcode::Sra, Opcode::Slt, Opcode::Sle, Opcode::Seq, Opcode::Sne,
    Opcode::Sgt, Opcode::Sge};
const std::vector<Opcode> kImmOps = {
    Opcode::Addi, Opcode::Andi, Opcode::Ori, Opcode::Xori,
    Opcode::Shli, Opcode::Shri, Opcode::Slti, Opcode::Li};
const std::vector<Opcode> kBranchOps = {
    Opcode::Beq, Opcode::Bne, Opcode::Blt,
    Opcode::Bge, Opcode::Ble, Opcode::Bgt};
/** Opcodes with a test of their own below. */
const std::vector<Opcode> kOtherOps = {
    Opcode::Nop,    Opcode::Jmp,    Opcode::Jal,      Opcode::Jr,
    Opcode::Chkb,   Opcode::Assert, Opcode::Pfix,     Opcode::Pfixst,
    Opcode::Ld,     Opcode::St,     Opcode::Alloc,    Opcode::Regobj,
    Opcode::Unregobj, Opcode::Sys};

/** Floor of @p x / 2^@p s. */
int64_t
floorShift(int64_t x, unsigned s)
{
    const int64_t d = int64_t{1} << s;
    int64_t q = x / d;
    if (x % d != 0 && x < 0)
        --q;
    return q;
}

/**
 * The architectural result of @p op on @p a and @p b (the immediate
 * for immediate opcodes); nullopt when the opcode traps.  Narrowing
 * from 64 bits is modular; shifts use the amount's low five bits.
 */
std::optional<int32_t>
reference(Opcode op, int32_t a, int32_t b)
{
    const int64_t x = a;
    const int64_t y = b;
    const unsigned s = static_cast<uint32_t>(b) % 32;
    switch (op) {
      case Opcode::Add: case Opcode::Addi:
        return static_cast<int32_t>(x + y);
      case Opcode::Sub: return static_cast<int32_t>(x - y);
      case Opcode::Mul: return static_cast<int32_t>(x * y);
      case Opcode::Div:
        if (b == 0)
            return std::nullopt;
        return static_cast<int32_t>(x / y);
      case Opcode::Rem:
        if (b == 0)
            return std::nullopt;
        return static_cast<int32_t>(x % y);
      case Opcode::And: case Opcode::Andi: return a & b;
      case Opcode::Or: case Opcode::Ori: return a | b;
      case Opcode::Xor: case Opcode::Xori: return a ^ b;
      case Opcode::Shl: case Opcode::Shli:
        return static_cast<int32_t>(
            static_cast<uint64_t>(static_cast<uint32_t>(a)) << s);
      case Opcode::Shr: case Opcode::Shri:
        return static_cast<int32_t>(
            floorShift(static_cast<uint32_t>(a), s));
      case Opcode::Sra: return static_cast<int32_t>(floorShift(x, s));
      case Opcode::Slt: case Opcode::Slti: return x < y;
      case Opcode::Sle: return x <= y;
      case Opcode::Seq: return x == y;
      case Opcode::Sne: return x != y;
      case Opcode::Sgt: return x > y;
      case Opcode::Sge: return x >= y;
      case Opcode::Li: return b;
      default:
        ADD_FAILURE() << "no reference for " << isa::opcodeName(op);
        return std::nullopt;
    }
}

bool
branchTaken(Opcode op, int32_t a, int32_t b)
{
    switch (op) {
      case Opcode::Beq: return a == b;
      case Opcode::Bne: return a != b;
      case Opcode::Blt: return a < b;
      case Opcode::Bge: return !(a < b);
      case Opcode::Ble: return !(b < a);
      case Opcode::Bgt: return b < a;
      default:
        ADD_FAILURE() << "not a branch: " << isa::opcodeName(op);
        return false;
    }
}

/** One loaded program and the state every tier runs against. */
struct Machine
{
    explicit Machine(std::vector<isa::Instruction> code)
        : memory(layout.memWords)
    {
        program.code = std::move(code);
        program.heapBase = 64;
        decoded = sim::DecodedProgram(program, sim::TimingConfig{});
        sim::loadProgram(program, memory, core, layout);
    }

    /** sim::step until exit, crash or @p limit steps; the last result. */
    sim::StepResult
    stepRun(int limit = 64)
    {
        sim::StepResult res;
        for (int i = 0; i < limit; ++i) {
            mem::MemCtx ctx(memory, buf);
            res = sim::step(decoded, core, ctx, io, true, layout);
            if (res.crashed() || res.exited)
                break;
        }
        return res;
    }

    /** The first step result that resolved a branch. */
    sim::StepResult
    stepToBranch()
    {
        sim::StepResult res;
        for (int i = 0; i < 64 && !res.branch; ++i) {
            mem::MemCtx ctx(memory, buf);
            res = sim::step(decoded, core, ctx, io, true, layout);
        }
        return res;
    }

    sim::BlockOut
    block(coverage::BranchCoverage *sink = nullptr, bool inert = true)
    {
        return sim::runBlock(decoded, core, 100, UINT64_MAX, 0,
                             coveragePort(sink), inert);
    }

    /**
     * The block tier with a memory port on core 0 from cycle 0 and the
     * branches at @p promotePcs promoted.
     */
    sim::BlockOut
    portBlock(const std::vector<uint32_t> &promotePcs = {})
    {
        mem::MemHierarchy hierarchy(1, mem::MemTimingParams{});
        mem::MemCtx ctx(memory, buf);
        const sim::MemPort port{ctx, hierarchy};
        return sim::runBlock(decoded, core, 100, UINT64_MAX, 0,
                             promote(promotePcs), true, &port);
    }

    /** The block tier with the branches at @p promotePcs promoted. */
    sim::BlockOut
    promotedBlock(const std::vector<uint32_t> &promotePcs = {})
    {
        return sim::runBlock(decoded, core, 100, UINT64_MAX, 0,
                             promote(promotePcs), true);
    }

    /** The block tier with branches through @p kind's port. */
    sim::BlockOut
    kindBlock(sim::BranchPort::Kind kind, uint8_t threshold = 0)
    {
        return sim::runBlock(decoded, core, 100, UINT64_MAX, 0,
                             port(kind, threshold), true);
    }

    /** A coverage-only branch port over @p sink, or null. */
    sim::BranchPort *
    coveragePort(coverage::BranchCoverage *sink)
    {
        if (!sink)
            return nullptr;
        branches = sim::BranchPort{};
        branches.coverage = sink;
        return &branches;
    }

    /**
     * A fresh branch port of @p kind over the fresh tracker cov.  A
     * Taken port gets the BTB btb, @p threshold, the edge trace trace
     * (cap 1) and a branch extra of 7 cycles; an Nt port the same
     * extra.
     */
    sim::BranchPort *
    port(sim::BranchPort::Kind kind, uint8_t threshold = 0)
    {
        cov.emplace(program);
        branches = sim::BranchPort{};
        branches.kind = kind;
        branches.coverage = &*cov;
        branches.branchExtra = 7;
        if (kind == sim::BranchPort::Kind::Taken) {
            branches.btb = &btb;
            branches.threshold = threshold;
            branches.trace = &trace;
            branches.traceTruncated = &truncated;
            branches.traceCap = 1;
        }
        return &branches;
    }

    /**
     * A taken-path port with the branches at @p pcs promoted, over a
     * cold BTB at threshold 1, where every other branch would spawn
     * and so surfaces.
     */
    sim::BranchPort *
    promote(const std::vector<uint32_t> &pcs)
    {
        flags.assign(program.code.size(), 0);
        for (uint32_t pc : pcs)
            flags[pc] = 1;
        port(sim::BranchPort::Kind::Taken, 1);
        branches.branchExtra = 0;
        branches.promoted = flags.data();
        return &branches;
    }

    /**
     * The block tier one instruction per dispatch: a zero cycle budget
     * admits only the first instruction of each call.  Returns the
     * instructions retired; fails if any call retires more than one.
     */
    uint64_t
    budgetBlocks(coverage::BranchCoverage *sink)
    {
        uint64_t total = 0;
        for (int i = 0; i < 64; ++i) {
            sim::BlockOut out = sim::runBlock(decoded, core, 100, 0, 1,
                                              coveragePort(sink), true);
            EXPECT_LE(out.instructions, 1u);
            if (out.instructions == 0)
                break;
            total += out.instructions;
        }
        return total;
    }

    int32_t reg(uint8_t r) const { return core.readReg(r); }

    sim::MachineLayout layout;
    isa::Program program;
    sim::DecodedProgram decoded;
    mem::MainMemory memory;
    sim::Core core;
    sim::IoChannel io;
    mem::VersionedBuffer *buf = nullptr;
    std::vector<uint8_t> flags;
    std::optional<coverage::BranchCoverage> cov;
    branch::Btb btb;
    std::vector<uint32_t> trace;
    bool truncated = false;
    sim::BranchPort branches;
};

/** True when @p cov holds NT edge (@p pc, @p taken). */
bool
ntCovered(const coverage::BranchCoverage &cov, uint32_t pc, bool taken)
{
    const uint64_t bit = (uint64_t{pc} << 1) | (taken ? 1 : 0);
    return (cov.ntWords()[bit >> 6] >> (bit & 63)) & 1;
}

std::string
caseName(Opcode op, int32_t a, int32_t b)
{
    return std::string(isa::opcodeName(op)) + " " + std::to_string(a) +
           ", " + std::to_string(b);
}

/** li r8, a; li r9, b; op r10, r8, r9|b; sys exit. */
std::vector<isa::Instruction>
aluProgram(Opcode op, bool imm, int32_t a, int32_t b)
{
    return {isa::makeLi(8, a), isa::makeLi(9, b),
            imm ? isa::makeI(op, 10, 8, b) : isa::makeR(op, 10, 8, 9),
            isa::makeSys(isa::Syscall::Exit)};
}

void
checkAluOnEveryTier(Opcode op, bool imm)
{
    for (int32_t a : kEdges) {
        for (int32_t b : kSecond) {
            SCOPED_TRACE(caseName(op, a, b));
            const std::optional<int32_t> want = reference(op, a, b);
            // A trap surfaces from the block tier before the opcode.
            const uint64_t bulkCount = want ? 3 : 2;
            const int32_t bulkR10 = want ? *want : 0;
            {
                Machine m(aluProgram(op, imm, a, b));
                sim::StepResult res = m.stepRun();
                if (want) {
                    EXPECT_TRUE(res.exited);
                    EXPECT_EQ(m.reg(10), *want);
                } else {
                    EXPECT_EQ(res.crash, sim::CrashKind::DivByZero);
                    EXPECT_EQ(res.pc, 2u);
                }
            }
            for (bool withSink : {false, true}) {
                SCOPED_TRACE(withSink ? "block, sink" : "block");
                Machine m(aluProgram(op, imm, a, b));
                coverage::BranchCoverage cov(m.program);
                sim::BlockOut out = m.block(withSink ? &cov : nullptr);
                EXPECT_EQ(out.instructions, bulkCount);
                EXPECT_EQ(m.core.pc, bulkCount);
                EXPECT_EQ(m.reg(10), bulkR10);
            }
            {
                SCOPED_TRACE("block, zero cycle budget");
                Machine m(aluProgram(op, imm, a, b));
                EXPECT_EQ(m.budgetBlocks(nullptr), bulkCount);
                EXPECT_EQ(m.reg(10), bulkR10);
            }
        }
    }
}

TEST(TierEdgeOperands, AluOpcodes)
{
    for (Opcode op : kAluOps)
        checkAluOnEveryTier(op, /*imm=*/false);
}

TEST(TierEdgeOperands, ImmediateOpcodes)
{
    for (Opcode op : kImmOps)
        checkAluOnEveryTier(op, /*imm=*/true);
}

/**
 * li r8, a; li r9, b; op r8, r9, 5; li r10, 1; sys exit;
 * li r10, 2; sys exit.
 */
std::vector<isa::Instruction>
branchProgram(Opcode op, int32_t a, int32_t b)
{
    return {isa::makeLi(8, a),         isa::makeLi(9, b),
            isa::makeBranch(op, 8, 9, 5), isa::makeLi(10, 1),
            isa::makeSys(isa::Syscall::Exit), isa::makeLi(10, 2),
            isa::makeSys(isa::Syscall::Exit)};
}

TEST(TierEdgeOperands, BranchOpcodes)
{
    const uint32_t branchPc = 2;
    for (Opcode op : kBranchOps) {
        for (int32_t a : kEdges) {
            for (int32_t b : kSecond) {
                SCOPED_TRACE(caseName(op, a, b));
                const bool taken = branchTaken(op, a, b);
                const int32_t want = taken ? 2 : 1;
                const uint32_t endPc = taken ? 6 : 4;
                {
                    Machine m(branchProgram(op, a, b));
                    sim::StepResult res = m.stepToBranch();
                    EXPECT_EQ(res.pc, branchPc);
                    EXPECT_EQ(res.branchTaken, taken);
                    m.stepRun();
                    EXPECT_EQ(m.reg(10), want);
                }
                {
                    SCOPED_TRACE("block without a sink surfaces");
                    Machine m(branchProgram(op, a, b));
                    EXPECT_EQ(m.block().instructions, 2u);
                    EXPECT_EQ(m.core.pc, branchPc);
                }
                for (bool budget : {false, true}) {
                    SCOPED_TRACE(budget ? "block, sink, zero budget"
                                        : "block, sink");
                    Machine m(branchProgram(op, a, b));
                    coverage::BranchCoverage cov(m.program);
                    const uint64_t n = budget ? m.budgetBlocks(&cov)
                                              : m.block(&cov).instructions;
                    EXPECT_EQ(n, 4u);
                    EXPECT_EQ(m.core.pc, endPc);
                    EXPECT_EQ(m.reg(10), want);
                    EXPECT_TRUE(cov.takenEdgeCovered(branchPc, taken));
                    EXPECT_FALSE(cov.takenEdgeCovered(branchPc, !taken));
                }
                {
                    SCOPED_TRACE("block, flag clear surfaces");
                    Machine m(branchProgram(op, a, b));
                    EXPECT_EQ(m.promotedBlock().instructions, 2u);
                    EXPECT_EQ(m.branches.promotedRetired, 0u);
                    EXPECT_EQ(m.core.pc, branchPc);
                }
                {
                    SCOPED_TRACE("block, promoted");
                    Machine m(branchProgram(op, a, b));
                    EXPECT_EQ(m.promotedBlock({branchPc}).instructions, 4u);
                    EXPECT_EQ(m.branches.promotedRetired, 1u);
                    EXPECT_EQ(m.core.pc, endPc);
                    EXPECT_EQ(m.reg(10), want);
                    EXPECT_FALSE(m.cov->takenEdgeCovered(branchPc, taken));
                    EXPECT_EQ(m.btb.count(branchPc, taken), 0);
                }
                {
                    SCOPED_TRACE("block, NT port");
                    Machine m(branchProgram(op, a, b));
                    sim::BlockOut out =
                        m.kindBlock(sim::BranchPort::Kind::Nt);
                    EXPECT_EQ(out.instructions, 4u);
                    EXPECT_EQ(m.core.pc, endPc);
                    EXPECT_EQ(m.reg(10), want);
                    EXPECT_TRUE(ntCovered(*m.cov, branchPc, taken));
                    EXPECT_FALSE(ntCovered(*m.cov, branchPc, !taken));
                    EXPECT_FALSE(m.cov->takenEdgeCovered(branchPc, taken));
                }
                {
                    SCOPED_TRACE("block, taken port, would spawn");
                    Machine m(branchProgram(op, a, b));
                    sim::BlockOut out =
                        m.kindBlock(sim::BranchPort::Kind::Taken, 1);
                    EXPECT_EQ(out.instructions, 2u);
                    EXPECT_EQ(m.core.pc, branchPc);
                    EXPECT_FALSE(m.cov->takenEdgeCovered(branchPc, taken));
                    EXPECT_EQ(m.btb.count(branchPc, taken), 0);
                    EXPECT_TRUE(m.trace.empty());
                }
                {
                    SCOPED_TRACE("block, taken port, counted");
                    Machine m(branchProgram(op, a, b));
                    sim::BlockOut out =
                        m.kindBlock(sim::BranchPort::Kind::Taken, 0);
                    EXPECT_EQ(out.instructions, 4u);
                    EXPECT_EQ(m.core.pc, endPc);
                    EXPECT_EQ(m.reg(10), want);
                    EXPECT_TRUE(m.cov->takenEdgeCovered(branchPc, taken));
                    EXPECT_FALSE(
                        m.cov->takenEdgeCovered(branchPc, !taken));
                    EXPECT_EQ(m.btb.count(branchPc, taken), 1);
                    EXPECT_EQ(m.btb.count(branchPc, !taken), 0);
                    EXPECT_EQ(m.trace, std::vector<uint32_t>{
                                           (branchPc << 1) | taken});
                    // The base costs of li, li, branch, li plus the
                    // branch's extra.
                    const sim::TimingConfig t;
                    EXPECT_EQ(out.cycles, 3 * t.aluCost +
                                              t.branchCost + 7);
                }
            }
        }
    }
}

/** The block tier retires exactly @p n instructions of @p code. */
void
expectBlockRetires(const std::vector<isa::Instruction> &code, uint64_t n,
                   bool inert = true)
{
    Machine blk(code);
    EXPECT_EQ(blk.block(nullptr, inert).instructions, n);
}

TEST(TierEdgeOperands, NopAndDirectJumps)
{
    expectBlockRetires({isa::Instruction{}, isa::makeSys(isa::Syscall::Exit)},
                      1);

    // jmp/jal 3 over "li r10, 1"; jal links pc + 1 into r3.
    for (Opcode op : {Opcode::Jmp, Opcode::Jal}) {
        SCOPED_TRACE(isa::opcodeName(op));
        auto jump = [&](int32_t target) {
            return op == Opcode::Jmp ? isa::makeJmp(target)
                                     : isa::makeJal(3, target);
        };
        std::vector<isa::Instruction> code = {
            isa::makeLi(8, 7), jump(3), isa::makeLi(10, 1),
            isa::makeLi(10, 2), isa::makeSys(isa::Syscall::Exit)};
        Machine m(code);
        m.stepRun();
        EXPECT_EQ(m.reg(10), 2);
        EXPECT_EQ(m.reg(3), op == Opcode::Jal ? 2 : 0);
        Machine b(code);
        EXPECT_EQ(b.block().instructions, 3u);
        EXPECT_EQ(b.reg(10), 2);
        EXPECT_EQ(b.reg(3), op == Opcode::Jal ? 2 : 0);
        expectBlockRetires(code, 3);

        // Invalid static targets surface; step raises BadJump there.
        for (int32_t target : {kMin, kMax, -1, 5}) {
            SCOPED_TRACE(target);
            code[1] = jump(target);
            Machine bad(code);
            sim::StepResult res = bad.stepRun();
            EXPECT_EQ(res.crash, sim::CrashKind::BadJump);
            EXPECT_EQ(res.pc, 1u);
            expectBlockRetires(code, 1);
        }
    }
}

TEST(TierEdgeOperands, RegisterJump)
{
    // li r8, target; jr r8; li r10, 1; sys exit; li r10, 2; sys exit.
    auto program = [](int32_t target) {
        return std::vector<isa::Instruction>{
            isa::makeLi(8, target), isa::makeJr(8), isa::makeLi(10, 1),
            isa::makeSys(isa::Syscall::Exit), isa::makeLi(10, 2),
            isa::makeSys(isa::Syscall::Exit)};
    };
    Machine m(program(4));
    m.stepRun();
    EXPECT_EQ(m.reg(10), 2);
    Machine b(program(4));
    EXPECT_EQ(b.block().instructions, 3u);
    EXPECT_EQ(b.reg(10), 2);
    expectBlockRetires(program(4), 3);

    for (int32_t target : {kMin, kMax, -1, 6}) {
        SCOPED_TRACE(target);
        Machine bad(program(target));
        sim::StepResult res = bad.stepRun();
        EXPECT_EQ(res.crash, sim::CrashKind::BadJump);
        EXPECT_EQ(res.pc, 1u);
        expectBlockRetires(program(target), 1);
    }
}

/**
 * Running off the end of the code: every loop variant (with and without
 * a cycle budget, with a full and a hit-only memory port) stops on the
 * pc one past the last instruction, where sim::step raises BadJump, and
 * a block entered at or past the end, or over an empty image, retires
 * nothing and leaves the pc alone.
 */
TEST(TierEdgeOperands, RunningOffTheEndSurfacesAtTheCodeEnd)
{
    // li r8, 1; li r9, 2; beq r8, r0, 0 (not taken: falls off the end).
    const std::vector<isa::Instruction> code = {
        isa::makeLi(8, 1), isa::makeLi(9, 2),
        isa::makeBranch(Opcode::Beq, 8, 0, 0)};
    for (uint64_t budget : {UINT64_MAX, uint64_t{1000}}) {
        for (int portKind = 0; portKind < 3; ++portKind) {
            SCOPED_TRACE(std::string(budget == UINT64_MAX ? "no budget"
                                                          : "budget") +
                         ", port " + std::to_string(portKind));
            Machine m(code);
            coverage::BranchCoverage cov(m.program);
            mem::MemHierarchy hierarchy(1, mem::MemTimingParams{});
            mem::MemCtx ctx(m.memory, nullptr);
            const sim::MemPort port{.ctx = ctx,
                                    .hierarchy = hierarchy,
                                    .hitOnly = portKind == 2};
            const sim::BlockOut out = sim::runBlock(
                m.decoded, m.core, 100, budget, 0, m.coveragePort(&cov),
                true, portKind ? &port : nullptr);
            EXPECT_EQ(out.instructions, 3u);
            EXPECT_EQ(m.core.pc, 3u);
            EXPECT_EQ(m.reg(9), 2);
            // The next block retires nothing; sim::step faults there.
            EXPECT_EQ(sim::runBlock(m.decoded, m.core, 100, budget, 0,
                                    m.coveragePort(&cov), true,
                                    portKind ? &port : nullptr)
                          .instructions,
                      0u);
            EXPECT_EQ(m.core.pc, 3u);
            const sim::StepResult res = m.stepRun(1);
            EXPECT_EQ(res.crash, sim::CrashKind::BadJump);
            EXPECT_EQ(res.pc, 3u);
        }
    }

    // Entered past the end.
    Machine past(code);
    past.core.pc = 7;
    EXPECT_EQ(past.block().instructions, 0u);
    EXPECT_EQ(past.core.pc, 7u);

    // An empty image: size 0, and a block there retires nothing.
    const sim::DecodedProgram empty;
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_FALSE(empty.startsBlock(0, true, true, true));
    sim::Core core;
    EXPECT_EQ(sim::runBlock(empty, core, 100).instructions, 0u);
    EXPECT_EQ(sim::runBlock(empty, core, 100, 0).instructions, 0u);
    EXPECT_EQ(core.pc, 0u);

    // A decoded image's size is its code length, sentinel aside.
    Machine m(code);
    EXPECT_EQ(m.decoded.size(), 3u);
    EXPECT_TRUE(m.decoded.startsBlock(2, true, true, true));
    EXPECT_FALSE(m.decoded.startsBlock(3, true, true, true));
}

TEST(TierEdgeOperands, DetectorHooks)
{
    for (int32_t a : kEdges) {
        for (int32_t imm : {kMin, kMax, -1, 0, 1}) {
            SCOPED_TRACE(std::to_string(a) + " " + std::to_string(imm));
            std::vector<isa::Instruction> code = {
                isa::makeLi(8, a),
                isa::Instruction{Opcode::Chkb, 0, 8, 0, imm},
                isa::Instruction{Opcode::Assert, 0, 8, 0, imm},
                isa::makeSys(isa::Syscall::Exit)};
            Machine m(code);
            mem::MemCtx ctx(m.memory, nullptr);
            sim::step(m.decoded, m.core, ctx, m.io, true, m.layout);
            sim::StepResult chk =
                sim::step(m.decoded, m.core, ctx, m.io, true, m.layout);
            EXPECT_TRUE(chk.boundsCheck);
            EXPECT_EQ(chk.checkAddr,
                      static_cast<uint32_t>(int64_t{a} + imm));
            sim::StepResult as =
                sim::step(m.decoded, m.core, ctx, m.io, true, m.layout);
            EXPECT_EQ(as.assertFired, a == 0);
            EXPECT_EQ(as.assertId, a == 0 ? imm : 0);

            // Inert without a detector; surfacing with one.
            expectBlockRetires(code, 3, /*inert=*/true);
            expectBlockRetires(code, 1, /*inert=*/false);
        }
    }
}

TEST(TierEdgeOperands, PredicatedFixes)
{
    for (int32_t imm : kEdges) {
        SCOPED_TRACE(imm);
        // pfix r10, imm; pfixst r9, 0(r8); li r11, 1; sys exit.
        std::vector<isa::Instruction> code = {
            isa::Instruction{Opcode::Pfix, 10, 0, 0, imm},
            isa::Instruction{Opcode::Pfixst, 0, 8, 9, 40},
            isa::makeLi(11, 1), isa::makeSys(isa::Syscall::Exit)};

        // Predicate clear: both are NOPs on every tier.
        Machine m(code);
        m.core.regs[9] = imm;
        m.stepRun();
        EXPECT_EQ(m.reg(10), 0);
        EXPECT_EQ(m.memory.read(40), 0);
        expectBlockRetires(code, 3);

        // Predicate set: step writes both; the block prologue runs
        // pfix and surfaces at pfixst, predicate still set.
        Machine s(code);
        s.core.ntEntryPred = true;
        s.core.regs[9] = imm;
        s.stepRun();
        EXPECT_EQ(s.reg(10), imm);
        EXPECT_EQ(s.memory.read(40), imm);
        EXPECT_FALSE(s.core.ntEntryPred);

        Machine b(code);
        b.core.ntEntryPred = true;
        EXPECT_EQ(b.block().instructions, 1u);
        EXPECT_EQ(b.reg(10), imm);
        EXPECT_EQ(b.core.pc, 1u);
        EXPECT_TRUE(b.core.ntEntryPred);

        // Past the fixes, the first other instruction clears it.
        Machine c({isa::Instruction{Opcode::Pfix, 10, 0, 0, imm},
                   isa::makeLi(11, 1), isa::makeSys(isa::Syscall::Exit)});
        c.core.ntEntryPred = true;
        EXPECT_EQ(c.block().instructions, 2u);
        EXPECT_EQ(c.reg(10), imm);
        EXPECT_FALSE(c.core.ntEntryPred);
    }
}

TEST(TierEdgeOperands, SurfaceOpcodesRunOnlyInStep)
{
    for (int32_t v : kEdges) {
        SCOPED_TRACE(v);
        // st r9, 40(r0); ld r10, 40(r0); li r8, 4; alloc r11, r8;
        // regobj r11, r8; unregobj r11; sys print_int r9; sys exit.
        std::vector<isa::Instruction> code = {
            isa::Instruction{Opcode::St, 0, 0, 9, 40},
            isa::Instruction{Opcode::Ld, 10, 0, 0, 40},
            isa::makeLi(8, 4),
            isa::Instruction{Opcode::Alloc, 11, 8, 0, 0},
            isa::Instruction{Opcode::Regobj, 0, 11, 8, 2},
            isa::Instruction{Opcode::Unregobj, 0, 11, 0, 0},
            isa::makeSys(isa::Syscall::PrintInt, 0, 9),
            isa::makeSys(isa::Syscall::Exit)};
        Machine m(code);
        m.core.regs[9] = v;
        sim::StepResult res = m.stepRun();
        EXPECT_TRUE(res.exited);
        EXPECT_EQ(m.reg(10), v);
        EXPECT_EQ(m.reg(11), 64);           // the heap base
        EXPECT_EQ(m.io.intOutput, std::vector<int32_t>{v});

        // Without a memory port the block tier surfaces at each of
        // them.
        for (uint32_t pc : {0u, 1u, 3u, 4u, 5u, 6u, 7u}) {
            SCOPED_TRACE(pc);
            Machine b(code);
            b.core.pc = pc;
            EXPECT_FALSE(b.decoded.startsBlock(pc, true, true));
            EXPECT_EQ(b.block().instructions, 0u);
        }

        // With one the block tier retires st and ld, then surfaces at
        // alloc; the others still surface.
        Machine p(code);
        p.core.regs[9] = v;
        EXPECT_TRUE(p.decoded.startsBlock(0, true, true, true));
        EXPECT_TRUE(p.decoded.startsBlock(1, true, true, true));
        EXPECT_EQ(p.portBlock().instructions, 3u);
        EXPECT_EQ(p.core.pc, 3u);
        EXPECT_EQ(p.reg(10), v);
        EXPECT_EQ(p.memory.read(40), v);
        for (uint32_t pc : {3u, 4u, 5u, 6u, 7u}) {
            SCOPED_TRACE(pc);
            EXPECT_FALSE(p.decoded.startsBlock(pc, true, true, true));
            p.core.pc = pc;
            EXPECT_EQ(p.portBlock().instructions, 0u);
        }
    }
}

TEST(TierEdgeOperands, WouldSpawnBranchSurfacesWithTheBtbUnchanged)
{
    // A one-entry BTB holding another branch: allocating an entry for
    // the branch at pc 2 would evict it.  Below threshold 1 a miss
    // would spawn, so the branch surfaces and the BTB keeps its entry.
    const uint32_t branchPc = 2;
    Machine m(branchProgram(Opcode::Beq, 0, 0));
    m.btb = branch::Btb({1, 1, 4});
    for (int i = 0; i < 3; ++i)
        m.btb.increment(99, true);
    sim::BlockOut out = m.kindBlock(sim::BranchPort::Kind::Taken, 1);
    EXPECT_EQ(out.instructions, 2u);
    EXPECT_EQ(out.cycles, 2u);
    EXPECT_EQ(m.core.pc, branchPc);
    EXPECT_EQ(m.btb.count(99, true), 3);
    EXPECT_EQ(m.btb.evictions(), 0u);
    EXPECT_FALSE(m.cov->takenEdgeCovered(branchPc, true));
    EXPECT_TRUE(m.trace.empty());
}

TEST(TierEdgeOperands, NonSpawningBranchRetiresAndBumpsItsCounter)
{
    // The taken branch at pc 2 would spawn its fall-through edge while
    // that edge's count is below the threshold.
    const uint32_t branchPc = 2;
    const sim::TimingConfig t;
    const uint64_t blockCycles = 3 * t.aluCost + t.branchCost + 7;
    {
        SCOPED_TRACE("non-taken count at the threshold");
        Machine m(branchProgram(Opcode::Beq, 0, 0));
        m.btb.increment(branchPc, false);
        sim::BlockOut out = m.kindBlock(sim::BranchPort::Kind::Taken, 1);
        EXPECT_EQ(out.instructions, 4u);
        EXPECT_EQ(out.cycles, blockCycles);
        EXPECT_EQ(m.core.pc, 6u);
        EXPECT_EQ(m.btb.count(branchPc, true), 1);
        EXPECT_EQ(m.btb.count(branchPc, false), 1);
        EXPECT_TRUE(m.cov->takenEdgeCovered(branchPc, true));
        EXPECT_EQ(m.trace, std::vector<uint32_t>{(branchPc << 1) | 1});
    }
    // Waived edges never spawn, whatever their count: the branch
    // retires from a cold BTB.
    for (bool noSpawn : {true, false}) {
        SCOPED_TRACE(noSpawn ? "no-spawn range" : "doomed fall-through");
        Machine m(branchProgram(Opcode::Beq, 0, 0));
        if (noSpawn)
            m.decoded.markNoSpawn(0, 7);
        else
            m.decoded.markDoomedEdge(branchPc, false);
        sim::BlockOut out = m.kindBlock(sim::BranchPort::Kind::Taken, 5);
        EXPECT_EQ(out.instructions, 4u);
        EXPECT_EQ(out.cycles, blockCycles);
        EXPECT_EQ(m.btb.count(branchPc, true), 1);
    }
    {
        SCOPED_TRACE("only the other edge doomed");
        Machine m(branchProgram(Opcode::Beq, 0, 0));
        m.decoded.markDoomedEdge(branchPc, true);
        EXPECT_EQ(m.kindBlock(sim::BranchPort::Kind::Taken, 5).instructions,
                  2u);
        EXPECT_EQ(m.btb.count(branchPc, true), 0);
    }
}

TEST(TierEdgeOperands, PromotedBranchesAndMemoryShareABlock)
{
    // li r9, 3; loop: st r9, 40(r9); ld r10, 40(r9); addi r9, r9, -1;
    // bgt r9, r0, loop; sys exit.  With the loop branch promoted and a
    // memory port, one block runs the whole loop: three iterations of
    // a store, a load and the branch, then surfaces at the syscall.
    const uint32_t branchPc = 4;
    const std::vector<isa::Instruction> code = {
        isa::makeLi(9, 3),
        isa::Instruction{Opcode::St, 0, 9, 9, 40},
        isa::Instruction{Opcode::Ld, 10, 9, 0, 40},
        isa::makeI(Opcode::Addi, 9, 9, -1),
        isa::makeBranch(Opcode::Bgt, 9, 0, 1),
        isa::makeSys(isa::Syscall::Exit)};
    Machine step(code);
    EXPECT_TRUE(step.stepRun().exited);

    Machine p(code);
    EXPECT_TRUE(p.decoded.startsBlock(branchPc, true, true, true));
    EXPECT_EQ(p.portBlock({branchPc}).instructions, 1u + 3 * 4);
    EXPECT_EQ(p.branches.promotedRetired, 3u);
    EXPECT_EQ(p.core.pc, 5u);
    EXPECT_EQ(p.core.regs, step.core.regs);
    for (uint32_t addr : {41u, 42u, 43u})
        EXPECT_EQ(p.memory.read(addr), step.memory.read(addr));

    // Without the flag the same block stops before the first branch.
    Machine q(code);
    EXPECT_EQ(q.portBlock().instructions, 4u);
    EXPECT_EQ(q.branches.promotedRetired, 0u);
    EXPECT_EQ(q.core.pc, branchPc);
}

/** A program of @p code with the heap at word 64. */
isa::Program
programOf(std::vector<isa::Instruction> code)
{
    isa::Program program;
    program.code = std::move(code);
    program.heapBase = 64;
    return program;
}

/** The record of the NT-Path spawned at @p pc; fails if there is none. */
core::NtPathRecord
ntRecordAt(const core::RunResult &result, uint32_t pc)
{
    for (const core::NtPathRecord &rec : result.ntRecords) {
        if (rec.spawnBranchPc == pc)
            return rec;
    }
    ADD_FAILURE() << "no NT-Path spawned at pc " << pc;
    return {};
}

const isa::Instruction kExit = isa::makeSys(isa::Syscall::Exit);

TEST(TierEdgeOperands, BadAddressesSurfaceFromThePort)
{
    const auto memWords =
        static_cast<int32_t>(sim::MachineLayout{}.memWords);
    const isa::Instruction good{Opcode::St, 0, 0, 9, 40};
    for (int32_t addr : {-1, memWords, memWords + 5}) {
        for (Opcode op : {Opcode::Ld, Opcode::St}) {
            SCOPED_TRACE(caseName(op, addr, 0));
            const isa::Instruction bad =
                op == Opcode::Ld ? isa::Instruction{op, 10, 8, 0, 0}
                                 : isa::Instruction{op, 0, 8, 9, 0};

            // li r8, addr; li r9, 7; st r9, 40(r0); bad; sys exit.  The
            // ported block retires the good store and surfaces at the
            // bad access untouched; step raises BadAddress there.
            const std::vector<isa::Instruction> code = {
                isa::makeLi(8, addr), isa::makeLi(9, 7), good, bad, kExit};
            Machine m(code);
            EXPECT_EQ(m.portBlock().instructions, 3u);
            EXPECT_EQ(m.core.pc, 3u);
            EXPECT_EQ(m.memory.read(40), 7);
            EXPECT_EQ(m.reg(10), 0);
            sim::StepResult res = m.stepRun();
            EXPECT_EQ(res.crash, sim::CrashKind::BadAddress);
            EXPECT_EQ(res.pc, 3u);

            for (auto mode : {core::PeMode::Off, core::PeMode::Standard,
                              core::PeMode::Cmp}) {
                SCOPED_TRACE(core::peModeName(mode));
                core::RunResult r = blockRunMatchesLegacy(
                    programOf(code), core::PeConfig::forMode(mode));
                EXPECT_TRUE(r.programCrashed);
                EXPECT_EQ(r.programCrashKind, sim::CrashKind::BadAddress);
                EXPECT_EQ(r.takenInstructions, 3u);
            }

            // li r8, addr; li r9, 7; beq r0, r0, 6; st r9, 40(r0); bad;
            // sys exit; then the taken path spins, so that in CMP the
            // NT core runs before the primary exits.
            const std::vector<isa::Instruction> nt = {
                isa::makeLi(8, addr), isa::makeLi(9, 7),
                isa::makeBranch(Opcode::Beq, 0, 0, 6), good, bad, kExit,
                isa::makeLi(20, 1000), isa::makeI(Opcode::Addi, 20, 20, -1),
                isa::makeBranch(Opcode::Bgt, 20, 0, 7), kExit};
            for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
                SCOPED_TRACE(core::peModeName(mode));
                core::RunResult r = blockRunMatchesLegacy(
                    programOf(nt), core::PeConfig::forMode(mode));
                EXPECT_FALSE(r.programCrashed);
                const core::NtPathRecord rec = ntRecordAt(r, 2);
                EXPECT_EQ(rec.cause, core::NtStopCause::Crash);
                EXPECT_EQ(rec.crashKind, sim::CrashKind::BadAddress);
                EXPECT_EQ(rec.length, 1u);
            }
        }
    }
}

TEST(TierEdgeOperands, CapacityOverflowStopsAfterTheStore)
{
    // Each fill iteration dirties two new L1 lines, so the first store
    // of iteration lines/2 + 1 is the one that overflows the L1.
    const uint32_t lines = mem::defaultL1Geometry().numLines();
    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        SCOPED_TRACE(core::peModeName(mode));
        // In CMP the taken path must outlast the NT core's fill loop.
        const int32_t spin = mode == core::PeMode::Cmp ? 1'000'000 : 1;
        // li r9, 4096; li r20, spin; beq r0, r0, 7;
        // fill: st r10, 0(r9); st r10, 8(r9); addi r9, r9, 16; jmp 3;
        // spin: addi r20, r20, -1; bgt r20, r0, 7; sys exit.
        const std::vector<isa::Instruction> code = {
            isa::makeLi(9, 4096), isa::makeLi(20, spin),
            isa::makeBranch(Opcode::Beq, 0, 0, 7),
            isa::Instruction{Opcode::St, 0, 9, 10, 0},
            isa::Instruction{Opcode::St, 0, 9, 10, 8},
            isa::makeI(Opcode::Addi, 9, 9, 16), isa::makeJmp(3),
            isa::makeI(Opcode::Addi, 20, 20, -1),
            isa::makeBranch(Opcode::Bgt, 20, 0, 7), kExit};
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = 100'000;
        // The fill path's segment stays uncommitted while the spin's
        // own NT-Paths pile segments on top of it.
        cfg.maxSegmentDepth = 1024;
        core::RunResult r = blockRunMatchesLegacy(programOf(code), cfg);
        const core::NtPathRecord rec = ntRecordAt(r, 2);
        EXPECT_EQ(rec.cause, core::NtStopCause::CapacityOverflow);
        EXPECT_EQ(rec.length, 4 * (lines / 2) + 1);
    }
}

TEST(TierEdgeOperands, PortContentionMatchesPerStepLoop)
{
    // Sweeps over twice the L1's lines: once warm, every load misses
    // L1 and hits L2.  The NT-Path pads each load with an addi, so the
    // two cores' L2 port requests drift through each other.
    const int32_t lines =
        static_cast<int32_t>(2 * mem::defaultL1Geometry().numLines());
    std::vector<isa::Instruction> code = {isa::makeLi(9, 65536)};
    auto sweep = [&](uint8_t rd, bool pad) {
        for (int32_t i = 0; i < lines; ++i) {
            code.push_back(isa::Instruction{Opcode::Ld, rd, 9, 0, 8 * i});
            if (pad)
                code.push_back(isa::makeI(Opcode::Addi, 12, 12, 1));
        }
    };
    sweep(10, false);   // warms L2
    const size_t branchPc = code.size();
    code.push_back(isa::makeBranch(Opcode::Beq, 0, 0, 0));
    sweep(11, true);    // the NT-Path
    code.push_back(kExit);
    code[branchPc].imm = static_cast<int32_t>(code.size());
    sweep(11, false);   // the taken path
    code.push_back(kExit);

    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        SCOPED_TRACE(core::peModeName(mode));
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = 100'000;
        core::RunResult r = blockRunMatchesLegacy(programOf(code), cfg);
        // On one core each miss's latency is on the clock before the
        // next access, so only CMP contends for the port.
        if (mode == core::PeMode::Cmp)
            EXPECT_GT(r.l2ContentionCycles, 0u);
        else
            EXPECT_EQ(r.l2ContentionCycles, 0u);
    }
}

TEST(TierEdgeOperands, EveryOpcodeIsCovered)
{
    std::set<Opcode> covered;
    for (const auto *ops : {&kAluOps, &kImmOps, &kBranchOps, &kOtherOps})
        covered.insert(ops->begin(), ops->end());
    EXPECT_EQ(covered.size(), static_cast<size_t>(Opcode::NumOpcodes));
}

/**
 * One program chaining every ALU, immediate and branch opcode over
 * the edge operands, each result printed: the engine's per-step,
 * block-stepped and self-pruned runs must agree bit for bit and print
 * the reference values.
 */
TEST(TierEdgeOperands, EngineTiersAgreeOnEdgeProgram)
{
    std::vector<isa::Instruction> code;
    std::vector<int32_t> want;
    auto emit = [&](isa::Instruction inst) { code.push_back(inst); };
    for (int32_t a : kEdges) {
        for (int32_t b : kSecond) {
            for (const auto *ops : {&kAluOps, &kImmOps}) {
                for (Opcode op : *ops) {
                    std::optional<int32_t> v = reference(op, a, b);
                    if (!v)
                        continue;
                    for (auto inst : aluProgram(op, ops == &kImmOps, a, b))
                        if (inst.op != Opcode::Sys)
                            emit(inst);
                    emit(isa::makeSys(isa::Syscall::PrintInt, 0, 10));
                    want.push_back(*v);
                }
            }
            for (Opcode op : kBranchOps) {
                const auto base = static_cast<int32_t>(code.size());
                emit(isa::makeLi(8, a));
                emit(isa::makeLi(9, b));
                emit(isa::makeBranch(op, 8, 9, base + 6));
                emit(isa::makeLi(10, 1));
                emit(isa::makeSys(isa::Syscall::PrintInt, 0, 10));
                emit(isa::makeJmp(base + 8));
                emit(isa::makeLi(10, 2));
                emit(isa::makeSys(isa::Syscall::PrintInt, 0, 10));
                want.push_back(branchTaken(op, a, b) ? 2 : 1);
            }
        }
    }
    emit(isa::makeSys(isa::Syscall::Exit));
    isa::Program program;
    program.code = code;
    program.heapBase = 64;

    for (auto mode :
         {core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp}) {
        SCOPED_TRACE(core::peModeName(mode));
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = 50;
        auto runWith = [&](bool legacy, bool prune) {
            core::PeConfig c = cfg;
            c.legacyStepLoop = legacy;
            c.selfPrune = prune;
            core::PathExpanderEngine engine(program, c, nullptr);
            return engine.run({});
        };
        core::RunResult legacy = runWith(true, false);
        EXPECT_EQ(legacy.io.intOutput, want);
        test::expectIdentical(runWith(false, false), legacy);
        test::expectIdentical(runWith(false, true), legacy);
    }
}

} // namespace
