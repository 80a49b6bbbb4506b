/**
 * @file
 * Interpreter semantics tests: one behaviour per opcode family,
 * crash conditions, the NT-entry predicate, syscalls and allocation.
 */

#include <gtest/gtest.h>

#include "src/isa/regs.hh"
#include "src/sim/interpreter.hh"

namespace
{

using namespace pe;
using namespace pe::isa;
using namespace pe::sim;
namespace r = pe::isa::reg;

/** Harness around a hand-assembled program. */
struct Rig
{
    explicit Rig(std::vector<Instruction> code,
                 std::vector<int32_t> input = {})
        : memory(layout.memWords)
    {
        program.code = std::move(code);
        program.heapBase = 64;
        decoded = DecodedProgram(program, TimingConfig{});
        loadProgram(program, memory, core, layout);
        io.input = std::move(input);
    }

    StepResult stepOnce(bool allowIo = true)
    {
        mem::MemCtx ctx(memory, buf);
        return step(decoded, core, ctx, io, allowIo, layout);
    }

    /** Run to exit/crash, with a step limit. */
    StepResult
    run(bool allowIo = true, int limit = 10000)
    {
        StepResult res;
        for (int i = 0; i < limit; ++i) {
            res = stepOnce(allowIo);
            if (res.crashed() || res.exited || res.unsafeEvent)
                return res;
        }
        return res;
    }

    MachineLayout layout;
    isa::Program program;
    DecodedProgram decoded;
    mem::MainMemory memory;
    Core core;
    IoChannel io;
    mem::VersionedBuffer *buf = nullptr;
};

TEST(Interpreter, AluBasics)
{
    Rig rig({
        makeLi(8, 7),
        makeLi(9, 3),
        makeR(Opcode::Add, 10, 8, 9),
        makeR(Opcode::Sub, 11, 8, 9),
        makeR(Opcode::Mul, 12, 8, 9),
        makeR(Opcode::Div, 13, 8, 9),
        makeR(Opcode::Rem, 14, 8, 9),
        makeSys(Syscall::Exit),
    });
    rig.run();
    EXPECT_EQ(rig.core.readReg(10), 10);
    EXPECT_EQ(rig.core.readReg(11), 4);
    EXPECT_EQ(rig.core.readReg(12), 21);
    EXPECT_EQ(rig.core.readReg(13), 2);
    EXPECT_EQ(rig.core.readReg(14), 1);
}

TEST(Interpreter, CompareOps)
{
    Rig rig({
        makeLi(8, 2),
        makeLi(9, 5),
        makeR(Opcode::Slt, 10, 8, 9),
        makeR(Opcode::Sge, 11, 8, 9),
        makeR(Opcode::Seq, 12, 8, 8),
        makeR(Opcode::Sne, 13, 8, 8),
        makeR(Opcode::Sle, 14, 9, 9),
        makeR(Opcode::Sgt, 15, 9, 8),
        makeSys(Syscall::Exit),
    });
    rig.run();
    EXPECT_EQ(rig.core.readReg(10), 1);
    EXPECT_EQ(rig.core.readReg(11), 0);
    EXPECT_EQ(rig.core.readReg(12), 1);
    EXPECT_EQ(rig.core.readReg(13), 0);
    EXPECT_EQ(rig.core.readReg(14), 1);
    EXPECT_EQ(rig.core.readReg(15), 1);
}

TEST(Interpreter, ImmediateOps)
{
    Rig rig({
        makeLi(8, 12),
        makeI(Opcode::Addi, 9, 8, -2),
        makeI(Opcode::Andi, 10, 8, 6),
        makeI(Opcode::Ori, 11, 8, 1),
        makeI(Opcode::Xori, 12, 8, 0xff),
        makeI(Opcode::Shli, 13, 8, 2),
        makeI(Opcode::Shri, 14, 8, 2),
        makeI(Opcode::Slti, 15, 8, 13),
        makeSys(Syscall::Exit),
    });
    rig.run();
    EXPECT_EQ(rig.core.readReg(9), 10);
    EXPECT_EQ(rig.core.readReg(10), 4);
    EXPECT_EQ(rig.core.readReg(11), 13);
    EXPECT_EQ(rig.core.readReg(12), 0xf3);
    EXPECT_EQ(rig.core.readReg(13), 48);
    EXPECT_EQ(rig.core.readReg(14), 3);
    EXPECT_EQ(rig.core.readReg(15), 1);
}

TEST(Interpreter, ShiftsAndSra)
{
    Rig rig({
        makeLi(8, -8),
        makeLi(9, 1),
        makeR(Opcode::Sra, 10, 8, 9),
        makeR(Opcode::Shr, 11, 8, 9),
        makeSys(Syscall::Exit),
    });
    rig.run();
    EXPECT_EQ(rig.core.readReg(10), -4);
    EXPECT_EQ(rig.core.readReg(11), 0x7ffffffc);
}

TEST(Interpreter, ZeroRegisterSemantics)
{
    Rig rig({
        makeLi(r::zero, 99),        // must be ignored
        makeI(Opcode::Addi, 8, r::zero, 5),
        makeSys(Syscall::Exit),
    });
    rig.run();
    EXPECT_EQ(rig.core.readReg(r::zero), 0);
    EXPECT_EQ(rig.core.readReg(8), 5);
}

TEST(Interpreter, SignedOverflowWraps)
{
    Rig rig({
        makeLi(8, 0x7fffffff),
        makeLi(9, 1),
        makeR(Opcode::Add, 10, 8, 9),
        makeR(Opcode::Mul, 11, 8, 8),
        makeSys(Syscall::Exit),
    });
    rig.run();
    EXPECT_EQ(rig.core.readReg(10),
              std::numeric_limits<int32_t>::min());
}

TEST(Interpreter, DivRemEdgeCases)
{
    Rig rig({
        makeLi(8, std::numeric_limits<int32_t>::min()),
        makeLi(9, -1),
        makeR(Opcode::Div, 10, 8, 9),
        makeR(Opcode::Rem, 11, 8, 9),
        makeSys(Syscall::Exit),
    });
    rig.run();
    EXPECT_EQ(rig.core.readReg(10),
              std::numeric_limits<int32_t>::min());
    EXPECT_EQ(rig.core.readReg(11), 0);
}

TEST(Interpreter, DivByZeroCrashes)
{
    Rig rig({
        makeLi(8, 1),
        makeR(Opcode::Div, 9, 8, r::zero),
    });
    auto res = rig.run();
    EXPECT_EQ(res.crash, CrashKind::DivByZero);
    EXPECT_EQ(rig.core.pc, 1u);     // PC stays at the faulting instr
}

TEST(Interpreter, LoadStore)
{
    Rig rig({
        makeLi(8, 100),
        makeLi(9, 77),
        Instruction{Opcode::St, 0, 8, 9, 3},
        makeI(Opcode::Ld, 10, 8, 3),
        makeSys(Syscall::Exit),
    });
    rig.run();
    EXPECT_EQ(rig.memory.read(103), 77);
    EXPECT_EQ(rig.core.readReg(10), 77);
}

TEST(Interpreter, BadAddressCrashes)
{
    Rig rig({
        makeLi(8, -5),
        makeI(Opcode::Ld, 9, 8, 0),
    });
    auto res = rig.run();
    EXPECT_EQ(res.crash, CrashKind::BadAddress);
}

TEST(Interpreter, BranchTakenAndNotTaken)
{
    Rig rig({
        makeLi(8, 1),
        makeBranch(Opcode::Beq, 8, r::zero, 4),   // not taken
        makeBranch(Opcode::Bne, 8, r::zero, 4),   // taken
        makeLi(9, 111),                           // skipped
        makeSys(Syscall::Exit),
    });
    rig.stepOnce();
    auto res = rig.stepOnce();
    EXPECT_TRUE(res.branch);
    EXPECT_FALSE(res.branchTaken);
    EXPECT_EQ(res.branchTarget, 4u);
    EXPECT_EQ(res.branchFallthrough, 2u);
    res = rig.stepOnce();
    EXPECT_TRUE(res.branchTaken);
    EXPECT_EQ(rig.core.pc, 4u);
    EXPECT_EQ(rig.core.readReg(9), 0);
}

TEST(Interpreter, BadJumpCrashes)
{
    Rig rig({makeJmp(1000)});
    auto res = rig.stepOnce();
    EXPECT_EQ(res.crash, CrashKind::BadJump);

    Rig rig2({makeLi(8, -1), makeJr(8)});
    rig2.stepOnce();
    EXPECT_EQ(rig2.stepOnce().crash, CrashKind::BadJump);
}

TEST(Interpreter, FallingOffCodeCrashes)
{
    Rig rig({makeLi(8, 1)});
    rig.stepOnce();
    EXPECT_EQ(rig.stepOnce().crash, CrashKind::BadJump);
}

TEST(Interpreter, JalLinks)
{
    Rig rig({
        makeJal(r::ra, 2),
        makeSys(Syscall::Exit),
        makeJr(r::ra),
    });
    rig.stepOnce();
    EXPECT_EQ(rig.core.pc, 2u);
    EXPECT_EQ(rig.core.readReg(r::ra), 1);
    rig.stepOnce();
    EXPECT_EQ(rig.core.pc, 1u);
}

TEST(Interpreter, AllocBumpsAndReports)
{
    Rig rig({
        makeLi(8, 10),
        makeR(Opcode::Alloc, 9, 8, 0),
        makeR(Opcode::Alloc, 10, 8, 0),
        makeSys(Syscall::Exit),
    });
    rig.stepOnce();
    auto res = rig.stepOnce();
    EXPECT_TRUE(res.allocated);
    EXPECT_EQ(res.allocBase, rig.program.heapBase);
    EXPECT_EQ(res.allocSize, 10u);
    rig.stepOnce();
    EXPECT_EQ(rig.core.readReg(10),
              static_cast<int32_t>(rig.program.heapBase) + 10);
}

TEST(Interpreter, AllocOverflowCrashes)
{
    Rig rig({
        makeLi(8, 1 << 30),
        makeR(Opcode::Alloc, 9, 8, 0),
    });
    rig.stepOnce();
    EXPECT_EQ(rig.stepOnce().crash, CrashKind::HeapOverflow);
}

TEST(Interpreter, AssertFiresOnlyOnZero)
{
    Rig rig({
        makeLi(8, 1),
        Instruction{Opcode::Assert, 0, 8, 0, 5},
        Instruction{Opcode::Assert, 0, r::zero, 0, 6},
        makeSys(Syscall::Exit),
    });
    rig.stepOnce();
    EXPECT_FALSE(rig.stepOnce().assertFired);
    auto res = rig.stepOnce();
    EXPECT_TRUE(res.assertFired);
    EXPECT_EQ(res.assertId, 6);
    // Execution continues after a fired assert.
    EXPECT_TRUE(rig.stepOnce().exited);
}

TEST(Interpreter, ChkbReportsAddress)
{
    Rig rig({
        makeLi(8, 500),
        makeI(Opcode::Chkb, 0, 8, 3),
        makeSys(Syscall::Exit),
    });
    rig.stepOnce();
    auto res = rig.stepOnce();
    EXPECT_TRUE(res.boundsCheck);
    EXPECT_EQ(res.checkAddr, 503u);
}

TEST(Interpreter, RegobjEvents)
{
    Rig rig({
        makeLi(8, 200),
        makeLi(9, 16),
        Instruction{Opcode::Regobj, 0, 8, 9,
                    static_cast<int32_t>(ObjectKind::HeapBlock)},
        Instruction{Opcode::Unregobj, 0, 8, 0, 0},
        makeSys(Syscall::Exit),
    });
    rig.stepOnce();
    rig.stepOnce();
    auto res = rig.stepOnce();
    EXPECT_TRUE(res.registeredObject);
    EXPECT_EQ(res.objBase, 200u);
    EXPECT_EQ(res.objSize, 16u);
    EXPECT_EQ(res.objKind, ObjectKind::HeapBlock);
    res = rig.stepOnce();
    EXPECT_TRUE(res.unregisteredObject);
    EXPECT_EQ(res.objBase, 200u);
}

TEST(Interpreter, PredicatedFixExecutesOnlyWithPredicate)
{
    std::vector<Instruction> code = {
        makeI(Opcode::Pfix, 8, 0, 42),
        makeSys(Syscall::Exit),
    };
    Rig plain(code);
    plain.stepOnce();
    EXPECT_EQ(plain.core.readReg(8), 0);    // NOP without predicate

    Rig armed(code);
    armed.core.ntEntryPred = true;
    armed.stepOnce();
    EXPECT_EQ(armed.core.readReg(8), 42);
}

TEST(Interpreter, PredicateClearsAtFirstNonFix)
{
    Rig rig({
        makeI(Opcode::Pfix, 8, 0, 1),
        makeLi(9, 2),                    // clears the predicate
        makeI(Opcode::Pfix, 10, 0, 3),   // now a NOP
        makeSys(Syscall::Exit),
    });
    rig.core.ntEntryPred = true;
    rig.run();
    EXPECT_EQ(rig.core.readReg(8), 1);
    EXPECT_EQ(rig.core.readReg(10), 0);
    EXPECT_FALSE(rig.core.ntEntryPred);
}

TEST(Interpreter, PfixstStoresUnderPredicate)
{
    std::vector<Instruction> code = {
        makeLi(31, 55),
        Instruction{Opcode::Pfixst, 0, r::zero, 31, 300},
        makeSys(Syscall::Exit),
    };
    // Note: Li clears the predicate, so arm it via a pure-fix prefix.
    std::vector<Instruction> armedCode = {
        makeI(Opcode::Pfix, 31, 0, 55),
        Instruction{Opcode::Pfixst, 0, r::zero, 31, 300},
        makeSys(Syscall::Exit),
    };
    Rig plain(code);
    plain.run();
    EXPECT_EQ(plain.memory.read(300), 0);

    Rig armed(armedCode);
    armed.core.ntEntryPred = true;
    armed.run();
    EXPECT_EQ(armed.memory.read(300), 55);
}

TEST(Interpreter, SyscallIo)
{
    Rig rig({
        makeSys(Syscall::ReadInt, 8, 0),
        makeSys(Syscall::ReadInt, 9, 0),
        makeSys(Syscall::PrintInt, 0, 8),
        makeLi(10, 'x'),
        makeSys(Syscall::PrintChar, 0, 10),
        makeSys(Syscall::Exit),
    },
    {31});
    auto res = rig.run();
    EXPECT_TRUE(res.exited);
    EXPECT_EQ(rig.core.readReg(8), 31);
    EXPECT_EQ(rig.core.readReg(9), -1);     // EOF
    ASSERT_EQ(rig.io.intOutput.size(), 1u);
    EXPECT_EQ(rig.io.intOutput[0], 31);
    EXPECT_EQ(rig.io.charOutput, "31x");
}

TEST(Interpreter, IoDisallowedIsUnsafeEventWithoutSideEffects)
{
    Rig rig({
        makeLi(8, 5),
        makeSys(Syscall::PrintInt, 0, 8),
        makeSys(Syscall::Exit),
    });
    rig.stepOnce(false);
    auto res = rig.stepOnce(false);
    EXPECT_TRUE(res.unsafeEvent);
    EXPECT_EQ(rig.io.intOutput.size(), 0u);
    EXPECT_EQ(rig.core.pc, 1u);     // not advanced

    // Exit is NOT an unsafe event: it ends the (NT-)path normally.
    rig.core.pc = 2;
    EXPECT_TRUE(rig.stepOnce(false).exited);
}

TEST(Interpreter, WritesGoThroughVersionedBuffer)
{
    Rig rig({
        makeLi(8, 100),
        makeLi(9, 9),
        Instruction{Opcode::St, 0, 8, 9, 0},
        makeSys(Syscall::Exit),
    });
    mem::VersionedBuffer buf(1);
    rig.buf = &buf;
    rig.run();
    EXPECT_EQ(rig.memory.read(100), 0);         // main untouched
    EXPECT_EQ(buf.lookup(100).value_or(-1), 9); // buffered
}

} // namespace
