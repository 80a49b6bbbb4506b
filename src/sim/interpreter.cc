/**
 * @file
 * PE-RISC interpreter implementation.
 */

#include "src/sim/interpreter.hh"

#include "src/isa/regs.hh"
#include "src/support/status.hh"

namespace pe::sim
{

const char *
crashKindName(CrashKind kind)
{
    switch (kind) {
      case CrashKind::None: return "none";
      case CrashKind::DivByZero: return "div-by-zero";
      case CrashKind::BadAddress: return "bad-address";
      case CrashKind::BadJump: return "bad-jump";
      case CrashKind::HeapOverflow: return "heap-overflow";
    }
    return "?";
}

void
loadProgram(const isa::Program &program, mem::MainMemory &memory,
            Core &core, const MachineLayout &layout)
{
    const uint64_t dataEnd =
        uint64_t{program.dataBase} + program.dataInit.size();
    if (dataEnd > layout.heapLimit() || dataEnd > program.heapBase) {
        pe_fatal("program '", program.name, "': data segment at dataBase ",
                 program.dataBase, " does not fit below heapBase ",
                 program.heapBase, " and the heap limit ",
                 layout.heapLimit());
    }

    pe_assert(dataEnd <= memory.size(),
              "data segment does not fit in memory");
    for (size_t i = 0; i < program.dataInit.size(); ++i) {
        memory.store(static_cast<uint32_t>(program.dataBase + i),
                     program.dataInit[i]);
    }
    memory.write(isa::Program::heapPtrCell,
                 static_cast<int32_t>(program.heapBase));

    core = Core{};
    core.pc = program.entry;
    core.writeReg(isa::reg::sp, static_cast<int32_t>(layout.initialSp()));
    core.writeReg(isa::reg::fp, static_cast<int32_t>(layout.initialSp()));
}

StepResult
step(const DecodedProgram &decoded, Core &core, mem::MemCtx &ctx,
     IoChannel &io, bool allowIo, const MachineLayout &layout)
{
    using isa::Opcode;

    StepResult res;
    res.pc = core.pc;

    if (core.pc >= decoded.size()) {
        res.crash = CrashKind::BadJump;
        return res;
    }

    const DecodedInst &inst = decoded.data()[core.pc];
    res.op = inst.op;

    // The NT-entry predicate holds only through the leading run of
    // fixing instructions; hardware clears it at the first other op.
    bool pred = core.ntEntryPred;
    if (pred && !isa::isPredicatedFix(inst.op))
        core.ntEntryPred = false;

    auto rs1 = [&] { return core.readReg(inst.rs1); };
    auto rs2 = [&] { return core.readReg(inst.rs2); };

    auto validCode = [&](int32_t target) {
        return target >= 0 &&
               static_cast<uint32_t>(target) < decoded.size();
    };

    uint32_t nextPc = core.pc + 1;

    switch (inst.op) {
// ALU, immediate, trapping and branch rows: the table's expression.
#define PE_STEP_CASE(op, cls, field, expr)                              \
      case Opcode::op: {                                                \
        constexpr OpClass c = OpClass::cls;                             \
        [[maybe_unused]] const int32_t a = rs1();                       \
        const int32_t b = c == OpClass::Imm ? inst.imm : rs2();         \
        if (c == OpClass::Trap && b == 0) {                             \
            res.crash = CrashKind::DivByZero;                           \
            return res;                                                 \
        }                                                               \
        const int32_t v = (expr);                                       \
        if (c != OpClass::Branch) {                                     \
            core.writeReg(inst.rd, v);                                  \
            break;                                                      \
        }                                                               \
        if (!validCode(inst.imm)) {                                     \
            res.crash = CrashKind::BadJump;                             \
            return res;                                                 \
        }                                                               \
        res.branch = true;                                              \
        res.branchTaken = v != 0;                                       \
        res.branchTarget = static_cast<uint32_t>(inst.imm);             \
        res.branchFallthrough = core.pc + 1;                            \
        nextPc = v ? res.branchTarget : res.branchFallthrough;          \
        break;                                                          \
      }
#define PE_STEP_BY_HAND(op, cls, field)
      PE_OPCODE_TABLE(PE_STEP_CASE, PE_STEP_BY_HAND)
#undef PE_STEP_CASE
#undef PE_STEP_BY_HAND

      case Opcode::Nop:
        break;

      case Opcode::Ld: {
        uint32_t addr = static_cast<uint32_t>(wrapAdd(rs1(), inst.imm));
        int32_t value;
        res.memAddr = addr;
        if (!ctx.tryRead(addr, value)) {
            res.crash = CrashKind::BadAddress;
            return res;
        }
        core.writeReg(inst.rd, value);
        res.memRead = true;
        break;
      }
      case Opcode::St: {
        uint32_t addr = static_cast<uint32_t>(wrapAdd(rs1(), inst.imm));
        res.memAddr = addr;
        if (!ctx.tryWrite(addr, rs2())) {
            res.crash = CrashKind::BadAddress;
            return res;
        }
        res.memWrite = true;
        break;
      }

      case Opcode::Jmp:
        if (!validCode(inst.imm)) {
            res.crash = CrashKind::BadJump;
            return res;
        }
        nextPc = static_cast<uint32_t>(inst.imm);
        break;
      case Opcode::Jal:
        if (!validCode(inst.imm)) {
            res.crash = CrashKind::BadJump;
            return res;
        }
        core.writeReg(inst.rd, static_cast<int32_t>(core.pc + 1));
        nextPc = static_cast<uint32_t>(inst.imm);
        break;
      case Opcode::Jr: {
        int32_t target = rs1();
        if (!validCode(target)) {
            res.crash = CrashKind::BadJump;
            return res;
        }
        nextPc = static_cast<uint32_t>(target);
        break;
      }

      case Opcode::Alloc: {
        int32_t size = rs1();
        if (size < 0) {
            res.crash = CrashKind::HeapOverflow;
            return res;
        }
        int32_t ptr = ctx.read(isa::Program::heapPtrCell);
        if (ptr < 0 ||
            static_cast<uint64_t>(ptr) + static_cast<uint64_t>(size) >
                layout.heapLimit()) {
            res.crash = CrashKind::HeapOverflow;
            return res;
        }
        ctx.write(isa::Program::heapPtrCell, ptr + size);
        core.writeReg(inst.rd, ptr);
        res.allocated = true;
        res.allocBase = static_cast<uint32_t>(ptr);
        res.allocSize = static_cast<uint32_t>(size);
        res.memRead = res.memWrite = true;
        res.memAddr = isa::Program::heapPtrCell;
        break;
      }

      case Opcode::Chkb:
        res.boundsCheck = true;
        res.checkAddr = static_cast<uint32_t>(wrapAdd(rs1(), inst.imm));
        break;

      case Opcode::Assert:
        if (rs1() == 0) {
            res.assertFired = true;
            res.assertId = inst.imm;
        }
        break;

      case Opcode::Regobj:
        res.registeredObject = true;
        res.objBase = static_cast<uint32_t>(rs1());
        res.objSize = static_cast<uint32_t>(rs2());
        res.objKind = static_cast<isa::ObjectKind>(inst.imm);
        break;
      case Opcode::Unregobj:
        res.unregisteredObject = true;
        res.objBase = static_cast<uint32_t>(rs1());
        break;

      case Opcode::Pfix:
        if (pred)
            core.writeReg(inst.rd, inst.imm);
        break;
      case Opcode::Pfixst:
        if (pred) {
            uint32_t addr =
                static_cast<uint32_t>(wrapAdd(rs1(), inst.imm));
            res.memAddr = addr;
            if (!ctx.tryWrite(addr, rs2())) {
                res.crash = CrashKind::BadAddress;
                return res;
            }
            res.memWrite = true;
        }
        break;

      case Opcode::Sys: {
        auto call = static_cast<isa::Syscall>(inst.imm);
        if (call == isa::Syscall::Exit) {
            res.exited = true;
            return res;
        }
        if (!allowIo) {
            // Unsafe event: side effects of an NT-Path cannot escape
            // the sandbox, so the path must be squashed here.
            res.unsafeEvent = true;
            return res;
        }
        switch (call) {
          case isa::Syscall::PrintInt:
            io.printInt(rs1());
            break;
          case isa::Syscall::PrintChar:
            io.printChar(rs1());
            break;
          case isa::Syscall::ReadInt:
          case isa::Syscall::ReadChar:
            core.writeReg(inst.rd, io.readWord());
            break;
          default:
            pe_panic("unknown syscall ", inst.imm, " at pc ", core.pc);
        }
        break;
      }

      default:
        pe_panic("unhandled opcode ", opcodeName(inst.op), " at pc ",
                 core.pc);
    }

    core.pc = nextPc;
    return res;
}

} // namespace pe::sim
