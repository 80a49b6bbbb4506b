/**
 * @file
 * Instruction encode/decode and disassembly.
 */

#include "src/isa/instruction.hh"

#include <sstream>

#include "src/isa/regs.hh"
#include "src/support/status.hh"

namespace pe::isa
{

uint64_t
encode(const Instruction &inst)
{
    pe_assert(inst.op < Opcode::NumOpcodes, "encode: bad opcode");
    pe_assert(inst.rd < numRegs && inst.rs1 < numRegs && inst.rs2 < numRegs,
              "encode: bad register specifier");
    uint64_t word = 0;
    word |= static_cast<uint64_t>(inst.op) << 56;
    word |= static_cast<uint64_t>(inst.rd) << 50;
    word |= static_cast<uint64_t>(inst.rs1) << 44;
    word |= static_cast<uint64_t>(inst.rs2) << 38;
    word |= static_cast<uint64_t>(static_cast<uint32_t>(inst.imm));
    return word;
}

Instruction
decode(uint64_t word)
{
    Instruction inst;
    uint8_t op = static_cast<uint8_t>(word >> 56);
    if (op >= static_cast<uint8_t>(Opcode::NumOpcodes))
        pe_panic("decode: invalid opcode ", static_cast<int>(op));
    inst.op = static_cast<Opcode>(op);
    inst.rd = static_cast<uint8_t>((word >> 50) & 0x3f);
    inst.rs1 = static_cast<uint8_t>((word >> 44) & 0x3f);
    inst.rs2 = static_cast<uint8_t>((word >> 38) & 0x3f);
    inst.imm = static_cast<int32_t>(static_cast<uint32_t>(word));
    return inst;
}

std::string
disassemble(const Instruction &inst)
{
    std::ostringstream oss;
    oss << opcodeName(inst.op);
    auto r = [](uint8_t n) {
        std::string name = "r";
        name += std::to_string(n);
        return name;
    };
    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::Div: case Opcode::Rem: case Opcode::And:
      case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
      case Opcode::Shr: case Opcode::Sra: case Opcode::Slt:
      case Opcode::Sle: case Opcode::Seq: case Opcode::Sne:
      case Opcode::Sgt: case Opcode::Sge:
        oss << " " << r(inst.rd) << ", " << r(inst.rs1) << ", "
            << r(inst.rs2);
        break;
      case Opcode::Addi: case Opcode::Andi: case Opcode::Ori:
      case Opcode::Xori: case Opcode::Shli: case Opcode::Shri:
      case Opcode::Slti:
        oss << " " << r(inst.rd) << ", " << r(inst.rs1) << ", "
            << inst.imm;
        break;
      case Opcode::Li:
      case Opcode::Pfix:
        oss << " " << r(inst.rd) << ", " << inst.imm;
        break;
      case Opcode::Ld:
        oss << " " << r(inst.rd) << ", " << inst.imm << "("
            << r(inst.rs1) << ")";
        break;
      case Opcode::St:
      case Opcode::Pfixst:
        oss << " " << r(inst.rs2) << ", " << inst.imm << "("
            << r(inst.rs1) << ")";
        break;
      case Opcode::Beq: case Opcode::Bne: case Opcode::Blt:
      case Opcode::Bge: case Opcode::Ble: case Opcode::Bgt:
        oss << " " << r(inst.rs1) << ", " << r(inst.rs2) << ", "
            << inst.imm;
        break;
      case Opcode::Jmp:
        oss << " " << inst.imm;
        break;
      case Opcode::Jal:
        oss << " " << r(inst.rd) << ", " << inst.imm;
        break;
      case Opcode::Jr:
        oss << " " << r(inst.rs1);
        break;
      case Opcode::Alloc:
        oss << " " << r(inst.rd) << ", " << r(inst.rs1);
        break;
      case Opcode::Chkb:
        oss << " " << inst.imm << "(" << r(inst.rs1) << ")";
        break;
      case Opcode::Assert:
        oss << " " << r(inst.rs1) << ", #" << inst.imm;
        break;
      case Opcode::Regobj:
        oss << " " << r(inst.rs1) << ", " << r(inst.rs2) << ", kind="
            << inst.imm;
        break;
      case Opcode::Unregobj:
        oss << " " << r(inst.rs1);
        break;
      case Opcode::Sys:
        oss << " #" << inst.imm << " rd=" << r(inst.rd) << " rs1="
            << r(inst.rs1);
        break;
      default:
        pe_panic("disassemble: bad opcode");
    }
    return oss.str();
}

Instruction
makeR(Opcode op, uint8_t rd, uint8_t rs1, uint8_t rs2)
{
    return Instruction{op, rd, rs1, rs2, 0};
}

Instruction
makeI(Opcode op, uint8_t rd, uint8_t rs1, int32_t imm)
{
    return Instruction{op, rd, rs1, 0, imm};
}

Instruction
makeLi(uint8_t rd, int32_t imm)
{
    return Instruction{Opcode::Li, rd, 0, 0, imm};
}

Instruction
makeBranch(Opcode op, uint8_t rs1, uint8_t rs2, int32_t target)
{
    pe_assert(isConditionalBranch(op), "makeBranch: not a branch");
    return Instruction{op, 0, rs1, rs2, target};
}

Instruction
makeJmp(int32_t target)
{
    return Instruction{Opcode::Jmp, 0, 0, 0, target};
}

Instruction
makeJal(uint8_t rd, int32_t target)
{
    return Instruction{Opcode::Jal, rd, 0, 0, target};
}

Instruction
makeJr(uint8_t rs1)
{
    return Instruction{Opcode::Jr, 0, rs1, 0, 0};
}

Instruction
makeSys(Syscall call, uint8_t rd, uint8_t rs1)
{
    return Instruction{Opcode::Sys, rd, rs1, 0,
                       static_cast<int32_t>(call)};
}

} // namespace pe::isa
