/**
 * @file
 * Opcode set of the PE-RISC target ISA.
 *
 * PE-RISC is the 32-bit word-addressed RISC ISA that the MiniC
 * compiler targets and the simulator executes.  It contains the three
 * PathExpander-specific extensions described in the paper:
 *
 *  - the predicated variable-fixing pair Pfix/Pfixst (Section 4.4,
 *    Table 1), executed only while the core's NT-entry predicate
 *    register is set;
 *  - Chkb, the hook through which a dynamic checker (CCured-like or
 *    iWatcher-like) validates a memory access;
 *  - Assert, the assertion-based detection method.
 *
 * Regobj/Unregobj communicate object lifetimes (arrays, heap blocks
 * and their guard zones) to the dynamic checkers, standing in for the
 * instrumented allocation library the paper's checkers rely on.
 */

#ifndef PE_ISA_OPCODE_HH
#define PE_ISA_OPCODE_HH

#include <cstdint>

namespace pe::isa
{

enum class Opcode : uint8_t
{
    Nop = 0,

    // ALU, register-register.
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Shl, Shr, Sra,
    Slt, Sle, Seq, Sne, Sgt, Sge,

    // ALU, register-immediate.
    Addi, Andi, Ori, Xori, Shli, Shri, Slti,
    Li,                 //!< rd <- imm (full 32-bit immediate)

    // Memory: word load/store, address = regs[rs1] + imm.
    Ld,                 //!< rd <- mem[rs1 + imm]
    St,                 //!< mem[rs1 + imm] <- rs2

    // Control flow.  Branch/jump targets are absolute code indices.
    Beq, Bne, Blt, Bge, Ble, Bgt,
    Jmp,                //!< pc <- imm
    Jal,                //!< rd <- pc + 1; pc <- imm
    Jr,                 //!< pc <- regs[rs1]

    // Allocation and detector hooks.
    Alloc,              //!< rd <- bump-allocate regs[rs1] words
    Chkb,               //!< checker validates address regs[rs1] + imm
    Assert,             //!< report assertion imm when regs[rs1] == 0
    Regobj,             //!< register object [regs[rs1], +regs[rs2])
    Unregobj,           //!< unregister object at base regs[rs1]

    // PathExpander predicated fixing (NOPs unless NT-entry predicate).
    Pfix,               //!< rd <- imm
    Pfixst,             //!< mem[rs1 + imm] <- rs2

    // System call; imm selects the Syscall.
    Sys,

    NumOpcodes
};

/** Syscall selectors carried in the imm field of Sys. */
enum class Syscall : int32_t
{
    Exit = 0,           //!< end of program
    PrintInt,           //!< output regs[rs1] as an integer
    PrintChar,          //!< output regs[rs1] as a character
    ReadInt,            //!< rd <- next input word (or -1 at EOF)
    ReadChar,           //!< rd <- next input word (or -1 at EOF)
    NumSyscalls
};

/** Human-readable mnemonic for @p op. */
const char *opcodeName(Opcode op);

/** True for the six conditional branch opcodes. */
bool isConditionalBranch(Opcode op);

/** True for opcodes that read or write data memory. */
bool isMemoryOp(Opcode op);

/** True for the predicated fixing opcodes. */
bool isPredicatedFix(Opcode op);

} // namespace pe::isa

#endif // PE_ISA_OPCODE_HH
