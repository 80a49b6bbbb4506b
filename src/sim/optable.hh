/**
 * @file
 * The opcode table: every PE-RISC opcode once, with its tier class,
 * the TimingConfig field that prices it and — for ALU, immediate,
 * trapping and branch opcodes — its semantics, an expression over the
 * operands `a` (rs1) and `b` (rs2, or the immediate in Imm rows).
 *
 * Everything that classifies or executes instructions is generated
 * from it: HandlerKind and the decode classification (decoded.hh),
 * the block tier's dispatch labels (dispatch.cc), sim::step's ALU and
 * branch cases (interpreter.cc) and opcodeCost (timing.cc).  Adding
 * an opcode is one row here, in isa::Opcode order; a Surface-, Load-
 * or Store-class row also needs its case in sim::step.
 */

#ifndef PE_SIM_OPTABLE_HH
#define PE_SIM_OPTABLE_HH

#include <cstdint>
#include <limits>

namespace pe::sim
{

/** How the block tier (runBlock) treats an opcode. */
enum class OpClass : uint8_t
{
    Surface,    //!< only sim::step runs it: Alloc, objects, Sys
    Nop,        //!< retires with no effect
    Alu,        //!< rd <- expr(rs1, rs2)
    Imm,        //!< rd <- expr(rs1, imm)
    Trap,       //!< rd <- expr(rs1, rs2); rs2 == 0 surfaces (DivByZero)
    Branch,     //!< taken iff expr(rs1, rs2); target checked at decode
    Jump,       //!< pc <- imm; target checked at decode
    Link,       //!< rd <- pc + 1; pc <- imm; target checked at decode
    JumpReg,    //!< pc <- rs1; an invalid target surfaces (BadJump)
    Check,      //!< detector hook; a NOP when the run has no detector
    Fix,        //!< predicated rd <- imm; a NOP once the predicate clears
    FixStore,   //!< predicated store; surfaces while the predicate is set
    Load,       //!< rd <- mem[rs1 + imm]; surfaces without a memory port
    Store,      //!< mem[rs1 + imm] <- rs2; surfaces without a memory port
};

/**
 * E(opcode, class, cost, expression) rows carry semantics;
 * C(opcode, class, cost) rows are executed by their class.
 */
#define PE_OPCODE_TABLE(E, C)                                           \
    C(Nop,      Nop,      aluCost)                                      \
    E(Add,      Alu,      aluCost,    wrapAdd(a, b))                    \
    E(Sub,      Alu,      aluCost,    wrapSub(a, b))                    \
    E(Mul,      Alu,      mulCost,    wrapMul(a, b))                    \
    E(Div,      Trap,     divCost,    safeDiv(a, b))                    \
    E(Rem,      Trap,     divCost,    safeRem(a, b))                    \
    E(And,      Alu,      aluCost,    a & b)                            \
    E(Or,       Alu,      aluCost,    a | b)                            \
    E(Xor,      Alu,      aluCost,    a ^ b)                            \
    E(Shl,      Alu,      aluCost,    shiftLeft(a, b))                  \
    E(Shr,      Alu,      aluCost,    shiftRight(a, b))                 \
    E(Sra,      Alu,      aluCost,    a >> (b & 31))                    \
    E(Slt,      Alu,      aluCost,    a < b)                            \
    E(Sle,      Alu,      aluCost,    a <= b)                           \
    E(Seq,      Alu,      aluCost,    a == b)                           \
    E(Sne,      Alu,      aluCost,    a != b)                           \
    E(Sgt,      Alu,      aluCost,    a > b)                            \
    E(Sge,      Alu,      aluCost,    a >= b)                           \
    E(Addi,     Imm,      aluCost,    wrapAdd(a, b))                    \
    E(Andi,     Imm,      aluCost,    a & b)                            \
    E(Ori,      Imm,      aluCost,    a | b)                            \
    E(Xori,     Imm,      aluCost,    a ^ b)                            \
    E(Shli,     Imm,      aluCost,    shiftLeft(a, b))                  \
    E(Shri,     Imm,      aluCost,    shiftRight(a, b))                 \
    E(Slti,     Imm,      aluCost,    a < b)                            \
    E(Li,       Imm,      aluCost,    b)                                \
    C(Ld,       Load,     aluCost)                                      \
    C(St,       Store,    aluCost)                                      \
    E(Beq,      Branch,   branchCost, a == b)                           \
    E(Bne,      Branch,   branchCost, a != b)                           \
    E(Blt,      Branch,   branchCost, a < b)                            \
    E(Bge,      Branch,   branchCost, a >= b)                           \
    E(Ble,      Branch,   branchCost, a <= b)                           \
    E(Bgt,      Branch,   branchCost, a > b)                            \
    C(Jmp,      Jump,     jumpCost)                                     \
    C(Jal,      Link,     jumpCost)                                     \
    C(Jr,       JumpReg,  jumpCost)                                     \
    C(Alloc,    Surface,  allocCost)                                    \
    C(Chkb,     Check,    aluCost)                                      \
    C(Assert,   Check,    aluCost)                                      \
    C(Regobj,   Surface,  regObjCost)                                   \
    C(Unregobj, Surface,  regObjCost)                                   \
    C(Pfix,     Fix,      fixCost)                                      \
    C(Pfixst,   FixStore, fixCost)                                      \
    C(Sys,      Surface,  sysCost)

// Two's-complement helpers the expressions use (no signed-overflow UB).
inline int32_t
wrapAdd(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) +
                                static_cast<uint32_t>(b));
}

inline int32_t
wrapSub(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) -
                                static_cast<uint32_t>(b));
}

inline int32_t
wrapMul(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) *
                                static_cast<uint32_t>(b));
}

/** Quotient for b != 0; INT_MIN / -1 is defined to saturate. */
inline int32_t
safeDiv(int32_t a, int32_t b)
{
    if (a == std::numeric_limits<int32_t>::min() && b == -1)
        return a;
    return a / b;
}

/** Remainder for b != 0; INT_MIN % -1 is 0. */
inline int32_t
safeRem(int32_t a, int32_t b)
{
    if (a == std::numeric_limits<int32_t>::min() && b == -1)
        return 0;
    return a % b;
}

/** Shift amounts use their low five bits. */
inline int32_t
shiftLeft(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) << (b & 31));
}

inline int32_t
shiftRight(int32_t a, int32_t b)
{
    return static_cast<int32_t>(static_cast<uint32_t>(a) >> (b & 31));
}

} // namespace pe::sim

#endif // PE_SIM_OPTABLE_HH
