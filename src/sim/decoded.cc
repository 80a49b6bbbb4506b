/**
 * @file
 * Program pre-decode.
 */

#include "src/sim/decoded.hh"

#include <algorithm>
#include <limits>

#include "src/analysis/cfg.hh"

namespace pe::sim
{

namespace
{

/** The opcode-table class of every opcode, indexed by isa::Opcode. */
constexpr OpClass kOpClass[] = {
#define PE_CLASS(op, cls, ...) OpClass::cls,
    PE_OPCODE_TABLE(PE_CLASS, PE_CLASS)
#undef PE_CLASS
};

} // namespace

DecodedProgram::DecodedProgram(const isa::Program &program,
                               const TimingConfig &timing)
{
    const size_t codeSize = program.code.size();
    insts.reserve(codeSize + 1);
    for (const isa::Instruction &inst : program.code) {
        DecodedInst di;
        di.imm = inst.imm;
        di.op = inst.op;
        di.rd = inst.rd;
        di.rs1 = inst.rs1;
        di.rs2 = inst.rs2;
        const OpClass cls = inst.op < isa::Opcode::NumOpcodes
                                ? kOpClass[static_cast<uint8_t>(inst.op)]
                                : OpClass::Surface;
        di.cls = cls;
        const bool staticTarget = cls == OpClass::Branch ||
                                  cls == OpClass::Jump ||
                                  cls == OpClass::Link;
        const uint64_t cost = opcodeCost(timing, inst.op);
        // Besides Surface-class opcodes, two cases surface: a
        // statically invalid target (checked with the analysis CFG's
        // predicate, so decode and static analysis never disagree),
        // where step() raises BadJump with the PC on the faulting
        // instruction; and an absurd configured cost, which only the
        // slim path's 64-bit accounting handles exactly.
        if (cls != OpClass::Surface &&
            cost <= std::numeric_limits<uint32_t>::max() &&
            (!staticTarget || analysis::staticTargetValid(inst, codeSize))) {
            di.kind = handlerKind(inst.op);
            di.cost = static_cast<uint32_t>(cost);
        }
        insts.push_back(di);
    }
    codeLen = static_cast<uint32_t>(codeSize);
    insts.emplace_back();   // the Surface sentinel
}

void
DecodedProgram::markNoSpawn(uint32_t startPc, uint32_t endPc)
{
    endPc = std::min(endPc, codeLen);
    for (uint32_t pc = startPc; pc < endPc; ++pc)
        insts[pc].flags |= DecodedInst::FlagNoSpawn;
}

} // namespace pe::sim
