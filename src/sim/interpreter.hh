/**
 * @file
 * The PE-RISC per-step interpreter: executes one pre-decoded
 * instruction against a Core, a (possibly versioned) memory view and
 * an I/O channel, and reports what happened as a StepResult.
 *
 * `step` is the tier that runs everything: syscalls, allocation,
 * object registration, detector events and crashes are handled here
 * and nowhere else.  Its loads and stores are the reference the block
 * tier's memory port (decoded.hh) must match for detector-free runs,
 * while its ALU, immediate, trapping and branch cases are generated
 * from the opcode table (optable.hh) that the block tier (decoded.hh)
 * dispatches through too.
 *
 * The interpreter is deliberately policy-free; PathExpander policy
 * (NT-Path selection, sandboxing, termination, detector invocation,
 * timing) is layered on top by the engines in src/core and src/swpe.
 */

#ifndef PE_SIM_INTERPRETER_HH
#define PE_SIM_INTERPRETER_HH

#include "src/isa/program.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/sim/core.hh"
#include "src/sim/decoded.hh"
#include "src/sim/events.hh"
#include "src/sim/io.hh"

namespace pe::sim
{

/**
 * Address-space layout parameters of the simulated machine.  An engine
 * refuses a layout unless 16 <= stackWords < memWords: the stack then
 * holds the 16 words above the initial SP, and heapLimit() is
 * positive and does not wrap.
 */
struct MachineLayout
{
    uint32_t memWords = 1u << 20;   //!< 4 MB of data memory
    uint32_t stackWords = 1u << 16; //!< reserved for the stack

    uint32_t heapLimit() const { return memWords - stackWords; }
    uint32_t initialSp() const { return memWords - 16; }
};

/**
 * Initialize memory and @p core for @p program: copy the data image,
 * seed the heap bump pointer and set PC/SP/FP.
 */
void loadProgram(const isa::Program &program, mem::MainMemory &memory,
                 Core &core, const MachineLayout &layout);

/**
 * Execute the instruction of @p decoded at @p core.pc.
 *
 * @param allowIo false while running an NT-Path: a non-Exit syscall
 *                then becomes an unsafe event (no side effect, PC not
 *                advanced) instead of executing.
 * @return the event record; on crash or unsafe event the PC is left
 *         at the faulting instruction.
 */
StepResult step(const DecodedProgram &decoded, Core &core,
                mem::MemCtx &ctx, IoChannel &io, bool allowIo,
                const MachineLayout &layout);

} // namespace pe::sim

#endif // PE_SIM_INTERPRETER_HH
