/**
 * @file
 * Opcode costs, read from the opcode table's cost column.
 */

#include "src/sim/timing.hh"

#include "src/sim/optable.hh"

namespace pe::sim
{

uint64_t
opcodeCost(const TimingConfig &t, isa::Opcode op)
{
    switch (op) {
#define PE_COST(opcode, cls, cost, ...)                                 \
      case isa::Opcode::opcode: return t.cost;
      PE_OPCODE_TABLE(PE_COST, PE_COST)
#undef PE_COST
      default: return t.aluCost;
    }
}

} // namespace pe::sim
