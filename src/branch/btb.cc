/**
 * @file
 * BTB implementation.
 */

#include "src/branch/btb.hh"

#include <bit>

#include "src/support/status.hh"

namespace pe::branch
{

Btb::Btb(const BtbParams &p) : ways(p.ways)
{
    pe_assert(p.ways >= 1 && p.entries % p.ways == 0 &&
                  std::has_single_bit(p.entries / p.ways),
              "BTB needs a power-of-two set count");
    pe_assert(p.counterBits >= 1 && p.counterBits <= 8,
              "counter bits out of range");
    setMask = p.entries / p.ways - 1;
    saturation = static_cast<uint8_t>((1u << p.counterBits) - 1);
    entries.resize(p.entries);
}

Btb::Entry *
Btb::allocate(uint32_t pc)
{
    Entry *base = setBase(pc);
    Entry *victim = base;
    for (uint32_t w = 0; w < ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    if (victim->valid)
        ++evictionCount;
    *victim = Entry{};
    victim->valid = true;
    victim->pc = pc;
    return victim;
}

void
Btb::resetCounters()
{
    for (auto &e : entries) {
        e.cnt[0] = 0;
        e.cnt[1] = 0;
    }
}

} // namespace pe::branch
