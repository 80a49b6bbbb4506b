/**
 * @file
 * BTB implementation.
 */

#include "src/branch/btb.hh"

#include "src/support/status.hh"

namespace pe::branch
{

Btb::Btb(const BtbParams &p) : params(p)
{
    pe_assert(p.entries % p.ways == 0, "entries not divisible by ways");
    pe_assert(p.counterBits >= 1 && p.counterBits <= 8,
              "counter bits out of range");
    numSets = p.entries / p.ways;
    saturation = static_cast<uint8_t>((1u << p.counterBits) - 1);
    entries.resize(p.entries);
}

Btb::Entry *
Btb::find(uint32_t pc)
{
    Entry *base = &entries[static_cast<size_t>(setOf(pc)) * params.ways];
    for (uint32_t w = 0; w < params.ways; ++w) {
        if (base[w].valid && base[w].pc == pc)
            return &base[w];
    }
    return nullptr;
}

const Btb::Entry *
Btb::find(uint32_t pc) const
{
    return const_cast<Btb *>(this)->find(pc);
}

Btb::Entry *
Btb::allocate(uint32_t pc)
{
    Entry *base = &entries[static_cast<size_t>(setOf(pc)) * params.ways];
    Entry *victim = base;
    for (uint32_t w = 0; w < params.ways; ++w) {
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

uint8_t
Btb::count(uint32_t pc, bool edgeTaken) const
{
    ++lookupCount;
    const Entry *e = find(pc);
    if (!e) {
        ++lookupMisses;
        return 0;   // BTB miss == exercise count of zero
    }
    return e->cnt[edgeTaken ? 1 : 0];
}

void
Btb::increment(uint32_t pc, bool edgeTaken)
{
    Entry *e = find(pc);
    if (!e)
        e = allocate(pc);
    e->lastUse = ++useClock;
    uint8_t &c = e->cnt[edgeTaken ? 1 : 0];
    if (c < saturation)
        ++c;
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
