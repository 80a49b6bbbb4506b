/**
 * @file
 * Cache timing model implementation.
 */

#include "src/mem/cache.hh"

#include <algorithm>
#include <bit>

#include "src/support/status.hh"

namespace pe::mem
{

Cache::Cache(const CacheGeometry &g) : geom(g)
{
    pe_assert(g.lineBytes >= 4 && g.lineBytes % 4 == 0,
              "line size must be a multiple of a word");
    pe_assert(g.numLines() % g.ways == 0, "lines not divisible by ways");
    wordsPerLineLocal = g.lineBytes / 4;
    numSetsLocal = geom.numSets();
    ways.resize(static_cast<size_t>(numSetsLocal) * geom.ways);

    pow2 = std::has_single_bit(wordsPerLineLocal) &&
           std::has_single_bit(numSetsLocal);
    if (pow2) {
        lineShift = static_cast<uint32_t>(
            std::countr_zero(wordsPerLineLocal));
        setShift = static_cast<uint32_t>(std::countr_zero(numSetsLocal));
        setMask = numSetsLocal - 1;
    }
}

bool
Cache::access(uint32_t wordAddr)
{
    if (accessIfHit(wordAddr))
        return true;

    // Miss: fill the LRU (or first invalid) way.
    uint32_t set, tag;
    indexOf(wordAddr, set, tag);
    Way *base = &ways[static_cast<size_t>(set) * geom.ways];
    ++useClock;
    ++missCount;
    Way *victim = base;
    for (uint32_t w = 0; w < geom.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock;
    return false;
}

bool
Cache::contains(uint32_t wordAddr) const
{
    uint32_t set, tag;
    indexOf(wordAddr, set, tag);
    const Way *base = &ways[static_cast<size_t>(set) * geom.ways];
    for (uint32_t w = 0; w < geom.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::invalidateAll()
{
    std::fill(ways.begin(), ways.end(), Way{});
}

uint64_t
SharedPort::acquire(uint64_t now, uint64_t hold)
{
    uint64_t start = std::max(now, freeAt);
    waited += start - now;
    freeAt = start + hold;
    return start;
}

void
SharedPort::reset()
{
    freeAt = 0;
    waited = 0;
}

} // namespace pe::mem
