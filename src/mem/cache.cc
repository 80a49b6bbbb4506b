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
    // Reject a degenerate geometry before dividing by any of it.
    if (g.lineBytes < 4 || g.lineBytes % 4 != 0 || g.ways == 0 ||
        g.numLines() < g.ways || g.numLines() % g.ways != 0) {
        pe_fatal("cache geometry needs a line of whole words, at least "
                 "one way and one set, and lines divisible by ways; got ",
                 g.sizeBytes, " bytes, ", g.ways, " ways, ", g.lineBytes,
                 "-byte lines");
    }
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

void
Cache::fill(uint32_t wordAddr)
{
    const uint32_t line = lineOf(wordAddr);
    Way *base = &ways[static_cast<size_t>(setOf(line)) * geom.ways];
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
    victim->tag = tagOf(line);
    victim->lastUse = useClock;
    mruLine = line;
}

bool
Cache::contains(uint32_t wordAddr) const
{
    const uint32_t line = lineOf(wordAddr);
    const uint32_t tag = tagOf(line);
    const Way *base = &ways[static_cast<size_t>(setOf(line)) * geom.ways];
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
    mruLine = noLine;
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
