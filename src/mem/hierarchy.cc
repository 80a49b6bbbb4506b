/**
 * @file
 * Memory hierarchy timing implementation.
 */

#include "src/mem/hierarchy.hh"

#include "src/support/status.hh"

namespace pe::mem
{

CacheGeometry
defaultL1Geometry()
{
    return CacheGeometry{16 * 1024, 4, 32};
}

CacheGeometry
defaultL2Geometry()
{
    return CacheGeometry{1024 * 1024, 8, 32};
}

MemHierarchy::MemHierarchy(int numCores, const CacheGeometry &l1Geom,
                           const CacheGeometry &l2Geom,
                           const MemTimingParams &p)
    : l2(l2Geom), params(p)
{
    pe_assert(numCores >= 1, "need at least one core");
    l1s.assign(static_cast<size_t>(numCores), Cache(l1Geom));
}

MemHierarchy::MemHierarchy(int numCores, const MemTimingParams &p)
    : MemHierarchy(numCores, defaultL1Geometry(), defaultL2Geometry(), p)
{}

uint64_t
MemHierarchy::missLatency(uint32_t wordAddr, uint64_t now)
{
    // Arbitrate for the shared L2 port.
    uint64_t l2Start =
        l2port.acquire(now + params.l1HitLatency, params.l2PortHold);
    if (l2.access(wordAddr))
        return (l2Start - now) + params.l2HitLatency;

    // L2 miss: arbitrate for the memory bus.
    uint64_t memStart =
        membus.acquire(l2Start + params.l2HitLatency, params.memPortHold);
    return (memStart - now) + params.memLatency;
}

void
MemHierarchy::invalidateL1(int core)
{
    l1s.at(core).invalidateAll();
}

uint32_t
MemHierarchy::l1LineCapacity() const
{
    return l1s.front().geometry().numLines();
}

} // namespace pe::mem
