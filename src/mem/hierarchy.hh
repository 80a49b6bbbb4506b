/**
 * @file
 * Two-level memory hierarchy timing (Table 2 of the paper):
 * per-core L1 (16KB, 4-way, 32B lines, 3-cycle latency; 2 cycles in
 * the single-core standard configuration), shared L2 (1MB, 8-way, 32B
 * lines, 10 cycles) behind a single port, and 200-cycle main memory
 * behind a bus.
 */

#ifndef PE_MEM_HIERARCHY_HH
#define PE_MEM_HIERARCHY_HH

#include <vector>

#include "src/mem/cache.hh"

namespace pe::mem
{

/** Latency and port parameters of the hierarchy. */
struct MemTimingParams
{
    uint64_t l1HitLatency = 3;
    uint64_t l2HitLatency = 10;
    uint64_t memLatency = 200;
    uint64_t l2PortHold = 2;
    uint64_t memPortHold = 10;
};

/** Table-2 L1 geometry. */
CacheGeometry defaultL1Geometry();

/** Table-2 L2 geometry. */
CacheGeometry defaultL2Geometry();

/** Per-core L1s over a shared, single-ported L2 and memory bus. */
class MemHierarchy
{
  public:
    MemHierarchy(int numCores, const CacheGeometry &l1Geom,
                 const CacheGeometry &l2Geom,
                 const MemTimingParams &params);

    /** Convenience: Table-2 geometry. */
    MemHierarchy(int numCores, const MemTimingParams &params);

    /**
     * Model a data access by @p core to @p wordAddr issued at cycle
     * @p now; updates cache and port state.  An L1 hit runs inline;
     * a miss calls missLatency.
     * @return the access latency in cycles (including port waits).
     */
    uint64_t accessLatency(int core, uint32_t wordAddr, uint64_t now)
    {
        if (l1s[static_cast<size_t>(core)].access(wordAddr))
            return params.l1HitLatency;
        return missLatency(wordAddr, now);
    }

    /**
     * The rest of an access to @p wordAddr issued at cycle @p now
     * whose L1 lookup missed (and filled): the shared L2 behind its
     * port and, on an L2 miss, memory behind the bus.
     * @return the access latency in cycles, as accessLatency.
     */
    uint64_t missLatency(uint32_t wordAddr, uint64_t now);

    uint64_t l1HitLatency() const { return params.l1HitLatency; }

    /** Gang-invalidate a core's L1 (NT-Path squash). */
    void invalidateL1(int core);

    Cache &l1(int core) { return l1s.at(core); }
    Cache &l2Cache() { return l2; }
    const SharedPort &l2Port() const { return l2port; }
    const SharedPort &memPort() const { return membus; }

    /** L1 line capacity: the hard bound on an NT-Path's write set. */
    uint32_t l1LineCapacity() const;

  private:
    std::vector<Cache> l1s;
    Cache l2;
    SharedPort l2port;
    SharedPort membus;
    MemTimingParams params;
};

} // namespace pe::mem

#endif // PE_MEM_HIERARCHY_HH
