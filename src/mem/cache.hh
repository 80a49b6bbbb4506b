/**
 * @file
 * Set-associative cache timing model and shared-resource ports.
 *
 * These model *time only*.  Correctness of speculative data lives in
 * VersionedBuffer; the Cache answers "hit or miss?" so the engine can
 * charge the Table-2 latencies, and SharedPort serializes accesses to
 * the shared L2 and the memory bus so NT-Path cores contend with the
 * primary core (the source of most of the CMP option's < 9.9%
 * overhead besides spawns).
 */

#ifndef PE_MEM_CACHE_HH
#define PE_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pe::mem
{

/** Geometry of one cache level. */
struct CacheGeometry
{
    uint32_t sizeBytes;
    uint32_t ways;
    uint32_t lineBytes;

    uint32_t numLines() const { return sizeBytes / lineBytes; }
    uint32_t numSets() const { return numLines() / ways; }
};

/** LRU set-associative cache (tag store only). */
class Cache
{
  public:
    explicit Cache(const CacheGeometry &geom);

    /**
     * Access the line containing word address @p wordAddr.
     * @return true on hit.  On miss the line is filled (LRU victim).
     */
    bool access(uint32_t wordAddr);

    /**
     * Access @p wordAddr only if its line is present: on a hit, update
     * the LRU order and hit count exactly as access() does and return
     * true; on a miss, change nothing and return false.
     */
    bool accessIfHit(uint32_t wordAddr)
    {
        uint32_t set, tag;
        indexOf(wordAddr, set, tag);
        Way *base = &ways[static_cast<size_t>(set) * geom.ways];
        for (uint32_t w = 0; w < geom.ways; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lastUse = ++useClock;
                ++hitCount;
                return true;
            }
        }
        return false;
    }

    /** Probe without side effects. */
    bool contains(uint32_t wordAddr) const;

    void invalidateAll();

    uint64_t hits() const { return hitCount; }
    uint64_t misses() const { return missCount; }
    const CacheGeometry &geometry() const { return geom; }

  private:
    struct Way
    {
        bool valid = false;
        uint32_t tag = 0;
        uint64_t lastUse = 0;
    };

    /** Split @p wordAddr into its set index and tag. */
    void indexOf(uint32_t wordAddr, uint32_t &set, uint32_t &tag) const
    {
        if (pow2) {
            uint32_t line = wordAddr >> lineShift;
            set = line & setMask;
            tag = line >> setShift;
        } else {
            uint32_t line = wordAddr / wordsPerLineLocal;
            set = line % numSetsLocal;
            tag = line / numSetsLocal;
        }
    }

    CacheGeometry geom;
    uint32_t wordsPerLineLocal;
    uint32_t numSetsLocal;
    // Every Table-2 geometry is power-of-two shaped, so the per-access
    // set/tag split is shift/mask; odd test geometries take the exact
    // div/mod path instead.
    bool pow2 = false;
    uint32_t lineShift = 0;
    uint32_t setShift = 0;
    uint32_t setMask = 0;
    std::vector<Way> ways;      //!< numSets * geom.ways entries
    uint64_t useClock = 0;
    uint64_t hitCount = 0;
    uint64_t missCount = 0;
};

/**
 * A single-ported shared resource (the L2 port, the memory bus).
 * An access requested at @p now starts when the port frees up and
 * occupies it for @p hold cycles.
 */
class SharedPort
{
  public:
    /** @return the cycle at which the access begins. */
    uint64_t acquire(uint64_t now, uint64_t hold);

    uint64_t busyUntil() const { return freeAt; }
    uint64_t contentionCycles() const { return waited; }
    void reset();

  private:
    uint64_t freeAt = 0;
    uint64_t waited = 0;
};

} // namespace pe::mem

#endif // PE_MEM_CACHE_HH
