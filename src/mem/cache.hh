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
 *
 * A hit is the common case (over 99.9% of a run's L1 accesses), so it
 * runs inline in the header; only a miss, which fills a way, calls
 * out of line.
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

/**
 * LRU set-associative cache (tag store only).
 *
 * The cache remembers its most recently used line.  A repeat access to
 * that line only counts a hit: it writes no LRU stamp.  That is exact,
 * because victim selection compares stamps only within one set and
 * the most recently used line already holds the newest stamp of all,
 * so stamping it again changes no order.  Every stamp write (a fill,
 * a hit on another line) moves the mark, and invalidateAll clears it.
 */
class Cache
{
  public:
    /** @throws FatalError when @p geom has no ways, no sets, a line
     *  that is not a whole number of words, or lines not divisible
     *  by its ways. */
    explicit Cache(const CacheGeometry &geom);

    /**
     * Access the line containing word address @p wordAddr.
     * @return true on hit.  On miss the line is filled (LRU victim).
     */
    bool access(uint32_t wordAddr)
    {
        if (accessIfHit(wordAddr))
            return true;
        fill(wordAddr);
        return false;
    }

    /**
     * Access @p wordAddr only if its line is present: on a hit, update
     * the LRU order and hit count exactly as access() does and return
     * true; on a miss, change nothing and return false.
     */
    bool accessIfHit(uint32_t wordAddr)
    {
        const uint32_t line = lineOf(wordAddr);
        if (line == mruLine) {
            ++hitCount;
            return true;
        }
        Way *base = &ways[static_cast<size_t>(setOf(line)) * geom.ways];
        const uint32_t tag = tagOf(line);
        for (uint32_t w = 0; w < geom.ways; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lastUse = ++useClock;
                ++hitCount;
                mruLine = line;
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

    /** The line number of @p wordAddr: its word address over the
     *  words per line. */
    uint32_t lineOf(uint32_t wordAddr) const
    {
        return pow2 ? wordAddr >> lineShift : wordAddr / wordsPerLineLocal;
    }

    uint32_t setOf(uint32_t line) const
    {
        return pow2 ? line & setMask : line % numSetsLocal;
    }

    uint32_t tagOf(uint32_t line) const
    {
        return pow2 ? line >> setShift : line / numSetsLocal;
    }

    /** The miss path: count the miss and fill the LRU (or first
     *  invalid) way of @p wordAddr's set with its line. */
    void fill(uint32_t wordAddr);

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
    /** No line: 64 bits wide, so no 32-bit line number equals it. */
    static constexpr uint64_t noLine = UINT64_MAX;
    /** The most recently used line, which is present, or noLine. */
    uint64_t mruLine = noLine;
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
