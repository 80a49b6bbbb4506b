/**
 * @file
 * Branch target buffer extended with PathExpander's per-edge exercise
 * counters.
 *
 * The paper (Section 4.1/4.2) extends each BTB entry with two 4-bit
 * exercise counters, one per branch edge, recording how often that
 * edge has executed.  PathExpander spawns an NT-Path on a non-taken
 * edge whose counter is below NTPathCounterThreshold.  Counters are
 * periodically reset (every CounterResetInterval instructions) so that
 * long-running programs keep exploring, and a BTB miss is treated as
 * an exercise count of zero.
 *
 * The lookups are defined here so that the block tier's dispatch loop
 * (src/sim/dispatch.cc) inlines its one lookup per branch.
 */

#ifndef PE_BRANCH_BTB_HH
#define PE_BRANCH_BTB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pe::branch
{

/**
 * BTB geometry and counter parameters.  The set count (entries / ways)
 * must be a power of two: sets are indexed by the low bits of the PC.
 */
struct BtbParams
{
    uint32_t entries = 2048;    //!< Table 2: 2K entries
    uint32_t ways = 2;          //!< Table 2: 2-way
    uint8_t counterBits = 4;    //!< saturating exercise counters
};

/** 2-way BTB whose entries carry two saturating exercise counters. */
class Btb
{
  public:
    explicit Btb(const BtbParams &params = BtbParams{});

    /**
     * Exercise count of edge (@p pc, @p edgeTaken).
     * A miss reads as zero, as the paper specifies.
     */
    uint8_t count(uint32_t pc, bool edgeTaken) const
    {
        const Entry *e = find(pc);
        return e ? e->cnt[edgeTaken ? 1 : 0] : 0;
    }

    /**
     * Record one execution (or NT-Path entry) of the edge; allocates
     * the entry on a miss, evicting LRU.
     */
    void increment(uint32_t pc, bool edgeTaken)
    {
        Entry *e = find(pc);
        bump(e ? e : allocate(pc), edgeTaken);
    }

    /**
     * The taken-path bookkeeping of a branch at @p pc that resolved
     * @p taken, in one lookup: when the non-taken edge's count is
     * below @p spawnBelow (a miss reads as zero) the branch would
     * spawn, so change nothing and return false; otherwise increment
     * the taken edge exactly as increment() does (allocation, LRU
     * stamp) and return true.  Incrementing the taken edge first, as
     * the per-step path does, would not change the answer: it bumps
     * the other counter, and a fresh entry reads zero like a miss.
     */
    bool bumpUnlessBelow(uint32_t pc, bool taken, uint8_t spawnBelow)
    {
        Entry *e = find(pc);
        if ((e ? e->cnt[taken ? 0 : 1] : 0) < spawnBelow)
            return false;
        bump(e ? e : allocate(pc), taken);
        return true;
    }

    /** Periodic counter reset (CounterResetInterval). */
    void resetCounters();

    uint8_t maxCount() const { return saturation; }
    uint64_t evictions() const { return evictionCount; }

  private:
    struct Entry
    {
        bool valid = false;
        uint32_t pc = 0;
        uint8_t cnt[2] = {0, 0};    //!< [0]=not-taken edge, [1]=taken
        uint64_t lastUse = 0;
    };

    Entry *setBase(uint32_t pc)
    {
        return &entries[static_cast<size_t>(pc & setMask) * ways];
    }

    const Entry *find(uint32_t pc) const
    {
        return const_cast<Btb *>(this)->find(pc);
    }

    Entry *find(uint32_t pc)
    {
        Entry *base = setBase(pc);
        for (uint32_t w = 0; w < ways; ++w) {
            if (base[w].valid && base[w].pc == pc)
                return &base[w];
        }
        return nullptr;
    }

    /** Count one execution of @p e's @p edgeTaken edge; stamp LRU. */
    void bump(Entry *e, bool edgeTaken)
    {
        e->lastUse = ++useClock;
        uint8_t &c = e->cnt[edgeTaken ? 1 : 0];
        if (c < saturation)
            ++c;
    }

    Entry *allocate(uint32_t pc);

    uint32_t ways;
    uint32_t setMask;               //!< sets - 1 (a power of two)
    uint8_t saturation;
    std::vector<Entry> entries;
    uint64_t useClock = 0;
    uint64_t evictionCount = 0;
};

} // namespace pe::branch

#endif // PE_BRANCH_BTB_HH
