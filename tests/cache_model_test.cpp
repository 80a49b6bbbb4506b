/**
 * @file
 * The cache timing model against a reference LRU model.
 *
 * The reference keeps, per set, the resident tags in recency order (a
 * list, most recent first) and nothing else: no stamps, no most
 * recently used line, no shift/mask split.  Random word addresses with
 * locality (same-line runs, repeats, set conflicts, reuse of recent
 * lines, far jumps) drive access, accessIfHit, contains and
 * invalidateAll on both, and every answer and hit/miss count must
 * agree.  MemHierarchy::accessLatency is checked the same way against
 * reference L1s and L2 plus two SharedPorts on 1 and 4 cores.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <ostream>
#include <string>
#include <vector>

#include "src/mem/cache.hh"
#include "src/mem/hierarchy.hh"
#include "src/support/rng.hh"
#include "src/support/status.hh"

namespace
{

using namespace pe::mem;

/** LRU by a recency list per set. */
class ModelCache
{
  public:
    explicit ModelCache(const CacheGeometry &g)
        : ways(g.ways), wordsPerLine(g.lineBytes / 4), sets(g.numSets())
    {}

    bool
    access(uint32_t addr)
    {
        if (accessIfHit(addr))
            return true;
        ++missCount;
        std::list<uint32_t> &set = setOf(addr);
        set.push_front(tagOf(addr));
        if (set.size() > ways)
            set.pop_back();
        return false;
    }

    bool
    accessIfHit(uint32_t addr)
    {
        std::list<uint32_t> &set = setOf(addr);
        auto it = std::find(set.begin(), set.end(), tagOf(addr));
        if (it == set.end())
            return false;
        set.splice(set.begin(), set, it);
        ++hitCount;
        return true;
    }

    bool
    contains(uint32_t addr) const
    {
        const std::list<uint32_t> &set =
            sets[(addr / wordsPerLine) % sets.size()];
        return std::find(set.begin(), set.end(), tagOf(addr)) != set.end();
    }

    void
    invalidateAll()
    {
        for (std::list<uint32_t> &set : sets)
            set.clear();
    }

    uint64_t hits() const { return hitCount; }
    uint64_t misses() const { return missCount; }

  private:
    std::list<uint32_t> &
    setOf(uint32_t addr)
    {
        return sets[(addr / wordsPerLine) % sets.size()];
    }

    uint32_t
    tagOf(uint32_t addr) const
    {
        return addr / wordsPerLine / static_cast<uint32_t>(sets.size());
    }

    size_t ways;
    uint32_t wordsPerLine;
    std::vector<std::list<uint32_t>> sets;
    uint64_t hitCount = 0;
    uint64_t missCount = 0;
};

/**
 * Word addresses with locality for a cache of geometry @p g: mostly
 * the current line or a repeat, often another line of the same set
 * (conflicts), recent lines, and now and then a far jump.
 */
class AddressStream
{
  public:
    AddressStream(const CacheGeometry &g, uint64_t seed)
        : rng(seed), wordsPerLine(g.lineBytes / 4), sets(g.numSets()),
          ways(g.ways)
    {}

    uint32_t
    next()
    {
        const uint64_t pick = rng.nextBelow(100);
        const uint32_t line = addr / wordsPerLine;
        if (pick < 30) {
            // Another word of the same line.
            addr = line * wordsPerLine +
                   static_cast<uint32_t>(rng.nextBelow(wordsPerLine));
        } else if (pick < 45) {
            // A repeat of the same word.
        } else if (pick < 70) {
            // Another line of the same set: a few more than the ways,
            // so sets fill and evict.
            const uint32_t set = line % sets;
            const uint32_t tag =
                static_cast<uint32_t>(rng.nextBelow(ways + 3));
            addr = (tag * sets + set) * wordsPerLine +
                   static_cast<uint32_t>(rng.nextBelow(wordsPerLine));
        } else if (pick < 88) {
            // A recent address.
            addr = recent[rng.nextBelow(recent.size())];
        } else if (pick < 98) {
            // A near jump: a nearby set.
            addr = static_cast<uint32_t>(
                addr + rng.nextBelow(16 * wordsPerLine));
        } else {
            // A far jump, up to the top of the address space.
            addr = static_cast<uint32_t>(rng.next64());
        }
        recent[cursor++ % recent.size()] = addr;
        return addr;
    }

  private:
    pe::Rng rng;
    uint32_t wordsPerLine;
    uint32_t sets;
    uint32_t ways;
    uint32_t addr = 0;
    std::vector<uint32_t> recent = std::vector<uint32_t>(8, 0);
    size_t cursor = 0;
};

struct GeometryCase
{
    const char *name;
    CacheGeometry geom;
};

void
PrintTo(const GeometryCase &c, std::ostream *os)
{
    *os << c.name << " {" << c.geom.sizeBytes << ", " << c.geom.ways
        << ", " << c.geom.lineBytes << "}";
}

class CacheVsModel : public ::testing::TestWithParam<GeometryCase>
{};

TEST_P(CacheVsModel, EveryAnswerAndCountMatchesTheReferenceLru)
{
    const CacheGeometry g = GetParam().geom;
    for (uint64_t seed : {1u, 2u, 3u}) {
        Cache cache(g);
        ModelCache model(g);
        AddressStream stream(g, seed);
        pe::Rng ops(seed * 7919);
        for (int i = 0; i < 60000; ++i) {
            const uint32_t addr = stream.next();
            const uint64_t op = ops.nextBelow(1000);
            const std::string at = "seed " + std::to_string(seed) +
                                   " op " + std::to_string(i) + " addr " +
                                   std::to_string(addr);
            if (op < 700) {
                ASSERT_EQ(cache.access(addr), model.access(addr)) << at;
            } else if (op < 850) {
                ASSERT_EQ(cache.accessIfHit(addr), model.accessIfHit(addr))
                    << at;
            } else if (op < 995) {
                ASSERT_EQ(cache.contains(addr), model.contains(addr)) << at;
            } else {
                cache.invalidateAll();
                model.invalidateAll();
            }
            ASSERT_EQ(cache.hits(), model.hits()) << at;
            ASSERT_EQ(cache.misses(), model.misses()) << at;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsModel,
    ::testing::Values(
        GeometryCase{"table2_l1", defaultL1Geometry()},
        GeometryCase{"table2_l2", defaultL2Geometry()},
        GeometryCase{"one_way", CacheGeometry{1024, 1, 32}},
        GeometryCase{"two_way", CacheGeometry{2048, 2, 32}},
        // 6 sets of 2 ways.
        GeometryCase{"odd_sets", CacheGeometry{384, 2, 32}},
        // 3-word lines, 8 sets of 4 ways.
        GeometryCase{"odd_line", CacheGeometry{384, 4, 12}},
        // 5-word lines, 5 sets of 3 ways.
        GeometryCase{"odd_both", CacheGeometry{300, 3, 20}},
        // One word per line: every 32-bit address is its own line.
        GeometryCase{"word_lines", CacheGeometry{64, 2, 4}}),
    [](const ::testing::TestParamInfo<GeometryCase> &info) {
        return std::string(info.param.name);
    });

/** Reference hierarchy: model caches plus the real SharedPort. */
struct ModelHierarchy
{
    ModelHierarchy(int cores, const CacheGeometry &l1,
                   const CacheGeometry &l2Geom, const MemTimingParams &p)
        : l1s(static_cast<size_t>(cores), ModelCache(l1)), l2(l2Geom),
          params(p)
    {}

    uint64_t
    accessLatency(int core, uint32_t addr, uint64_t now)
    {
        if (l1s[static_cast<size_t>(core)].access(addr))
            return params.l1HitLatency;
        const uint64_t l2Start =
            l2port.acquire(now + params.l1HitLatency, params.l2PortHold);
        if (l2.access(addr))
            return (l2Start - now) + params.l2HitLatency;
        const uint64_t memStart = membus.acquire(
            l2Start + params.l2HitLatency, params.memPortHold);
        return (memStart - now) + params.memLatency;
    }

    std::vector<ModelCache> l1s;
    ModelCache l2;
    SharedPort l2port;
    SharedPort membus;
    MemTimingParams params;
};

void
expectHierarchyMatchesModel(int cores, const CacheGeometry &l1,
                            const CacheGeometry &l2, uint64_t seed)
{
    MemTimingParams p;
    MemHierarchy h(cores, l1, l2, p);
    ModelHierarchy model(cores, l1, l2, p);
    AddressStream stream(l1, seed);
    pe::Rng rng(seed * 104729);
    std::vector<uint64_t> clock(static_cast<size_t>(cores), 0);
    for (int i = 0; i < 40000; ++i) {
        const int core = static_cast<int>(rng.nextBelow(cores));
        const uint32_t addr = stream.next();
        uint64_t &now = clock[static_cast<size_t>(core)];
        now += rng.nextBelow(8);
        const std::string at = std::to_string(cores) + " cores, seed " +
                               std::to_string(seed) + " op " +
                               std::to_string(i);
        if (rng.nextBelow(500) == 0) {
            h.invalidateL1(core);
            model.l1s[static_cast<size_t>(core)].invalidateAll();
            continue;
        }
        const uint64_t lat = h.accessLatency(core, addr, now);
        ASSERT_EQ(lat, model.accessLatency(core, addr, now)) << at;
        now += lat;
        ASSERT_EQ(h.l1(core).hits(),
                  model.l1s[static_cast<size_t>(core)].hits()) << at;
        ASSERT_EQ(h.l1(core).misses(),
                  model.l1s[static_cast<size_t>(core)].misses()) << at;
        ASSERT_EQ(h.l2Cache().hits(), model.l2.hits()) << at;
        ASSERT_EQ(h.l2Cache().misses(), model.l2.misses()) << at;
        ASSERT_EQ(h.l2Port().contentionCycles(),
                  model.l2port.contentionCycles()) << at;
        ASSERT_EQ(h.memPort().busyUntil(), model.membus.busyUntil()) << at;
    }
}

TEST(HierarchyVsModel, AccessLatencyMatchesOnOneAndFourCores)
{
    for (int cores : {1, 4}) {
        for (uint64_t seed : {1u, 2u}) {
            // Table 2, then small caches whose L2 evicts too.
            expectHierarchyMatchesModel(cores, defaultL1Geometry(),
                                        defaultL2Geometry(), seed);
            expectHierarchyMatchesModel(cores, CacheGeometry{512, 2, 32},
                                        CacheGeometry{2048, 4, 32}, seed);
        }
    }
}

TEST(CacheGeometryCheck, DegenerateGeometryIsAFatalError)
{
    // No ways: the old constructor divided by zero in its own assert.
    EXPECT_THROW(Cache(CacheGeometry{256, 0, 32}), pe::FatalError);
    // Fewer lines than ways: zero sets, a division by zero per access.
    EXPECT_THROW(Cache(CacheGeometry{16, 1, 32}), pe::FatalError);
    EXPECT_THROW(Cache(CacheGeometry{64, 4, 32}), pe::FatalError);
    // A line that is not a whole number of words.
    EXPECT_THROW(Cache(CacheGeometry{256, 2, 0}), pe::FatalError);
    EXPECT_THROW(Cache(CacheGeometry{256, 2, 2}), pe::FatalError);
    EXPECT_THROW(Cache(CacheGeometry{256, 2, 30}), pe::FatalError);
    // Lines not divisible by ways.
    EXPECT_THROW(Cache(CacheGeometry{96, 2, 32}), pe::FatalError);
    // A hierarchy refuses a degenerate L1 or L2 the same way.
    EXPECT_THROW(MemHierarchy(1, CacheGeometry{256, 0, 32},
                              defaultL2Geometry(), MemTimingParams{}),
                 pe::FatalError);
    EXPECT_THROW(MemHierarchy(2, defaultL1Geometry(),
                              CacheGeometry{16, 1, 32}, MemTimingParams{}),
                 pe::FatalError);
    // The smallest sound geometry: one line of one word.
    Cache tiny(CacheGeometry{4, 1, 4});
    EXPECT_FALSE(tiny.access(7));
    EXPECT_TRUE(tiny.access(7));
    EXPECT_FALSE(tiny.access(8));
}

TEST(CacheGeometryCheck, TheErrorNamesTheGeometry)
{
    try {
        Cache cache(CacheGeometry{16, 1, 32});
        FAIL() << "a zero-set geometry was accepted";
    } catch (const pe::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("16 bytes"), std::string::npos) << what;
        EXPECT_NE(what.find("1 ways"), std::string::npos) << what;
        EXPECT_NE(what.find("32-byte lines"), std::string::npos) << what;
    }
}

} // namespace
