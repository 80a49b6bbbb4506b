/**
 * @file
 * Memory-system tests: main memory, versioned buffers (the Vtag
 * model), tree-ordered read resolution, cache hit/miss/LRU behaviour
 * and shared-port contention.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/mem/cache.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/main_memory.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/support/rng.hh"

namespace
{

using namespace pe::mem;

/**
 * The reference MainMemory::digest must reproduce: the four-lane
 * FNV-1a over a flat image that RunResult::memoryDigest has always
 * used.  Whole 8-word groups feed the lanes as 64-bit chunks, the
 * lanes fold into one hash, and the leftover words follow one by one.
 */
uint64_t
flatDigest(const std::vector<int32_t> &words)
{
    constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
    constexpr uint64_t kFnvPrime = 0x100000001b3ull;
    uint64_t lane[4] = {kFnvOffset, kFnvOffset ^ 1, kFnvOffset ^ 2,
                        kFnvOffset ^ 3};
    size_t n = words.size();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (int l = 0; l < 4; ++l) {
            uint64_t chunk =
                static_cast<uint32_t>(words[i + 2 * l]) |
                (static_cast<uint64_t>(
                     static_cast<uint32_t>(words[i + 2 * l + 1]))
                 << 32);
            lane[l] = (lane[l] ^ chunk) * kFnvPrime;
        }
    }
    uint64_t digest = kFnvOffset;
    for (int l = 0; l < 4; ++l)
        digest = (digest ^ lane[l]) * kFnvPrime;
    for (; i < n; ++i)
        digest = (digest ^ static_cast<uint32_t>(words[i])) * kFnvPrime;
    return digest;
}

/** A paged image and the flat image it must equal, written together. */
struct ImagePair
{
    explicit ImagePair(uint32_t size) : paged(size), flat(size, 0) {}

    void write(uint32_t addr, int32_t value)
    {
        paged.write(addr, value);
        flat[addr] = value;
    }

    MainMemory paged;
    std::vector<int32_t> flat;
};

TEST(MainMemory, ReadWriteAndBounds)
{
    MainMemory m(128);
    EXPECT_TRUE(m.valid(0));
    EXPECT_TRUE(m.valid(127));
    EXPECT_FALSE(m.valid(128));
    m.write(5, -9);
    EXPECT_EQ(m.read(5), -9);
    EXPECT_EQ(m.read(6), 0);
}

TEST(MainMemory, DigestMatchesFlatImage)
{
    // 64 and 1000 words: one partial page.  1024: exactly one page.
    // 1025: a second page holding a single word, which is also a tail
    // shorter than a digest group.  1 << 20: the default image.
    for (uint32_t size : {64u, 1000u, 1024u, 1025u, 1u << 20}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message()
                         << "size " << size << " seed " << seed);
            pe::Rng rng(seed);
            ImagePair img(size);
            EXPECT_EQ(img.paged.digest(), flatDigest(img.flat));

            // The first and last words, then scattered stores.
            img.write(0, static_cast<int32_t>(rng.next64()));
            img.write(size - 1, static_cast<int32_t>(rng.next64()));
            for (int i = 0; i < 64; ++i) {
                img.write(static_cast<uint32_t>(rng.nextBelow(size)),
                          static_cast<int32_t>(rng.next64()));
            }
            EXPECT_EQ(img.paged.digest(), flatDigest(img.flat));

            // A dense run of stores, across the first page boundary
            // when the image has one.
            uint32_t start = size > pageWords ? pageWords - 40 : size / 4;
            for (uint32_t a = start; a < size && a < start + 80; ++a)
                img.write(a, static_cast<int32_t>(rng.next64()));
            EXPECT_EQ(img.paged.digest(), flatDigest(img.flat));

            // Every written word back to zero: the pages stay
            // allocated but must digest like the zero page.
            for (uint32_t a = 0; a < size; ++a) {
                if (img.flat[a] != 0)
                    img.write(a, 0);
            }
            EXPECT_GT(img.paged.pagesWritten(), 0u);
            EXPECT_EQ(img.paged.digest(), flatDigest(img.flat));
            EXPECT_EQ(img.paged.digest(), MainMemory(size).digest());
        }
    }
}

TEST(MainMemory, UnwrittenPagesReadZeroWithoutAllocating)
{
    MainMemory m(4 * pageWords + 3);
    EXPECT_EQ(m.pagesWritten(), 0u);
    for (uint32_t a = 0; a < m.size(); a += 97)
        EXPECT_EQ(m.read(a), 0);
    EXPECT_EQ(m.read(m.size() - 1), 0);
    EXPECT_EQ(m.pagesWritten(), 0u);

    m.write(pageWords + 5, 7);
    EXPECT_EQ(m.pagesWritten(), 1u);
    EXPECT_EQ(m.read(pageWords + 5), 7);
    EXPECT_EQ(m.read(pageWords + 4), 0);    // same page, unwritten word
    EXPECT_EQ(m.read(5), 0);                // other page still zero
    m.write(m.size() - 1, -1);              // the partial last page
    EXPECT_EQ(m.pagesWritten(), 2u);
    EXPECT_EQ(m.read(m.size() - 1), -1);
}

TEST(MainMemory, StoresAreNotVisibleInAFreshImage)
{
    // Images share only the read-only zero page: a store to one must
    // never show through another, earlier or later built.
    MainMemory before(2 * pageWords);
    MainMemory a(2 * pageWords);
    a.write(3, 33);
    a.write(pageWords + 3, 44);
    MainMemory after(2 * pageWords);
    for (const MainMemory *m : {&before, &after}) {
        EXPECT_EQ(m->read(3), 0);
        EXPECT_EQ(m->read(pageWords + 3), 0);
        EXPECT_EQ(m->pagesWritten(), 0u);
        EXPECT_EQ(m->digest(),
                  flatDigest(std::vector<int32_t>(2 * pageWords, 0)));
    }
    EXPECT_EQ(a.read(3), 33);
}

TEST(VersionedBuffer, BuffersWrites)
{
    VersionedBuffer b(1);
    EXPECT_FALSE(b.lookup(10).has_value());
    b.write(10, 42);
    b.write(10, 43);
    EXPECT_EQ(b.lookup(10).value(), 43);
    EXPECT_EQ(b.numWords(), 1u);
}

TEST(VersionedBuffer, LineAccounting)
{
    VersionedBuffer b(1);
    // Words 0..7 share one 8-word line; 8 starts the next.
    b.write(0, 1);
    b.write(7, 1);
    EXPECT_EQ(b.numLines(), 1u);
    b.write(8, 1);
    EXPECT_EQ(b.numLines(), 2u);
}

TEST(VersionedBuffer, CommitAndClear)
{
    MainMemory m(64);
    VersionedBuffer b(1);
    b.write(3, 30);
    b.write(9, 90);
    b.commitTo(m);
    EXPECT_EQ(m.read(3), 30);
    EXPECT_EQ(m.read(9), 90);
    b.clear();
    EXPECT_EQ(b.numWords(), 0u);
    EXPECT_EQ(b.numLines(), 0u);
}

TEST(MemCtx, ReadsThroughParentChain)
{
    MainMemory m(64);
    m.write(1, 100);
    m.write(2, 200);
    m.write(3, 300);

    VersionedBuffer parent(1);
    parent.write(2, 222);
    VersionedBuffer child(2);
    child.setParent(&parent);
    child.write(3, 333);

    MemCtx ctx(m, &child);
    EXPECT_EQ(ctx.read(1), 100);    // from main
    EXPECT_EQ(ctx.read(2), 222);    // from parent
    EXPECT_EQ(ctx.read(3), 333);    // own write wins

    // Child writes are invisible to a parent-level view: the
    // Figure-6(c) tree order.
    MemCtx parentCtx(m, &parent);
    EXPECT_EQ(parentCtx.read(3), 300);
}

TEST(MemCtx, SiblingIsolation)
{
    MainMemory m(64);
    VersionedBuffer parent(1);
    parent.write(5, 50);
    VersionedBuffer left(2);
    left.setParent(&parent);
    VersionedBuffer right(3);
    right.setParent(&parent);

    MemCtx lctx(m, &left);
    MemCtx rctx(m, &right);
    lctx.write(5, 55);
    EXPECT_EQ(rctx.read(5), 50);    // sibling write invisible
    EXPECT_EQ(lctx.read(5), 55);
}

TEST(MemCtx, WritesDirectWhenNoBuffer)
{
    MainMemory m(64);
    MemCtx ctx(m, nullptr);
    ctx.write(7, 77);
    EXPECT_EQ(m.read(7), 77);
    EXPECT_EQ(ctx.read(7), 77);
}

TEST(Cache, GeometryDerivation)
{
    CacheGeometry g{16 * 1024, 4, 32};
    EXPECT_EQ(g.numLines(), 512u);
    EXPECT_EQ(g.numSets(), 128u);
}

TEST(Cache, HitAfterMiss)
{
    Cache c(CacheGeometry{256, 2, 32});     // 8 lines, 4 sets
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(7));               // same 8-word line
    EXPECT_FALSE(c.access(8));              // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 4 sets: lines mapping to set 0 are line numbers 0,4,8...
    Cache c(CacheGeometry{256, 2, 32});
    uint32_t wordsPerLine = 8;
    auto line = [&](uint32_t n) { return n * 4 * wordsPerLine; };
    EXPECT_FALSE(c.access(line(0)));
    EXPECT_FALSE(c.access(line(1)));
    EXPECT_TRUE(c.access(line(0)));         // 0 now MRU
    EXPECT_FALSE(c.access(line(2)));        // evicts 1 (LRU)
    EXPECT_TRUE(c.access(line(0)));
    EXPECT_FALSE(c.access(line(1)));        // 1 was evicted
}

TEST(Cache, InvalidateAll)
{
    Cache c(CacheGeometry{256, 2, 32});
    c.access(0);
    EXPECT_TRUE(c.contains(0));
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0));
}

TEST(SharedPort, SerializesAccesses)
{
    SharedPort port;
    EXPECT_EQ(port.acquire(100, 10), 100u);
    // Second access at t=105 must wait until 110.
    EXPECT_EQ(port.acquire(105, 10), 110u);
    EXPECT_EQ(port.contentionCycles(), 5u);
    // A late access after the port is free starts immediately.
    EXPECT_EQ(port.acquire(200, 10), 200u);
}

TEST(Hierarchy, LatencyLevels)
{
    MemTimingParams p;
    p.l1HitLatency = 2;
    p.l2HitLatency = 10;
    p.memLatency = 200;
    MemHierarchy h(2, p);

    // Cold access: all the way to memory.
    uint64_t first = h.accessLatency(0, 0, 0);
    EXPECT_GE(first, p.memLatency);
    // Now L1-resident.
    EXPECT_EQ(h.accessLatency(0, 0, 1000), p.l1HitLatency);
    // Other core: misses its L1, hits shared L2.
    uint64_t other = h.accessLatency(1, 0, 2000);
    EXPECT_GE(other, p.l2HitLatency);
    EXPECT_LT(other, p.memLatency);
}

TEST(Hierarchy, L1InvalidationForcesL2Hit)
{
    MemTimingParams p;
    MemHierarchy h(1, p);
    h.accessLatency(0, 0, 0);
    EXPECT_EQ(h.accessLatency(0, 0, 500), p.l1HitLatency);
    h.invalidateL1(0);
    uint64_t after = h.accessLatency(0, 0, 1000);
    EXPECT_GE(after, p.l2HitLatency);
    EXPECT_LT(after, p.memLatency);
}

TEST(Hierarchy, L1LineCapacityMatchesGeometry)
{
    MemTimingParams p;
    MemHierarchy h(1, p);
    EXPECT_EQ(h.l1LineCapacity(), defaultL1Geometry().numLines());
}

} // namespace
