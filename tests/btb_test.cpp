/**
 * @file
 * BTB tests: per-edge exercise counters, miss-as-zero, 4-bit
 * saturation, periodic reset and LRU eviction — the NT-Path selection
 * hardware of paper Section 4.2.
 */

#include <gtest/gtest.h>

#include "src/branch/btb.hh"

namespace
{

using namespace pe::branch;

TEST(Btb, MissReadsAsZero)
{
    Btb btb;
    EXPECT_EQ(btb.count(0x1234, true), 0);
    EXPECT_EQ(btb.count(0x1234, false), 0);
}

TEST(Btb, EdgesCountIndependently)
{
    Btb btb;
    btb.increment(100, true);
    btb.increment(100, true);
    btb.increment(100, false);
    EXPECT_EQ(btb.count(100, true), 2);
    EXPECT_EQ(btb.count(100, false), 1);
}

TEST(Btb, FourBitSaturation)
{
    Btb btb;
    for (int i = 0; i < 100; ++i)
        btb.increment(7, true);
    EXPECT_EQ(btb.count(7, true), 15);
    EXPECT_EQ(btb.maxCount(), 15);
}

TEST(Btb, ResetClearsCounters)
{
    Btb btb;
    btb.increment(7, true);
    btb.increment(9, false);
    btb.resetCounters();
    EXPECT_EQ(btb.count(7, true), 0);
    EXPECT_EQ(btb.count(9, false), 0);
}

TEST(Btb, DistinctPcsDoNotAlias)
{
    Btb btb;
    btb.increment(1, true);
    EXPECT_EQ(btb.count(2, true), 0);
    // Same set (1024 sets, 2 ways): pcs 1, 1025 and 2049 collide.
    btb.increment(1025, true);
    EXPECT_EQ(btb.count(1, true), 1);
    EXPECT_EQ(btb.count(1025, true), 1);
}

TEST(Btb, LruEvictionWithinSet)
{
    BtbParams p;
    p.entries = 4;
    p.ways = 2;     // 2 sets; pcs 0,2,4 share set 0
    Btb btb(p);
    btb.increment(0, true);
    btb.increment(2, true);
    btb.count(0, true);         // refresh? lookups don't touch LRU
    btb.increment(0, false);    // 0 is now MRU
    btb.increment(4, true);     // evicts 2
    EXPECT_EQ(btb.count(2, true), 0);
    EXPECT_EQ(btb.count(0, true), 1);
    EXPECT_EQ(btb.count(4, true), 1);
    EXPECT_GT(btb.evictions(), 0u);
}

TEST(Btb, BumpUnlessBelowIsTheSpawnCheckAndTheBump)
{
    Btb btb;
    // A miss reads zero: below a threshold of 1, nothing is allocated.
    EXPECT_FALSE(btb.bumpUnlessBelow(100, true, 1));
    EXPECT_EQ(btb.count(100, true), 0);
    // Threshold 0 never spawns: the taken edge is counted.
    EXPECT_TRUE(btb.bumpUnlessBelow(100, true, 0));
    EXPECT_EQ(btb.count(100, true), 1);
    EXPECT_EQ(btb.count(100, false), 0);
    // The non-taken edge (here the fall-through) decides, not the
    // taken one.
    EXPECT_FALSE(btb.bumpUnlessBelow(100, true, 1));
    btb.increment(100, false);
    EXPECT_TRUE(btb.bumpUnlessBelow(100, true, 1));
    EXPECT_EQ(btb.count(100, true), 2);
    EXPECT_FALSE(btb.bumpUnlessBelow(100, false, 3));
    EXPECT_EQ(btb.count(100, false), 1);
}

TEST(Btb, BumpUnlessBelowStampsLru)
{
    BtbParams p;
    p.entries = 4;
    p.ways = 2;     // 2 sets; pcs 0,2,4 share set 0
    Btb btb(p);
    btb.increment(0, true);
    btb.increment(2, true);
    EXPECT_TRUE(btb.bumpUnlessBelow(0, true, 0));  // 0 is now MRU
    btb.increment(4, true);                         // evicts 2
    EXPECT_EQ(btb.count(0, true), 2);
    EXPECT_EQ(btb.count(2, true), 0);
    EXPECT_EQ(btb.evictions(), 1u);
}

TEST(Btb, CustomCounterWidth)
{
    BtbParams p;
    p.counterBits = 2;
    Btb btb(p);
    for (int i = 0; i < 10; ++i)
        btb.increment(5, false);
    EXPECT_EQ(btb.count(5, false), 3);
}

} // namespace
