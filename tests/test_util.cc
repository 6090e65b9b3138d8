/**
 * @file
 * Unit tests for util (bit helpers, RNG) and the stats package.
 */

#include <gtest/gtest.h>

#include <bit>

#include "stats/stats.h"
#include "util/bitutil.h"
#include "util/logging.h"
#include "util/random.h"

namespace save {
namespace {

TEST(BitUtil, Popcount)
{
    EXPECT_EQ(popcount(0u), 0);
    EXPECT_EQ(popcount(0xffffu), 16);
    EXPECT_EQ(popcount(0x80000001u), 2);
    EXPECT_EQ(popcount(0xffffffffu), 32);
    // Every 16-bit lane mask, and its pattern in the high half too.
    for (uint32_t m = 0; m <= 0xffffu; ++m)
        ASSERT_EQ(popcount(m | (m << 16)), 2 * std::popcount(m)) << m;
}

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(64), 6);
    EXPECT_EQ(floorLog2(97), 6);
    EXPECT_EQ(ceilLog2(1), 0);
    EXPECT_EQ(ceilLog2(97), 7);
    EXPECT_EQ(ceilLog2(128), 7);
}

TEST(BitUtil, LowestSetBit)
{
    EXPECT_EQ(lowestSetBit(0), -1);
    EXPECT_EQ(lowestSetBit(0b1000), 3);
    EXPECT_EQ(lowestSetBit(1), 0);
}

TEST(BitUtil, DivCeil)
{
    EXPECT_EQ(divCeil(10, 3), 4);
    EXPECT_EQ(divCeil(9, 3), 3);
    EXPECT_EQ(divCeil(1, 64), 1);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.range(0, 1000000), b.range(0, 1000000));
}

TEST(Rng, ChanceRateApproximatesP)
{
    Rng r(7);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Rng, NonZeroValueNeverZero)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        float v = r.nonZeroValue();
        EXPECT_NE(v, 0.0f);
        EXPECT_GE(std::abs(v), 0.5f);
        EXPECT_LT(std::abs(v), 2.0f);
    }
}

TEST(StatGroup, AddSetGet)
{
    StatGroup g;
    EXPECT_EQ(g.get("x"), 0.0);
    EXPECT_FALSE(g.has("x"));
    g.add("x");
    g.add("x", 2.5);
    EXPECT_DOUBLE_EQ(g.get("x"), 3.5);
    g.set("x", 1.0);
    EXPECT_DOUBLE_EQ(g.get("x"), 1.0);
    EXPECT_TRUE(g.has("x"));
}

TEST(StatGroup, MergeSums)
{
    StatGroup a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3);
    EXPECT_DOUBLE_EQ(a.get("y"), 5);
}

TEST(StatGroup, DumpSortedWithPrefix)
{
    StatGroup g;
    g.add("b", 2);
    g.add("a", 1);
    EXPECT_EQ(g.dump("p."), "p.a 1\np.b 2\n");
}

TEST(Histogram, BucketsAndSaturation)
{
    Histogram h({0.0, 1.0, 2.0, 3.0});
    h.sample(0.5);
    h.sample(1.0);
    h.sample(2.9);
    h.sample(-5.0); // below: saturates into first bucket
    h.sample(99.0); // above: saturates into last bucket
    EXPECT_EQ(h.bucketCount(), 3);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(2), 2u);
    EXPECT_EQ(h.totalSamples(), 5u);
}

TEST(Histogram, Labels)
{
    Histogram h({1.0, 1.2, 1.4});
    EXPECT_EQ(h.bucketLabel(0), "1.0-1.2");
    EXPECT_EQ(h.bucketLabel(1), "1.2-1.4");
}

TEST(TextTable, RendersAligned)
{
    TextTable t({"name", "v"});
    t.addRow({"x", "1.00"});
    std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("x"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, Fmt)
{
    EXPECT_EQ(TextTable::fmt(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
}

TEST(Logging, QuietSuppressesInform)
{
    setQuietLogging(true);
    EXPECT_TRUE(quietLogging());
    SAVE_INFORM("this should not print");
    setQuietLogging(false);
    EXPECT_FALSE(quietLogging());
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(SAVE_PANIC("boom"), "boom");
}

TEST(LoggingDeathTest, AssertFires)
{
    EXPECT_DEATH(SAVE_ASSERT(1 == 2, "math broke"), "assertion failed");
}

} // namespace
} // namespace save
