/**
 * @file
 * Tests for the versioned cache: geometry, lookup, version
 * co-residency (CRL), victim-class priority, pinning.
 */

#include <gtest/gtest.h>

#include "mem/cache.hpp"
#include "mem/geometry.hpp"

using namespace tlsim;
using namespace tlsim::mem;

namespace {

CacheLineState
line(Addr addr, TaskId producer, bool dirty = false, bool spec = false)
{
    CacheLineState cl;
    cl.line = addr;
    cl.version = VersionTag{producer, 1};
    cl.dirty = dirty;
    cl.speculative = spec;
    return cl;
}

} // namespace

TEST(Geometry, AddressDecomposition)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 1u);
    EXPECT_EQ(wordIndex(0), 0u);
    EXPECT_EQ(wordIndex(8), 1u);
    EXPECT_EQ(wordIndex(56), 7u);
    EXPECT_EQ(wordIndex(64), 0u);
    EXPECT_EQ(wordBit(16), 0x04);
    EXPECT_EQ(wordAddr(24), 3u);
}

TEST(Geometry, SetCountAndIndex)
{
    CacheGeometry g = CacheGeometry::of(32 * 1024, 2);
    EXPECT_EQ(g.numSets(), 256u);

    // Lines numSets apart share a set; neighbouring lines do not.
    VersionedCache c(g, true);
    EXPECT_FALSE(c.insert(line(0, 1), 0).evicted);
    EXPECT_FALSE(c.insert(line(256, 1), 1).evicted);
    EXPECT_FALSE(c.insert(line(1, 1), 2).evicted);
    EXPECT_FALSE(c.insert(line(257, 1), 3).evicted);
    auto res = c.insert(line(512, 1), 4); // third line of set 0
    ASSERT_TRUE(res.evicted);
    EXPECT_EQ(res.victim.line, 0u); // LRU of set 0
    EXPECT_NE(c.findAnyOf(256), nullptr);
    EXPECT_NE(c.findAnyOf(1), nullptr);
    EXPECT_NE(c.findAnyOf(257), nullptr);
    res = c.insert(line(513, 1), 5); // third line of set 1
    ASSERT_TRUE(res.evicted);
    EXPECT_EQ(res.victim.line, 1u);
}

TEST(VersionedCacheDeathTest, RejectsNonPowerOfTwoSetCount)
{
    // Sets are indexed by masking the line address.
    EXPECT_DEATH(VersionedCache(CacheGeometry::of(3 * 64 * 2, 2), true),
                 "not a power of two");
}

TEST(VersionedCache, InsertAndFindVersion)
{
    VersionedCache c(CacheGeometry::of(4096, 2), true);
    auto res = c.insert(line(5, 3), 0);
    ASSERT_NE(res.frame, nullptr);
    EXPECT_FALSE(res.evicted);
    EXPECT_NE(c.findVersion(5, VersionTag{3, 1}), nullptr);
    EXPECT_EQ(c.findVersion(5, VersionTag{4, 1}), nullptr);
    EXPECT_NE(c.findAnyOf(5), nullptr);
    EXPECT_EQ(c.findAnyOf(6), nullptr);
}

TEST(VersionedCache, MultiVersionKeepsSeveralVersionsOfOneLine)
{
    // The MultiT&MV ability (CTID + CRL): same address tag, different
    // task IDs, co-resident in one set.
    VersionedCache c(CacheGeometry::of(4096, 4), true);
    c.insert(line(5, 1, true, true), 0);
    c.insert(line(5, 2, true, true), 1);
    c.insert(line(5, 3, true, true), 2);
    EXPECT_EQ(c.versionsResident(5), 3u);
    EXPECT_NE(c.findVersion(5, VersionTag{2, 1}), nullptr);
    EXPECT_EQ(c.framesOf(5).size(), 3u);
}

TEST(VersionedCache, SingleVersionReplacesInPlace)
{
    VersionedCache c(CacheGeometry::of(4096, 4), false);
    c.insert(line(5, 1), 0);
    auto res = c.insert(line(5, 2), 1);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.victim.version.producer, 1u);
    EXPECT_EQ(c.versionsResident(5), 1u);
}

TEST(VersionedCache, SameVersionReinsertUpdatesInPlace)
{
    VersionedCache c(CacheGeometry::of(4096, 2), true);
    c.insert(line(5, 1), 0);
    auto res = c.insert(line(5, 1), 1);
    EXPECT_FALSE(res.evicted);
    EXPECT_EQ(c.residentLines(), 1u);
}

TEST(VersionedCache, VictimPrefersCleanOverCommittedOverSpeculative)
{
    // One set, 4 ways: fill with clean, committedDirty, spec, spec.
    VersionedCache c(CacheGeometry::of(64 * 4, 4), true); // 1 set
    c.insert(line(0, 0), 0); // clean replica
    CacheLineState committed = line(1, 1);
    committed.committedDirty = true;
    c.insert(committed, 1);
    c.insert(line(2, 2, true, true), 2);
    c.insert(line(3, 3, true, true), 3);

    auto res = c.insert(line(4, 4, true, true), 4);
    ASSERT_TRUE(res.evicted);
    EXPECT_EQ(res.victim.line, 0u); // the clean one goes first

    auto res2 = c.insert(line(5, 5, true, true), 5);
    ASSERT_TRUE(res2.evicted);
    EXPECT_TRUE(res2.victim.committedDirty); // then committed-dirty

    auto res3 = c.insert(line(6, 6, true, true), 6);
    ASSERT_TRUE(res3.evicted);
    EXPECT_TRUE(res3.victim.speculative); // speculative last
}

TEST(VersionedCache, LruWithinClass)
{
    VersionedCache c(CacheGeometry::of(64 * 2, 2), true); // 1 set, 2 way
    c.insert(line(0, 0), 10);
    c.insert(line(1, 0), 20);
    // Touch line 0 so line 1 becomes LRU.
    c.findVersion(0, VersionTag{0, 1})->lastUse = 30;
    auto res = c.insert(line(2, 0), 40);
    ASSERT_TRUE(res.evicted);
    EXPECT_EQ(res.victim.line, 1u);
}

TEST(VersionedCache, PinnedSpeculativeLinesBlockInsertion)
{
    VersionedCache c(CacheGeometry::of(64 * 2, 2), true); // 1 set
    c.insert(line(0, 1, true, true), 0);
    c.insert(line(1, 2, true, true), 1);
    EXPECT_FALSE(c.canInsert(2, true));
    auto res = c.insert(line(2, 3, true, true), 2, true);
    EXPECT_EQ(res.frame, nullptr); // refused: would displace pinned state
    EXPECT_TRUE(c.canInsert(2, false));
    auto res2 = c.insert(line(2, 3, true, true), 2, false);
    EXPECT_NE(res2.frame, nullptr);
}

TEST(VersionedCache, InvalidateVersionRemovesExactlyOne)
{
    VersionedCache c(CacheGeometry::of(4096, 4), true);
    c.insert(line(5, 1), 0);
    c.insert(line(5, 2), 1);
    c.invalidateVersion(5, VersionTag{1, 1});
    EXPECT_EQ(c.findVersion(5, VersionTag{1, 1}), nullptr);
    EXPECT_NE(c.findVersion(5, VersionTag{2, 1}), nullptr);
}

TEST(VersionedCache, IncarnationsDistinguishReexecutions)
{
    VersionedCache c(CacheGeometry::of(4096, 4), true);
    CacheLineState old_inc = line(5, 3);
    old_inc.version.incarnation = 1;
    c.insert(old_inc, 0);
    EXPECT_EQ(c.findVersion(5, VersionTag{3, 2}), nullptr);
}

TEST(VersionedCache, ForEachVisitsOnlyValidFrames)
{
    VersionedCache c(CacheGeometry::of(4096, 2), true);
    c.insert(line(1, 1), 0);
    c.insert(line(2, 2), 0);
    c.invalidateVersion(1, VersionTag{1, 1});
    int n = 0;
    c.forEach([&](CacheLineState &) { ++n; });
    EXPECT_EQ(n, 1);
    EXPECT_EQ(c.residentLines(), 1u);
    c.invalidateAll();
    EXPECT_EQ(c.residentLines(), 0u);
}
