/**
 * @file
 * Tests for counters and the cycle breakdown.
 */

#include <gtest/gtest.h>

#include "common/stats.hpp"

using namespace tlsim;

TEST(CycleBreakdown, TotalSumsAllKinds)
{
    CycleBreakdown b;
    b.add(CycleKind::Busy, 10);
    b.add(CycleKind::MemStall, 5);
    b.add(CycleKind::TokenStall, 3);
    EXPECT_EQ(b.total(), 18u);
}

TEST(CycleBreakdown, BusyIncludesSoftwareLogOverhead)
{
    // The paper's "Busy" bucket is instruction execution; FMM.Sw's
    // logging instructions belong there.
    CycleBreakdown b;
    b.add(CycleKind::Busy, 10);
    b.add(CycleKind::LogOverhead, 4);
    b.add(CycleKind::MemStall, 6);
    EXPECT_EQ(b.busy(), 14u);
    EXPECT_EQ(b.stall(), 6u);
}

TEST(CycleBreakdown, AccumulateMerges)
{
    CycleBreakdown a, b;
    a.add(CycleKind::Busy, 1);
    b.add(CycleKind::Busy, 2);
    b.add(CycleKind::EndStall, 7);
    a += b;
    EXPECT_EQ(a.get(CycleKind::Busy), 3u);
    EXPECT_EQ(a.get(CycleKind::EndStall), 7u);
}

TEST(CycleBreakdown, ToStringSkipsZeroBins)
{
    CycleBreakdown b;
    b.add(CycleKind::Busy, 5);
    std::string s = b.toString();
    EXPECT_NE(s.find("busy=5"), std::string::npos);
    EXPECT_EQ(s.find("mem_stall"), std::string::npos);
}

TEST(CounterSet, IncrementAndRead)
{
    CounterSet c;
    c.inc("loads");
    c.inc("loads", 4);
    EXPECT_EQ(c.get("loads"), 5u);
    EXPECT_EQ(c.get("unknown"), 0u);
}

TEST(CounterSet, MergeAddsByName)
{
    CounterSet a, b;
    a.inc("x", 2);
    b.inc("x", 3);
    b.inc("y", 1);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 5u);
    EXPECT_EQ(a.get("y"), 1u);
}

TEST(CounterSet, EntriesPreserveInsertionOrder)
{
    CounterSet c;
    c.inc("b");
    c.inc("a");
    ASSERT_EQ(c.entries().size(), 2u);
    EXPECT_EQ(c.entries()[0].first, "b");
    EXPECT_EQ(c.entries()[1].first, "a");
}

TEST(CounterSet, InternReturnsStableIds)
{
    CounterSet c;
    StatId x = c.intern("x");
    StatId y = c.intern("y");
    EXPECT_NE(x, y);
    EXPECT_EQ(c.intern("x"), x); // idempotent
    EXPECT_EQ(c.intern("y"), y);
    c.inc(x, 3);
    c.inc(y);
    EXPECT_EQ(c.get(x), 3u);
    EXPECT_EQ(c.get(y), 1u);
}

TEST(CounterSet, InternedAndNameIncsHitTheSameCounter)
{
    // The name-based inc is a thin wrapper over the interned table;
    // interleaving both forms must be indistinguishable from using
    // either alone.
    CounterSet mixed, names_only;
    StatId id = mixed.intern("loads");
    mixed.inc("loads");
    mixed.inc(id, 2);
    mixed.inc("loads", 3);
    mixed.inc(id);
    for (int i = 0; i < 7; ++i)
        names_only.inc("loads");
    EXPECT_EQ(mixed.get("loads"), 7u);
    EXPECT_EQ(mixed.get(id), 7u);
    EXPECT_EQ(mixed.entries(), names_only.entries());
}

TEST(CounterSet, InternDoesNotDisturbExistingCounts)
{
    CounterSet c;
    c.inc("a", 5);
    StatId a = c.intern("a");
    EXPECT_EQ(c.get(a), 5u);
    ASSERT_EQ(c.entries().size(), 1u);
}

TEST(CounterSet, MergeAfterInterning)
{
    // merge() is name-keyed, so differently-interned sets (different
    // id order) must still combine correctly.
    CounterSet a, b;
    StatId ax = a.intern("x");
    b.intern("q"); // shifts b's ids relative to a's
    StatId bx = b.intern("x");
    a.inc(ax, 2);
    b.inc(bx, 3);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 5u);
    EXPECT_EQ(a.get("q"), 0u);
}
