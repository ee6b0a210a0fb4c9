/**
 * @file
 * Property tests for the open-addressing FlatMap / FlatSet against the
 * standard node-based containers as the reference model, plus the
 * capacity-ceiling tests and death tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.hpp"

using namespace tlsim;

namespace {

/** Deterministic LCG so failures replay exactly. */
struct TestRng {
    std::uint64_t s = 0xf1a7f1a7ull;
    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return std::uint32_t(s >> 33);
    }
    std::uint32_t below(std::uint32_t n) { return next() % n; }
};

/**
 * Pathological hash: collapses every key onto 8 home slots. Forces
 * long probe chains, robin-hood displacement and backward-shift
 * deletion across entries that all contest the same region.
 */
struct ClusteringHash {
    std::uint64_t
    operator()(std::uint64_t k) const
    {
        return k & 0x7;
    }
};

template <typename Map, typename Ref>
void
expectMatchesReference(Map &map, const Ref &ref)
{
    ASSERT_EQ(map.size(), ref.size());
    for (const auto &[k, v] : ref) {
        auto *p = map.find(k);
        ASSERT_NE(p, nullptr) << "key " << k << " missing";
        EXPECT_EQ(*p, v) << "key " << k;
    }
    // forEach must visit every live entry exactly once.
    std::size_t visited = 0;
    map.forEach([&](const std::uint64_t &k, const std::uint64_t &v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "phantom key " << k;
        EXPECT_EQ(v, it->second);
        ++visited;
    });
    EXPECT_EQ(visited, ref.size());
}

} // namespace

TEST(FlatMap, RandomChurnMatchesUnorderedMap)
{
    // Mixed insert / overwrite / erase / lookup stream over a small
    // key universe so the same keys are hit in every state.
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    TestRng rng;
    for (int op = 0; op < 200000; ++op) {
        std::uint64_t key = 1 + rng.below(512);
        switch (rng.below(4)) {
          case 0: {
            std::uint64_t val = rng.next();
            auto [slot, inserted] = map.emplace(key, val);
            auto [it, ref_inserted] = ref.emplace(key, val);
            EXPECT_EQ(inserted, ref_inserted);
            EXPECT_EQ(*slot, it->second); // emplace keeps old value
            break;
          }
          case 1: {
            std::uint64_t val = rng.next();
            map.insertOrAssign(key, val);
            ref[key] = val;
            break;
          }
          case 2:
            EXPECT_EQ(map.erase(key), ref.erase(key) != 0);
            break;
          default: {
            auto *p = map.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(p != nullptr, it != ref.end());
            if (p) {
                EXPECT_EQ(*p, it->second);
            }
            break;
          }
        }
    }
    expectMatchesReference(map, ref);
}

TEST(FlatMap, ClusteredKeysSurviveDisplacementAndBackwardShift)
{
    // Same churn, but every key contests 8 home slots: exercises the
    // displacement chain on insert and the backward-shift compaction
    // on erase far harder than a well-spread hash would.
    FlatMap<std::uint64_t, std::uint64_t, ClusteringHash> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    TestRng rng;
    for (int op = 0; op < 50000; ++op) {
        std::uint64_t key = 1 + rng.below(96);
        if (rng.below(3) != 0) {
            std::uint64_t val = rng.next();
            map.insertOrAssign(key, val);
            ref[key] = val;
        } else {
            EXPECT_EQ(map.erase(key), ref.erase(key) != 0);
        }
    }
    expectMatchesReference(map, ref);
}

TEST(FlatMap, GrowsAcrossInitialCapacityWithoutLosingEntries)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    // Strided keys like line addresses; far beyond the initial table.
    for (std::uint64_t i = 0; i < 20000; ++i) {
        std::uint64_t key = 0x100000 + i * 64;
        map.emplace(key, i);
        ref.emplace(key, i);
    }
    EXPECT_GT(map.growths(), 0u);
    expectMatchesReference(map, ref);
}

TEST(FlatMap, EraseIfMatchesReferenceFilter)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    TestRng rng;
    for (int i = 0; i < 4000; ++i) {
        std::uint64_t key = rng.next();
        map.insertOrAssign(key, key);
        ref[key] = key;
    }
    std::size_t ref_erased = std::erase_if(
        ref, [](const auto &kv) { return kv.first % 3 == 0; });
    std::size_t erased = map.eraseIf(
        [](const std::uint64_t &k, const std::uint64_t &) {
            return k % 3 == 0;
        });
    EXPECT_EQ(erased, ref_erased);
    expectMatchesReference(map, ref);
}

TEST(FlatMap, ClearKeepsCapacityAndAllowsReuse)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 1000; ++i)
        map.emplace(i, i);
    std::size_t cap = map.capacity();
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), cap);
    EXPECT_FALSE(map.contains(7));
    for (std::uint64_t i = 0; i < 1000; ++i)
        map.emplace(i, i * 2);
    EXPECT_EQ(map.capacity(), cap); // reuse, no re-growth
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 14u);
}

TEST(FlatMap, CopyAndMovePreserveContents)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    for (std::uint64_t i = 0; i < 500; ++i) {
        map.emplace(i * 7, i);
        ref.emplace(i * 7, i);
    }
    FlatMap<std::uint64_t, std::uint64_t> copy(map);
    expectMatchesReference(copy, ref);
    expectMatchesReference(map, ref); // source untouched

    FlatMap<std::uint64_t, std::uint64_t> moved(std::move(copy));
    expectMatchesReference(moved, ref);
    EXPECT_EQ(copy.size(), 0u); // NOLINT: moved-from is empty by contract

    FlatMap<std::uint64_t, std::uint64_t> assigned;
    assigned.emplace(1, 1);
    assigned = map;
    expectMatchesReference(assigned, ref);
}

TEST(FlatSet, RandomChurnMatchesUnorderedSet)
{
    FlatSet<std::uint64_t> set;
    std::unordered_set<std::uint64_t> ref;
    TestRng rng;
    for (int op = 0; op < 100000; ++op) {
        std::uint64_t key = 1 + rng.below(256);
        if (rng.below(2) == 0)
            EXPECT_EQ(set.insert(key), ref.insert(key).second);
        else
            EXPECT_EQ(set.erase(key), ref.erase(key) != 0);
        EXPECT_EQ(set.contains(key), ref.count(key) != 0);
    }
    ASSERT_EQ(set.size(), ref.size());
    std::size_t visited = 0;
    set.forEach([&](const std::uint64_t &k) {
        EXPECT_TRUE(ref.count(k));
        ++visited;
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, FrozenCapacityHoldsReservedEntriesWithoutGrowth)
{
    // The positive side of the capacity contract: a table limited to
    // n holds n entries, at the capacity reserve(n) would have taken.
    FlatMap<std::uint64_t, std::uint64_t> reserved;
    reserved.reserve(100);
    std::size_t cap = reserved.capacity();
    FlatMap<std::uint64_t, std::uint64_t> map;
    map.limitCapacity(100);
    for (std::uint64_t i = 0; i < 100; ++i)
        map.emplace(i, i);
    EXPECT_EQ(map.size(), 100u);
    EXPECT_EQ(map.capacity(), cap);
}

namespace {

/** limitCapacity(limit) and the entry count a reserve(limit) table
 *  accepted while frozen: 3/4 of its power-of-two capacity. */
struct CeilingCase {
    std::size_t limit;
    std::size_t accepted;
};
constexpr CeilingCase kCeilingCases[] = {
    {1, 12}, {4, 12}, {100, 192}, {4096, 6144}};

} // namespace

TEST(FlatMap, CapacityCeilingGrowsOnDemandUpToReservedEntryCount)
{
    // A limit allocates nothing up front; the table grows as entries
    // arrive, up to the capacity a reserve(n) table had.
    for (const CeilingCase &c : kCeilingCases) {
        FlatMap<std::uint64_t, std::uint64_t> reserved;
        reserved.reserve(c.limit);
        ASSERT_EQ(reserved.capacity() - reserved.capacity() / 4,
                  c.accepted);

        FlatMap<std::uint64_t, std::uint64_t> map;
        map.limitCapacity(c.limit);
        EXPECT_EQ(map.capacity(), 0u) << c.limit;
        map.emplace(0, 0);
        EXPECT_EQ(map.capacity(), 16u) << c.limit;
        for (std::uint64_t i = 1; i < c.accepted; ++i)
            map.emplace(i, i);
        EXPECT_EQ(map.size(), c.accepted);
        EXPECT_EQ(map.capacity(), reserved.capacity()) << c.limit;
    }
}

TEST(FlatMapDeathTest, GrowthWhileFrozenPanics)
{
    // The enforcement side: a finite structure that would have to
    // grow past its ceiling is a bug, not a slow path.
    FlatMap<std::uint64_t, std::uint64_t> map;
    map.limitCapacity(16);
    EXPECT_DEATH(
        {
            for (std::uint64_t i = 0; i < 10000; ++i)
                map.emplace(i, i);
        },
        "frozen");
}

TEST(FlatMapDeathTest, InsertPastCapacityCeilingPanics)
{
    // One entry past the reserve(n)-sized count panics, for every n.
    for (const CeilingCase &c : kCeilingCases) {
        FlatMap<std::uint64_t, std::uint64_t> map;
        map.limitCapacity(c.limit);
        for (std::uint64_t i = 0; i < c.accepted; ++i)
            map.emplace(i, i);
        EXPECT_DEATH(map.emplace(c.accepted, 0), "frozen") << c.limit;
    }
}
