/**
 * @file
 * Tests for the global version bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>

#include "tls/version_map.hpp"

using namespace tlsim;
using namespace tlsim::tls;
using mem::VersionTag;

TEST(VersionMap, EmptyLineHasNoVersions)
{
    VersionMap map;
    EXPECT_EQ(map.latestVisible(5, 10), nullptr);
    EXPECT_FALSE(map.anyVersion(5));
}

TEST(VersionMap, LatestVisibleRespectsTaskOrder)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1);
    map.create(5, VersionTag{9, 1}, 2);

    EXPECT_EQ(map.latestVisible(5, 2), nullptr);  // before all versions
    EXPECT_EQ(map.latestVisible(5, 3)->tag.producer, 3u); // own version
    EXPECT_EQ(map.latestVisible(5, 5)->tag.producer, 3u);
    EXPECT_EQ(map.latestVisible(5, 8)->tag.producer, 7u);
    EXPECT_EQ(map.latestVisible(5, 100)->tag.producer, 9u);
}

TEST(VersionMap, CreateKeepsSortedOrderRegardlessOfInsertion)
{
    VersionMap map;
    map.create(5, VersionTag{9, 1}, 0);
    map.create(5, VersionTag{3, 1}, 1);
    map.create(5, VersionTag{7, 1}, 2);
    auto &versions = map.versionsOf(5);
    ASSERT_EQ(versions.size(), 3u);
    EXPECT_EQ(versions[0].tag.producer, 3u);
    EXPECT_EQ(versions[1].tag.producer, 7u);
    EXPECT_EQ(versions[2].tag.producer, 9u);
}

TEST(VersionMap, RemoveDropsExactlyThatVersion)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1);
    map.remove(5, VersionTag{3, 1});
    EXPECT_EQ(map.find(5, VersionTag{3, 1}), nullptr);
    EXPECT_NE(map.find(5, VersionTag{7, 1}), nullptr);
    EXPECT_EQ(map.totalVersions(), 1u);
    map.remove(5, VersionTag{7, 1});
    EXPECT_FALSE(map.anyVersion(5));
}

TEST(VersionMap, RemoveWrongIncarnationIsNoOp)
{
    VersionMap map;
    map.create(5, VersionTag{3, 2}, 0);
    map.remove(5, VersionTag{3, 1});
    EXPECT_NE(map.find(5, VersionTag{3, 2}), nullptr);
}

TEST(VersionMap, MemoryHolderFindsTheVersionInMemory)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    auto &v7 = map.create(5, VersionTag{7, 1}, 1);
    EXPECT_EQ(map.memoryHolder(5), nullptr);
    v7.inMemory = true;
    ASSERT_NE(map.memoryHolder(5), nullptr);
    EXPECT_EQ(map.memoryHolder(5)->tag.producer, 7u);
}

TEST(VersionMap, LatestCommittedIgnoresSpeculativeVersions)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    map.create(5, VersionTag{7, 1}, 1); // speculative
    EXPECT_EQ(map.latestCommitted(5), nullptr);
    // (pointers are invalidated by create: re-find before mutating)
    map.find(5, VersionTag{3, 1})->committed = true;
    EXPECT_EQ(map.latestCommitted(5)->tag.producer, 3u);
}

TEST(VersionMap, LatestWordWriterUsesWriteMasks)
{
    // Word-granularity visibility for violation detection: a version
    // only "wrote" the words in its mask.
    VersionMap map;
    auto &v3 = map.create(5, VersionTag{3, 1}, 0);
    v3.writeMask = 0x01; // word 0
    auto &v7 = map.create(5, VersionTag{7, 1}, 1);
    v7.writeMask = 0x02; // word 1

    EXPECT_EQ(map.latestWordWriter(5, 0x01, 10), 3u);
    EXPECT_EQ(map.latestWordWriter(5, 0x02, 10), 7u);
    EXPECT_EQ(map.latestWordWriter(5, 0x04, 10), 0u); // nobody: arch
    EXPECT_EQ(map.latestWordWriter(5, 0x02, 5), 0u);  // v7 not visible
}

TEST(VersionMap, ForEachVisitsEveryVersion)
{
    VersionMap map;
    map.create(1, VersionTag{1, 1}, 0);
    map.create(1, VersionTag{2, 1}, 0);
    map.create(2, VersionTag{3, 1}, 0);
    int n = 0;
    map.forEach([&](Addr, VersionInfo &) { ++n; });
    EXPECT_EQ(n, 3);
    EXPECT_EQ(map.linesTracked(), 2u);
    map.clear();
    EXPECT_EQ(map.totalVersions(), 0u);
}

TEST(VersionMapDeath, DuplicateProducerPanics)
{
    VersionMap map;
    map.create(5, VersionTag{3, 1}, 0);
    EXPECT_DEATH(map.create(5, VersionTag{3, 2}, 0), "duplicate");
}

TEST(VersionMap, ReachabilityPredicate)
{
    VersionInfo v;
    v.cacheOwner = kNoProc;
    EXPECT_FALSE(v.reachable());
    v.inMhb = true;
    EXPECT_TRUE(v.reachable());
    v.inMhb = false;
    v.inMemory = true;
    EXPECT_TRUE(v.reachable());
    v.inMemory = false;
    v.cacheOwner = 3;
    EXPECT_TRUE(v.reachable());
}

namespace {

/** Reference lookup: the exact-tag match scanned from the oldest end. */
VersionInfo *
frontScanFind(VersionList &list, VersionTag tag)
{
    for (auto &v : list) {
        if (v.tag == tag)
            return &v;
    }
    return nullptr;
}

} // namespace

TEST(VersionMapProperty, YoungEndLookupMatchesFrontScan)
{
    // Random create/remove churn over a few lines, producers created in
    // random order and lists growing far past the inline capacity.
    // After every step, findIn/find answer every kind of query exactly
    // as a front scan does, and remove drops exactly what a front scan
    // finds.
    constexpr Addr kLines = 4;
    constexpr TaskId kProducers = 160;
    std::mt19937_64 rng(0x600d5eed);
    auto below = [&rng](std::uint64_t n) { return rng() % n; };

    VersionMap map;
    // Model: line -> producer -> incarnation of its live version.
    std::map<Addr, std::map<TaskId, std::uint32_t>> model;
    std::size_t total = 0;
    std::size_t longest = 0;

    auto check = [&](Addr line, VersionTag tag) {
        const auto &live = model[line];
        auto it = live.find(tag.producer);
        bool present = it != live.end() && it->second == tag.incarnation;
        VersionList *list = map.listOf(line);
        VersionInfo *want = list ? frontScanFind(*list, tag) : nullptr;
        ASSERT_EQ(want != nullptr, present)
            << "line " << line << " producer " << tag.producer;
        if (list) {
            EXPECT_EQ(VersionMap::findIn(*list, tag), want)
                << "line " << line << " producer " << tag.producer
                << " inc " << tag.incarnation;
        }
        EXPECT_EQ(map.find(line, tag), want);
    };

    auto queryAll = [&](Addr line) {
        const auto &live = model[line];
        check(line, VersionTag::arch());
        check(line, VersionTag{kProducers + 1 + below(8), 1}); // above
        if (live.empty()) {
            check(line, VersionTag{1 + below(kProducers), 1});
            return;
        }
        auto pick = std::next(live.begin(), long(below(live.size())));
        check(line, VersionTag{pick->first, pick->second}); // present
        check(line, VersionTag{pick->first, pick->second + 1}); // stale
        check(line, VersionTag{pick->first, pick->second - 1}); // stale
        TaskId lo = live.begin()->first;
        TaskId hi = live.rbegin()->first;
        if (lo > 1)
            check(line, VersionTag{1 + below(lo - 1), 1}); // below
        check(line, VersionTag{hi + 1 + below(4), 1});      // above
        for (int i = 0; i < 4; ++i) { // between (or present)
            TaskId p = lo + below(hi - lo + 1);
            check(line, VersionTag{p, 1});
            check(line, VersionTag{p, 2});
        }
    };

    for (int step = 0; step < 6000; ++step) {
        Addr line = below(kLines);
        auto &live = model[line];
        if (live.empty() || below(100) < 70) {
            TaskId p = 1 + below(kProducers);
            if (!live.count(p)) {
                std::uint32_t inc = 1 + std::uint32_t(below(3));
                map.create(line, VersionTag{p, inc}, ProcId(p % 16));
                live[p] = inc;
                ++total;
            }
        } else {
            auto pick = std::next(live.begin(), long(below(live.size())));
            VersionTag tag{pick->first, pick->second};
            std::uint64_t kind = below(10);
            if (kind == 0)
                tag.incarnation += 1; // stale: no-op
            else if (kind == 1)
                tag.producer = kProducers + 1; // absent: no-op
            VersionList *list = map.listOf(line);
            ASSERT_NE(list, nullptr);
            bool hit = frontScanFind(*list, tag) != nullptr;
            ASSERT_EQ(hit, kind >= 2);
            std::size_t before = list->size();
            map.remove(line, tag);
            if (hit) {
                live.erase(pick);
                --total;
            }
            list = map.listOf(line);
            ASSERT_EQ(list ? list->size() : 0, before - (hit ? 1 : 0));
            if (list) {
                EXPECT_EQ(frontScanFind(*list, tag), nullptr);
            }
        }
        ASSERT_EQ(map.totalVersions(), total);
        ASSERT_EQ(map.anyVersion(line), !live.empty());
        if (VersionList *list = map.listOf(line)) {
            longest = std::max(longest, list->size());
            ASSERT_EQ(list->size(), live.size());
            auto it = live.begin();
            for (const VersionInfo &v : *list) {
                ASSERT_EQ(v.tag.producer, it->first);
                ASSERT_EQ(v.tag.incarnation, it->second);
                ++it;
            }
        }
        queryAll(line);
        queryAll(below(kLines + 1)); // includes a never-touched line
    }
    EXPECT_GE(longest, 64u);
}
