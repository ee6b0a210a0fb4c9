/**
 * @file
 * Tests for the versioned cache: geometry, lookup, version
 * co-residency (CRL), victim-class priority, pinning, and sets built
 * on first write against an eagerly built reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
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
    EXPECT_EQ(c.residentLines(), 0u);
    EXPECT_EQ(c.findAnyOf(5), nullptr);
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
    EXPECT_EQ(c.residentLines(), 1u); // only valid frames count
}

TEST(VersionedCache, IncarnationsDistinguishReexecutions)
{
    VersionedCache c(CacheGeometry::of(4096, 4), true);
    CacheLineState old_inc = line(5, 3);
    old_inc.version.incarnation = 1;
    c.insert(old_inc, 0);
    EXPECT_EQ(c.findVersion(5, VersionTag{3, 2}), nullptr);
}

// ---------------------------------------------------------------------
// Differential test: sets built on first write must behave exactly like
// a cache whose frames all exist from construction.

namespace {

/**
 * Reference model: the cache as it was before sets were built lazily —
 * every frame value-initialized up front, every lookup scans its set.
 */
class EagerVersionedCache
{
  public:
    EagerVersionedCache(CacheGeometry geo, bool multi_version)
        : geo_(geo), multiVersion_(multi_version),
          setMask_(Addr(geo.numSets()) - 1),
          frames_(std::size_t(geo.numSets()) * geo.assoc)
    {
    }

    CacheLineState *
    findVersion(Addr line, VersionTag version)
    {
        CacheLineState *base = setBase(line);
        for (unsigned w = 0; w < geo_.assoc; ++w) {
            CacheLineState &f = base[w];
            if (f.valid && f.line == line && f.version == version)
                return &f;
        }
        return nullptr;
    }

    CacheLineState *
    findAnyOf(Addr line)
    {
        CacheLineState *base = setBase(line);
        for (unsigned w = 0; w < geo_.assoc; ++w) {
            CacheLineState &f = base[w];
            if (f.valid && f.line == line)
                return &f;
        }
        return nullptr;
    }

    InsertResult
    insert(const CacheLineState &want, Cycle now, bool pin_speculative)
    {
        InsertResult result;
        CacheLineState *base = setBase(want.line);
        if (CacheLineState *hit = findVersion(want.line, want.version)) {
            *hit = want;
            hit->valid = true;
            hit->lastUse = now;
            result.frame = hit;
            return result;
        }
        if (!multiVersion_) {
            if (CacheLineState *resident = findAnyOf(want.line)) {
                result.evicted = true;
                result.victim = *resident;
                *resident = want;
                resident->valid = true;
                resident->lastUse = now;
                result.frame = resident;
                return result;
            }
        }
        CacheLineState *victim = nullptr;
        int victim_class = 4;
        for (unsigned w = 0; w < geo_.assoc; ++w) {
            CacheLineState &f = base[w];
            int cls = evictClass(f);
            if (pin_speculative && cls == 3)
                continue;
            if (cls < victim_class ||
                (cls == victim_class && victim &&
                 f.lastUse < victim->lastUse)) {
                victim = &f;
                victim_class = cls;
            }
        }
        if (!victim)
            return result;
        if (victim->valid) {
            result.evicted = true;
            result.victim = *victim;
        }
        *victim = want;
        victim->valid = true;
        victim->lastUse = now;
        result.frame = victim;
        return result;
    }

    bool
    canInsert(Addr line, bool pin_speculative)
    {
        if (findAnyOf(line) && !multiVersion_)
            return true;
        if (!pin_speculative)
            return true;
        CacheLineState *base = setBase(line);
        for (unsigned w = 0; w < geo_.assoc; ++w) {
            if (evictClass(base[w]) != 3)
                return true;
        }
        return false;
    }

    void
    invalidateVersion(Addr line, VersionTag version)
    {
        if (CacheLineState *f = findVersion(line, version))
            f->valid = false;
    }

    std::size_t
    residentLines() const
    {
        std::size_t n = 0;
        for (const auto &f : frames_)
            n += f.valid ? 1 : 0;
        return n;
    }

    unsigned
    versionsResident(Addr line)
    {
        unsigned n = 0;
        CacheLineState *base = setBase(line);
        for (unsigned w = 0; w < geo_.assoc; ++w)
            n += (base[w].valid && base[w].line == line) ? 1 : 0;
        return n;
    }

  private:
    CacheGeometry geo_;
    bool multiVersion_;
    Addr setMask_;
    std::vector<CacheLineState> frames_;

    CacheLineState *
    setBase(Addr line)
    {
        return &frames_[std::size_t(line & setMask_) * geo_.assoc];
    }

    static int
    evictClass(const CacheLineState &frame)
    {
        if (!frame.valid)
            return 0;
        if (!frame.dirty && !frame.committedDirty)
            return 1;
        if (frame.committedDirty)
            return 2;
        return 3;
    }
};

bool
sameState(const CacheLineState &a, const CacheLineState &b)
{
    return a.line == b.line && a.version == b.version &&
           a.valid == b.valid && a.dirty == b.dirty &&
           a.speculative == b.speculative &&
           a.committedDirty == b.committedDirty && a.lastUse == b.lastUse;
}

/** Both null, or both non-null with equal contents. */
::testing::AssertionResult
sameFrame(const CacheLineState *lazy, const CacheLineState *eager)
{
    if ((lazy == nullptr) != (eager == nullptr))
        return ::testing::AssertionFailure()
               << "lazy " << (lazy ? "hit" : "miss") << " vs eager "
               << (eager ? "hit" : "miss");
    if (lazy && !sameState(*lazy, *eager))
        return ::testing::AssertionFailure()
               << "frames differ for line " << lazy->line << " / "
               << eager->line;
    return ::testing::AssertionSuccess();
}

/**
 * @p ops random operations on both caches. Lines are written only into
 * the lower half of the sets, while lookups probe every set, so never
 * written sets keep answering lookups for the whole run. Frames a
 * lookup returns get mutated the way the engine mutates them (LRU
 * touch, merge and commit flags) through both pointers, so a lazy
 * cache returning a different frame than the reference diverges.
 */
void
runDifferential(CacheGeometry geo, bool multi_version, bool pin, int ops,
                std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << geo.numSets() << " sets x " << geo.assoc
                 << (multi_version ? " multi" : " single")
                 << (pin ? " pinned" : " unpinned"));
    VersionedCache lazy(geo, multi_version);
    EagerVersionedCache eager(geo, multi_version);
    const Addr sets = geo.numSets();
    const Addr written_sets = std::max<Addr>(1, sets / 2);
    Rng rng(seed);
    auto written_line = [&] {
        return rng.below(written_sets) + sets * rng.below(6);
    };
    auto any_line = [&] { return rng.below(sets) + sets * rng.below(6); };
    auto any_version = [&] {
        return VersionTag{TaskId(rng.below(5) + 1),
                          std::uint32_t(rng.below(2) + 1)};
    };

    for (int i = 0; i < ops; ++i) {
        const Cycle now = Cycle(i);
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: {
            CacheLineState want;
            want.line = written_line();
            want.version = any_version();
            want.dirty = rng.chance(0.6);
            want.speculative = want.dirty && rng.chance(0.6);
            want.committedDirty = !want.speculative && rng.chance(0.2);
            InsertResult a = lazy.insert(want, now, pin);
            InsertResult b = eager.insert(want, now, pin);
            ASSERT_TRUE(sameFrame(a.frame, b.frame)) << "insert @" << i;
            ASSERT_EQ(a.evicted, b.evicted) << "insert @" << i;
            if (a.evicted) {
                ASSERT_TRUE(sameState(a.victim, b.victim))
                    << "victim @" << i;
            }
            break;
          }
          case 3: {
            const Addr l = any_line();
            const VersionTag v = any_version();
            CacheLineState *a = lazy.findVersion(l, v);
            CacheLineState *b = eager.findVersion(l, v);
            ASSERT_TRUE(sameFrame(a, b)) << "findVersion @" << i;
            if (a) {
                a->lastUse = b->lastUse = now;
                if (rng.chance(0.3)) {
                    a->committedDirty = b->committedDirty = true;
                    a->speculative = b->speculative = false;
                } else if (rng.chance(0.2)) {
                    a->dirty = b->dirty = false;
                }
            }
            break;
          }
          case 4: {
            const Addr l = any_line();
            ASSERT_TRUE(sameFrame(lazy.findAnyOf(l), eager.findAnyOf(l)))
                << "findAnyOf @" << i;
            break;
          }
          case 5: {
            const Addr l = any_line();
            ASSERT_EQ(lazy.canInsert(l, pin), eager.canInsert(l, pin))
                << "canInsert @" << i;
            ASSERT_EQ(lazy.versionsResident(l), eager.versionsResident(l))
                << "versionsResident @" << i;
            break;
          }
          default: {
            const Addr l = rng.chance(0.5) ? written_line() : any_line();
            const VersionTag v = any_version();
            lazy.invalidateVersion(l, v);
            eager.invalidateVersion(l, v);
            break;
          }
        }
        if (i % 4096 == 0) {
            ASSERT_EQ(lazy.residentLines(), eager.residentLines());
        }
    }
    EXPECT_EQ(lazy.residentLines(), eager.residentLines());
}

} // namespace

TEST(VersionedCacheProperty, LazySetsMatchEagerlyBuiltReference)
{
    const CacheGeometry geometries[] = {
        CacheGeometry::of(64 * 4 * 4, 4),   // 4 sets: constant conflicts
        CacheGeometry::of(512 * 1024, 4),   // the paper's L2
    };
    std::uint64_t seed = 0xcac4e;
    for (const CacheGeometry &geo : geometries) {
        for (bool multi_version : {true, false}) {
            for (bool pin : {false, true})
                runDifferential(geo, multi_version, pin, 120000, ++seed);
        }
    }
}
