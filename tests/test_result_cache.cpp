/**
 * @file
 * Tests for the content-addressed result cache (DESIGN.md §10): key
 * discipline (equal canonical configs ⇔ equal keys; execution-only
 * knobs never perturb a key), exact RunResult serialization
 * round-trips, every store failure mode (truncation, bit flips, stale
 * format versions — all must read as misses, never as data), the memo
 * layer in runScheme / runSynthScheme, --cache-verify, concurrent
 * writers on one key.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>
#include <vector>

#include "apps/app_suite.hpp"
#include "common/fault.hpp"
#include "sim/result_cache.hpp"
#include "sim/study.hpp"

using namespace tlsim;
namespace fs = std::filesystem;

namespace {

apps::AppParams
tinyApp()
{
    apps::AppParams p;
    p.name = "cache-tiny";
    p.numTasks = 24;
    p.instrPerTask = 800;
    p.sizeSigma = 0.3;
    p.writtenKb = 1.0;
    p.sharedReadKb = 0.2;
    p.depProb = 0.04;
    p.depDistance = 3;
    p.seed = 0xcac4e;
    return p;
}

tls::SchemeConfig
lazyMv()
{
    return {tls::Separation::MultiTMV, tls::Merging::LazyAMM, false};
}

/** Fresh scratch store directory, removed on destruction. */
struct ScratchDir {
    std::string path;

    ScratchDir()
    {
        static std::atomic<unsigned> counter{0};
        path = (fs::temp_directory_path() /
                ("tlsim-cache-test-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter.fetch_add(1))))
                   .string();
        fs::remove_all(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
};

/** The store's single entry file (tests assume exactly one). */
fs::path
onlyEntry(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            files.push_back(e.path());
    EXPECT_EQ(files.size(), 1u);
    return files.empty() ? fs::path() : files.front();
}

tls::RunResult
sampleResult()
{
    // Simulate a real point so every RunResult field — breakdowns,
    // counters, timelines, fault tallies — is populated organically.
    fault::FaultSpec faults;
    faults.seed = 7;
    faults.squashProb = 0.05;
    faults.squashMax = 3;
    return sim::runScheme(tinyApp(), lazyMv(),
                          mem::MachineParams::numa16(), faults);
}

} // namespace

// ---------------------------------------------------------------- keys

TEST(PointKey, EqualConfigsGiveEqualKeys)
{
    const apps::AppParams app = tinyApp();
    const mem::MachineParams machine = mem::MachineParams::numa16();
    const sim::PointKey a =
        sim::appPointKey(app, lazyMv(), machine, {}, false);
    const sim::PointKey b =
        sim::appPointKey(app, lazyMv(), machine, {}, false);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_EQ(a.hex().size(), 32u);
}

TEST(PointKey, EveryBehavioralFieldPerturbsTheKey)
{
    const apps::AppParams app = tinyApp();
    const mem::MachineParams machine = mem::MachineParams::numa16();
    const sim::PointKey base =
        sim::appPointKey(app, lazyMv(), machine, {}, false);

    apps::AppParams app2 = app;
    app2.seed ^= 1;
    EXPECT_NE(sim::appPointKey(app2, lazyMv(), machine, {}, false), base);
    app2 = app;
    app2.numTasks += 1;
    EXPECT_NE(sim::appPointKey(app2, lazyMv(), machine, {}, false), base);
    app2 = app;
    app2.depProb += 0.01;
    EXPECT_NE(sim::appPointKey(app2, lazyMv(), machine, {}, false), base);
    app2 = app;
    app2.name += "x";
    EXPECT_NE(sim::appPointKey(app2, lazyMv(), machine, {}, false), base);

    tls::SchemeConfig eager{tls::Separation::MultiTMV,
                            tls::Merging::EagerAMM, false};
    EXPECT_NE(sim::appPointKey(app, eager, machine, {}, false), base);

    mem::MachineParams m2 = machine;
    m2.latRemote2Hop += 1;
    EXPECT_NE(sim::appPointKey(app, lazyMv(), m2, {}, false), base);
    m2 = machine;
    m2.ipc *= 2.0;
    EXPECT_NE(sim::appPointKey(app, lazyMv(), m2, {}, false), base);
    m2 = machine;
    m2.overflowArea = !m2.overflowArea;
    EXPECT_NE(sim::appPointKey(app, lazyMv(), m2, {}, false), base);

    fault::FaultSpec faults;
    faults.squashProb = 0.1;
    faults.squashMax = 2;
    EXPECT_NE(sim::appPointKey(app, lazyMv(), machine, faults, false),
              base);

    // The sequential baseline is a different simulation entirely.
    EXPECT_NE(sim::appPointKey(app, lazyMv(), machine, {}, true), base);
}

TEST(PointKey, ExecutionOnlyKnobsDoNotFeedTheKey)
{
    // Threads and trace settings are deliberately not
    // parameters of appPointKey/synthPointKey at all — the signature
    // is the contract. What CAN be checked: reporting-only AppParams
    // fields must not perturb the key.
    const apps::AppParams app = tinyApp();
    const mem::MachineParams machine = mem::MachineParams::numa16();
    const sim::PointKey base =
        sim::appPointKey(app, lazyMv(), machine, {}, false);

    apps::AppParams rep = app;
    rep.paperPctTseq = 35.0;
    rep.paperWrittenKb = 99.0;
    rep.loadImbalance = apps::Level::High;
    rep.privPattern = apps::Level::Low;
    rep.commitExecClass = apps::Level::High;
    EXPECT_EQ(sim::appPointKey(rep, lazyMv(), machine, {}, false), base);
}

TEST(PointKey, InertFaultSpecKeysLikeNoFaults)
{
    const apps::AppParams app = tinyApp();
    const mem::MachineParams machine = mem::MachineParams::numa16();
    // A seed-only spec cannot fire (anyEnabled() is false): the engine
    // ignores it, so the key must too.
    fault::FaultSpec seed_only;
    seed_only.seed = 1234;
    EXPECT_EQ(sim::appPointKey(app, lazyMv(), machine, seed_only, false),
              sim::appPointKey(app, lazyMv(), machine, {}, false));

    // Once enabled, the seed matters.
    fault::FaultSpec f1;
    f1.squashProb = 0.1;
    f1.squashMax = 2;
    fault::FaultSpec f2 = f1;
    f2.seed = 77;
    EXPECT_NE(sim::appPointKey(app, lazyMv(), machine, f1, false),
              sim::appPointKey(app, lazyMv(), machine, f2, false));
}

TEST(PointKey, SequentialBaselineIgnoresSchemeAndFaults)
{
    const apps::AppParams app = tinyApp();
    const mem::MachineParams machine = mem::MachineParams::numa16();
    fault::FaultSpec faults;
    faults.squashProb = 0.5;
    faults.squashMax = 4;
    tls::SchemeConfig eager{tls::Separation::SingleT,
                            tls::Merging::EagerAMM, false};
    // The engine ignores both in sequential mode, so the baseline
    // shares one cache entry across every scheme/fault combination.
    EXPECT_EQ(sim::appPointKey(app, eager, machine, faults, true),
              sim::appPointKey(app, lazyMv(), machine, {}, true));
}

TEST(PointKey, SynthFieldsPerturbTheKey)
{
    apps::SynthSpec spec;
    ASSERT_TRUE(apps::SynthSpec::parse("kind=graph,tasks=48", &spec));
    const mem::MachineParams machine = mem::MachineParams::cmp8();
    const sim::PointKey base =
        sim::synthPointKey(spec, lazyMv(), machine, {}, false);

    apps::SynthSpec s2 = spec;
    s2.conflict += 0.05;
    EXPECT_NE(sim::synthPointKey(s2, lazyMv(), machine, {}, false), base);
    s2 = spec;
    s2.kind = apps::SynthKind::Reduce;
    EXPECT_NE(sim::synthPointKey(s2, lazyMv(), machine, {}, false), base);

    // App and synth keys live in disjoint namespaces.
    EXPECT_NE(sim::appPointKey(tinyApp(), lazyMv(), machine, {}, false),
              base);
}

// ------------------------------------------------------- serialization

TEST(RunResultSerialization, RoundTripsExactly)
{
    const tls::RunResult r = sampleResult();
    ASSERT_GT(r.execTime, 0u);
    ASSERT_FALSE(r.counters.entries().empty());

    const std::string bytes = sim::serializeRunResult(r);
    tls::RunResult back;
    ASSERT_TRUE(sim::deserializeRunResult(bytes, &back));

    EXPECT_EQ(back.execTime, r.execTime);
    EXPECT_EQ(back.counters.entries(), r.counters.entries());
    EXPECT_EQ(back.committedTasks, r.committedTasks);
    EXPECT_EQ(back.squashEvents, r.squashEvents);
    EXPECT_EQ(back.memStateHash, r.memStateHash);
    EXPECT_EQ(back.memStateLines, r.memStateLines);
    EXPECT_EQ(back.timelines.size(), r.timelines.size());
    EXPECT_EQ(back.perProc.size(), r.perProc.size());
    EXPECT_EQ(back.faults.spuriousSquashes, r.faults.spuriousSquashes);
    // The byte-compare contract: re-serializing the deserialized
    // result reproduces the exact payload (doubles as raw bits).
    EXPECT_EQ(sim::serializeRunResult(back), bytes);
}

TEST(RunResultSerialization, RejectsMalformedInput)
{
    const std::string bytes = sim::serializeRunResult(sampleResult());
    tls::RunResult out;
    EXPECT_FALSE(sim::deserializeRunResult("", &out));
    EXPECT_FALSE(sim::deserializeRunResult(
        std::string_view(bytes).substr(0, bytes.size() / 2), &out));
    EXPECT_FALSE(sim::deserializeRunResult(bytes + "x", &out));
}

// ---------------------------------------------------------------- store

TEST(ResultCache, StoreAndFetch)
{
    ScratchDir dir;
    sim::ResultCache cache(dir.path);
    const tls::RunResult r = sampleResult();
    const sim::PointKey key{0x1111, 0x2222};

    tls::RunResult out;
    EXPECT_FALSE(cache.fetch(key, &out));
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.store(key, r);
    EXPECT_TRUE(cache.contains(key));
    std::string payload;
    ASSERT_TRUE(cache.fetch(key, &out, &payload));
    EXPECT_EQ(out.execTime, r.execTime);
    EXPECT_EQ(payload, sim::serializeRunResult(r));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
}

TEST(ResultCache, TruncatedEntryIsAMiss)
{
    ScratchDir dir;
    sim::ResultCache cache(dir.path);
    const sim::PointKey key{0xaaaa, 0xbbbb};
    cache.store(key, sampleResult());

    const fs::path entry = onlyEntry(dir.path);
    const auto full = fs::file_size(entry);
    fs::resize_file(entry, full / 2);

    tls::RunResult out;
    EXPECT_FALSE(cache.fetch(key, &out));
    EXPECT_EQ(cache.stats().corrupt, 1u);

    // Truncated below the header too.
    fs::resize_file(entry, 10);
    EXPECT_FALSE(cache.fetch(key, &out));
    EXPECT_EQ(cache.stats().corrupt, 2u);

    // The miss path rewrites the entry; it must be trusted again.
    cache.store(key, sampleResult());
    EXPECT_TRUE(cache.fetch(key, &out));
}

TEST(ResultCache, BitFlippedPayloadFailsTheChecksum)
{
    ScratchDir dir;
    sim::ResultCache cache(dir.path);
    const sim::PointKey key{0xcccc, 0xdddd};
    cache.store(key, sampleResult());

    const fs::path entry = onlyEntry(dir.path);
    {
        std::fstream f(entry,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        // Flip one bit in the middle of the payload (past the 40-byte
        // header).
        f.seekg(0, std::ios::end);
        const auto size = f.tellg();
        ASSERT_GT(size, 64);
        f.seekg(40 + (long(size) - 40) / 2);
        char c = char(f.peek());
        f.seekp(f.tellg());
        c = char(c ^ 0x10);
        f.write(&c, 1);
    }

    tls::RunResult out;
    EXPECT_FALSE(cache.fetch(key, &out));
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ResultCache, StaleFormatVersionIsAMiss)
{
    ScratchDir dir;
    sim::ResultCache cache(dir.path);
    const sim::PointKey key{0xeeee, 0xffff};
    cache.store(key, sampleResult());

    const fs::path entry = onlyEntry(dir.path);
    {
        std::fstream f(entry,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        // The u32 format version sits right after the 4-byte magic.
        f.seekp(4);
        const char old_version[4] = {char(0xfe), 0, 0, 0};
        f.write(old_version, 4);
    }

    tls::RunResult out;
    EXPECT_FALSE(cache.fetch(key, &out));
    EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(ResultCache, WrongKeyInHeaderIsRejected)
{
    ScratchDir dir;
    sim::ResultCache cache(dir.path);
    const sim::PointKey key{0x1234, 0x5678};
    cache.store(key, sampleResult());

    // Copy the valid entry onto another key's path: the embedded key
    // no longer matches the file name, so it must be rejected (this is
    // what a sharding bug or a hand-copied store would look like).
    const sim::PointKey other{0x8765, 0x4321};
    const fs::path src = onlyEntry(dir.path);
    const fs::path dst =
        fs::path(dir.path) / other.hex().substr(0, 2) /
        (other.hex() + ".tlr");
    fs::create_directories(dst.parent_path());
    fs::copy_file(src, dst);

    tls::RunResult out;
    EXPECT_FALSE(cache.fetch(other, &out));
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_TRUE(cache.fetch(key, &out)); // original still fine
}

TEST(ResultCache, ConcurrentWritersOnOneKeyAreSafe)
{
    ScratchDir dir;
    sim::ResultCache cache(dir.path);
    const tls::RunResult r = sampleResult();
    const std::string bytes = sim::serializeRunResult(r);
    const sim::PointKey key{0x7777, 0x8888};

    std::vector<std::thread> writers;
    for (int i = 0; i < 8; ++i)
        writers.emplace_back([&] {
            for (int j = 0; j < 25; ++j)
                cache.store(key, r);
        });
    // Concurrent readers must only ever observe a miss (before the
    // first rename lands) or the complete entry — never a torn write.
    std::atomic<bool> failed{false};
    std::thread reader([&] {
        sim::ResultCache other(dir.path);
        for (int j = 0; j < 200; ++j) {
            tls::RunResult out;
            std::string payload;
            if (other.fetch(key, &out, &payload) && payload != bytes)
                failed.store(true);
        }
        if (other.stats().corrupt != 0)
            failed.store(true);
    });
    for (std::thread &t : writers)
        t.join();
    reader.join();
    EXPECT_FALSE(failed.load());

    std::string payload;
    tls::RunResult out;
    ASSERT_TRUE(cache.fetch(key, &out, &payload));
    EXPECT_EQ(payload, bytes);
    EXPECT_EQ(cache.stats().corrupt, 0u);
    // No temp files left behind.
    for (const auto &e : fs::recursive_directory_iterator(dir.path)) {
        if (e.is_regular_file()) {
            EXPECT_EQ(e.path().extension(), ".tlr") << e.path();
        }
    }
}

// ----------------------------------------------------------- memo layer

TEST(MemoLayer, RunSchemeHitsAreByteIdentical)
{
    ScratchDir dir;
    const apps::AppParams app = tinyApp();
    const mem::MachineParams machine = mem::MachineParams::numa16();

    const tls::RunResult uncached =
        sim::runScheme(app, lazyMv(), machine);

    sim::ResultCache cache(dir.path);
    sim::setResultCache(&cache);
    const tls::RunResult cold = sim::runScheme(app, lazyMv(), machine);
    const tls::RunResult warm = sim::runScheme(app, lazyMv(), machine);
    sim::setResultCache(nullptr);

    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(sim::serializeRunResult(cold),
              sim::serializeRunResult(uncached));
    EXPECT_EQ(sim::serializeRunResult(warm),
              sim::serializeRunResult(uncached));
}

TEST(MemoLayer, VerifyFractionRecomputesHits)
{
    ScratchDir dir;
    const apps::AppParams app = tinyApp();
    const mem::MachineParams machine = mem::MachineParams::numa16();

    sim::ResultCache cache(dir.path);
    cache.setVerifyFraction(1.0);
    sim::setResultCache(&cache);
    (void)sim::runScheme(app, lazyMv(), machine); // miss + store
    // Hit: with fraction 1.0 the point is recomputed and byte-compared
    // against the store; any divergence would abort the process.
    (void)sim::runScheme(app, lazyMv(), machine);
    sim::setResultCache(nullptr);

    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().verified, 1u);
}

TEST(MemoLayer, SynthAndSequentialPointsAreCached)
{
    ScratchDir dir;
    apps::SynthSpec spec;
    ASSERT_TRUE(
        apps::SynthSpec::parse("kind=reduce,tasks=24,instr=500", &spec));
    const mem::MachineParams machine = mem::MachineParams::cmp8();

    sim::ResultCache cache(dir.path);
    sim::setResultCache(&cache);
    const tls::RunResult s1 = sim::runSynthScheme(spec, lazyMv(), machine);
    const tls::RunResult s2 = sim::runSynthScheme(spec, lazyMv(), machine);
    const tls::RunResult q1 = sim::runSynthSequential(spec, machine);
    const tls::RunResult q2 = sim::runSynthSequential(spec, machine);
    const tls::RunResult b1 = sim::runSequential(tinyApp(), machine);
    const tls::RunResult b2 = sim::runSequential(tinyApp(), machine);
    sim::setResultCache(nullptr);

    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 3u);
    EXPECT_EQ(sim::serializeRunResult(s1), sim::serializeRunResult(s2));
    EXPECT_EQ(sim::serializeRunResult(q1), sim::serializeRunResult(q2));
    EXPECT_EQ(sim::serializeRunResult(b1), sim::serializeRunResult(b2));
}

TEST(MemoLayer, ShouldVerifyIsAPureFunctionOfTheKey)
{
    ScratchDir dir;
    sim::ResultCache cache(dir.path);
    cache.setVerifyFraction(0.5);
    unsigned verified = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const sim::PointKey key{i * 0x9e3779b97f4a7c15ULL, i};
        const bool v = cache.shouldVerify(key);
        EXPECT_EQ(v, cache.shouldVerify(key)); // stable
        verified += v;
    }
    // ~100 of 200 at fraction 0.5; generous bounds, it's a hash draw.
    EXPECT_GT(verified, 50u);
    EXPECT_LT(verified, 150u);
    cache.setVerifyFraction(0.0);
    EXPECT_FALSE(cache.shouldVerify({1, 2}));
    cache.setVerifyFraction(1.0);
    EXPECT_TRUE(cache.shouldVerify({1, 2}));
}
