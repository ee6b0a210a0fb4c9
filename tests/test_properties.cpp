/**
 * @file
 * Property-based tests: randomized sweeps over cache geometries,
 * interconnect sizes, machine parameters and detection granularity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "noc/mesh.hpp"
#include "sim/study.hpp"
#include "tls/engine.hpp"
#include "tls/scripted_workload.hpp"

using namespace tlsim;
using cpu::Op;

// ---------------------------------------------------------------
// Cache properties across geometries
// ---------------------------------------------------------------

struct CacheGeoCase {
    std::uint64_t size;
    unsigned assoc;
    bool multiVersion;
};

class CacheGeometrySweep
    : public ::testing::TestWithParam<CacheGeoCase>
{
};

TEST_P(CacheGeometrySweep, OccupancyNeverExceedsCapacity)
{
    const CacheGeoCase &g = GetParam();
    mem::VersionedCache cache(mem::CacheGeometry::of(g.size, g.assoc),
                              g.multiVersion);
    std::size_t capacity = g.size / mem::kLineBytes;
    Rng rng(g.size ^ g.assoc);
    for (int i = 0; i < 5000; ++i) {
        mem::CacheLineState cl;
        cl.line = rng.below(1 << 16);
        cl.version = mem::VersionTag{rng.below(8) + 1, 1};
        cl.dirty = rng.chance(0.5);
        cl.speculative = cl.dirty && rng.chance(0.5);
        cache.insert(cl, Cycle(i));
        ASSERT_LE(cache.residentLines(), capacity);
    }
}

TEST_P(CacheGeometrySweep, InsertedLineIsFindable)
{
    const CacheGeoCase &g = GetParam();
    mem::VersionedCache cache(mem::CacheGeometry::of(g.size, g.assoc),
                              g.multiVersion);
    Rng rng(g.size + g.assoc);
    for (int i = 0; i < 1000; ++i) {
        mem::CacheLineState cl;
        cl.line = rng.below(1 << 14);
        cl.version = mem::VersionTag{rng.below(4) + 1, 1};
        auto res = cache.insert(cl, Cycle(i));
        ASSERT_NE(res.frame, nullptr);
        ASSERT_NE(cache.findVersion(cl.line, cl.version), nullptr);
    }
}

TEST_P(CacheGeometrySweep, SingleVersionCachesHoldOneFramePerLine)
{
    const CacheGeoCase &g = GetParam();
    if (g.multiVersion)
        GTEST_SKIP();
    mem::VersionedCache cache(mem::CacheGeometry::of(g.size, g.assoc),
                              false);
    Rng rng(77);
    for (int i = 0; i < 2000; ++i) {
        mem::CacheLineState cl;
        cl.line = rng.below(256);
        cl.version = mem::VersionTag{rng.below(16) + 1, 1};
        cache.insert(cl, Cycle(i));
        ASSERT_LE(cache.versionsResident(cl.line), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(CacheGeoCase{4096, 1, false},
                      CacheGeoCase{4096, 4, true},
                      CacheGeoCase{32 * 1024, 2, false},
                      CacheGeoCase{64 * 1024, 8, true},
                      CacheGeoCase{512 * 1024, 4, true},
                      CacheGeoCase{64 * 16, 16, true}));

// ---------------------------------------------------------------
// Mesh properties across shapes
// ---------------------------------------------------------------

class MeshShapeSweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(MeshShapeSweep, HopMetricProperties)
{
    auto [rows, cols] = GetParam();
    noc::Mesh2D mesh(rows, cols);
    unsigned n = rows * cols;
    for (noc::NodeId a = 0; a < n; ++a) {
        EXPECT_EQ(mesh.hops(a, a), 0u);
        for (noc::NodeId b = 0; b < n; ++b) {
            EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
            EXPECT_LE(mesh.hops(a, b), rows + cols - 2);
            for (noc::NodeId c = 0; c < n; ++c) {
                EXPECT_LE(mesh.hops(a, c),
                          mesh.hops(a, b) + mesh.hops(b, c));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshShapeSweep,
                         ::testing::Values(std::make_pair(1u, 2u),
                                           std::make_pair(2u, 2u),
                                           std::make_pair(4u, 4u),
                                           std::make_pair(3u, 5u)));

// ---------------------------------------------------------------
// Engine properties
// ---------------------------------------------------------------

namespace {

std::vector<std::vector<Op>>
squashFreeTasks(int n)
{
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < n; ++t) {
        std::vector<Op> ops;
        Addr base = 0x4000'0000 + Addr(t) * 8192;
        ops.push_back(Op::compute(1500));
        for (int w = 0; w < 16; ++w)
            ops.push_back(Op::store(base + w * 8));
        ops.push_back(Op::compute(1500));
        for (int w = 0; w < 16; ++w)
            ops.push_back(Op::load(base + w * 8));
        tasks.push_back(std::move(ops));
    }
    return tasks;
}

Cycle
execWith(mem::MachineParams machine)
{
    tls::ScriptedWorkload wl(squashFreeTasks(48));
    tls::EngineConfig cfg;
    cfg.scheme = tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                         tls::Merging::LazyAMM);
    cfg.machine = machine;
    tls::SpeculationEngine engine(cfg, wl);
    return engine.run().execTime;
}

} // namespace

TEST(EngineProperties, SlowerMemoryNeverHelps)
{
    mem::MachineParams fast = mem::MachineParams::numa16();
    mem::MachineParams slow = fast;
    slow.latLocalMem *= 2;
    slow.latRemote2Hop *= 2;
    slow.latRemote3Hop *= 2;
    EXPECT_LE(execWith(fast), execWith(slow));
}

TEST(EngineProperties, MoreProcessorsNeverHurtSquashFreeRuns)
{
    mem::MachineParams m8 = mem::MachineParams::numa16();
    m8.numProcs = 8;
    mem::MachineParams m16 = mem::MachineParams::numa16();
    EXPECT_LE(execWith(m16), execWith(m8));
}

TEST(EngineProperties, SlowerDispatchMonotone)
{
    mem::MachineParams a = mem::MachineParams::numa16();
    mem::MachineParams b = a;
    b.dispatchCycles = 500;
    EXPECT_LT(execWith(a), execWith(b));
}

TEST(EngineProperties, LineGranularityDetectionSquashesAtLeastAsOften)
{
    // False sharing: consecutive tasks touch different words of the
    // same line; word-granular detection sees no dependence at all,
    // line-granular detection squashes.
    std::vector<std::vector<Op>> tasks;
    for (int t = 0; t < 24; ++t) {
        Addr line_base = 0x9000'0000; // one shared line
        std::vector<Op> ops;
        ops.push_back(Op::load(line_base + Addr((t + 1) % 8) * 8));
        ops.push_back(Op::compute(4000));
        ops.push_back(Op::store(line_base + Addr(t % 8) * 8));
        tasks.push_back(std::move(ops));
    }
    auto run_with = [&](bool word_gran) {
        tls::ScriptedWorkload wl(tasks);
        tls::EngineConfig cfg;
        cfg.scheme = tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                             tls::Merging::LazyAMM);
        cfg.machine = mem::MachineParams::numa16();
        cfg.machine.wordGranularityDetection = word_gran;
        tls::SpeculationEngine engine(cfg, wl);
        return engine.run();
    };
    tls::RunResult word = run_with(true);
    tls::RunResult line = run_with(false);
    EXPECT_GT(line.squashEvents, word.squashEvents);
    EXPECT_EQ(line.committedTasks, 24u);
}

// ---------------------------------------------------------------
// Accounting invariants over the scheme x app grid
// ---------------------------------------------------------------

namespace {

/** Scaled-down app so the full grid stays fast. */
apps::AppParams
sampledApp(apps::AppParams p)
{
    p.numTasks = 24;
    p.instrPerTask = 2500;
    return p;
}

} // namespace

TEST(AccountingInvariants, HoldForEverySchemeOnSampledAppGrid)
{
    // A sample of the suite spanning the behavior space: dominant
    // privatization (Tree), high C/E (Apsi), frequent squashes
    // (Euler), heavy imbalance + buffered state (P3m).
    std::vector<apps::AppParams> grid = {
        sampledApp(apps::tree()), sampledApp(apps::apsi()),
        sampledApp(apps::euler()), sampledApp(apps::p3m())};

    for (const mem::MachineParams &machine :
         {mem::MachineParams::numa16(), mem::MachineParams::cmp8()}) {
        for (const tls::SchemeConfig &scheme :
             tls::SchemeConfig::evaluatedSchemes()) {
            for (const apps::AppParams &app : grid) {
                SCOPED_TRACE(app.name + " / " + scheme.name() + " / " +
                             machine.name);
                tls::RunResult r = sim::runScheme(app, scheme, machine);

                // Every processor's cycle breakdown partitions the
                // run's wall clock exactly.
                ASSERT_EQ(r.perProc.size(), machine.numProcs);
                Cycle breakdown_sum = 0;
                for (const CycleBreakdown &b : r.perProc) {
                    EXPECT_EQ(b.total(), r.execTime);
                    breakdown_sum += b.total();
                }
                EXPECT_EQ(r.total.total(), breakdown_sum);

                // Squash accounting: every violation event throws away
                // at least the offending task, and nothing is squashed
                // without an event.
                EXPECT_GE(r.tasksSquashed, r.squashEvents);
                if (r.squashEvents == 0) {
                    EXPECT_EQ(r.tasksSquashed, 0u);
                }

                // Every task eventually commits exactly once.
                EXPECT_EQ(r.committedTasks, app.numTasks);
            }
        }
    }
}

// ---------------------------------------------------------------
// Written footprint: sequential word sets vs speculative write masks
// ---------------------------------------------------------------

namespace {

/**
 * One workload draw: a calibrated app at 64 tasks on numa16, or one of
 * the squash-heavy synthSuite draws on mesh64 (app unset).
 */
struct FootprintDraw {
    std::string name;
    std::optional<apps::AppParams> app;
    apps::SynthSpec spec;
};

/** Stable test-list names: gtest would otherwise print raw bytes. */
void
PrintTo(const FootprintDraw &d, std::ostream *os)
{
    *os << d.name;
}

std::vector<FootprintDraw>
footprintDraws()
{
    std::vector<FootprintDraw> out;
    for (apps::AppParams app : apps::appSuite()) {
        app.numTasks = 64;
        out.push_back({app.name, app, {}});
    }
    for (const apps::SynthSpec &spec : apps::synthSuite(56, 192, 0x5e1f)) {
        std::string name = spec.name();
        std::replace(name.begin(), name.end(), '-', '_');
        out.push_back({name, std::nullopt, spec});
    }
    return out;
}

class WrittenFootprint : public ::testing::TestWithParam<FootprintDraw>
{
};

} // namespace

TEST_P(WrittenFootprint, SequentialBaselineAndEverySchemeAgree)
{
    // The sequential baseline counts written words in a per-task set; a
    // speculative run counts them from its versions' write masks at
    // commit. A committed execution replays the baseline's stores, so
    // both must agree exactly — also on the synth draws, whose squashed
    // executions (thousands under FMM) recycle footprints.
    const FootprintDraw &d = GetParam();
    const mem::MachineParams machine = d.app
                                           ? mem::MachineParams::numa16()
                                           : mem::MachineParams::mesh(64);
    tls::RunResult seq = d.app ? sim::runSequential(*d.app, machine)
                               : sim::runSynthSequential(d.spec, machine);
    ASSERT_GT(seq.avgWrittenKb, 0.0);
    for (const tls::SchemeConfig &scheme :
         tls::SchemeConfig::evaluatedSchemes()) {
        SCOPED_TRACE(scheme.name());
        tls::RunResult r =
            d.app ? sim::runScheme(*d.app, scheme, machine)
                  : sim::runSynthScheme(d.spec, scheme, machine);
        EXPECT_EQ(r.avgWrittenKb, seq.avgWrittenKb);
        EXPECT_EQ(r.privFraction, seq.privFraction);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Draws, WrittenFootprint, ::testing::ValuesIn(footprintDraws()),
    [](const ::testing::TestParamInfo<FootprintDraw> &info) {
        return info.param.name;
    });

TEST(EngineProperties, ReplicatedSeedsPerturbExecTimeOnly)
{
    // Changing the workload seed must not break any invariant.
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        Rng rng(seed);
        std::vector<std::vector<Op>> tasks;
        for (int t = 0; t < 20; ++t) {
            std::vector<Op> ops;
            ops.push_back(Op::compute(
                std::uint32_t(500 + rng.below(3000))));
            for (unsigned w = 0; w < 4 + rng.below(12); ++w)
                ops.push_back(Op::store(0x4000'0000 +
                                        Addr(t) * 4096 + w * 8));
            tasks.push_back(std::move(ops));
        }
        tls::ScriptedWorkload wl(std::move(tasks));
        tls::EngineConfig cfg;
        cfg.scheme = tls::SchemeConfig::make(
            tls::Separation::MultiTSV, tls::Merging::EagerAMM);
        cfg.machine = mem::MachineParams::cmp8();
        tls::SpeculationEngine engine(cfg, wl);
        tls::RunResult res = engine.run();
        ASSERT_EQ(res.committedTasks, 20u);
        for (const CycleBreakdown &b : res.perProc)
            ASSERT_EQ(b.total(), res.execTime);
    }
}
