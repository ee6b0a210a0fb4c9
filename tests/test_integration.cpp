/**
 * @file
 * Integration and property tests: scaled-down versions of the paper's
 * applications swept across the full scheme lattice on both machines
 * (TEST_P), checking the invariants every run must satisfy.
 */

#include <gtest/gtest.h>

#include "sim/study.hpp"

using namespace tlsim;

namespace {

/** Scale an app down so a full lattice sweep stays fast. */
apps::AppParams
scaled(apps::AppParams p)
{
    p.numTasks = std::min(p.numTasks, 48u);
    if (p.tasksPerInvocation > 24)
        p.tasksPerInvocation = 24;
    p.instrPerTask = std::min(p.instrPerTask, 8000.0);
    return p;
}

struct LatticePoint {
    const char *app;
    tls::SchemeConfig scheme;
    bool numa;
};

std::vector<LatticePoint>
lattice()
{
    std::vector<LatticePoint> out;
    for (const char *app : {"P3m", "Tree", "Bdna", "Apsi", "Track",
                            "Dsmc3d", "Euler"}) {
        for (const tls::SchemeConfig &s :
             tls::SchemeConfig::evaluatedSchemes()) {
            out.push_back({app, s, true});
            out.push_back({app, s, false});
        }
    }
    return out;
}

apps::AppParams
appByName(const std::string &name)
{
    for (const apps::AppParams &p : apps::appSuite()) {
        if (p.name == name)
            return p;
    }
    ADD_FAILURE() << "unknown app " << name;
    return apps::tree();
}

class LatticeTest : public ::testing::TestWithParam<LatticePoint>
{
};

std::string
pointName(const ::testing::TestParamInfo<LatticePoint> &info)
{
    std::string s = info.param.app;
    s += "_" + info.param.scheme.name();
    s += info.param.numa ? "_numa" : "_cmp";
    for (char &c : s) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return s;
}

} // namespace

TEST_P(LatticeTest, RunCompletesAndInvariantsHold)
{
    const LatticePoint &pt = GetParam();
    apps::AppParams app = scaled(appByName(pt.app));
    mem::MachineParams machine = pt.numa
                                     ? mem::MachineParams::numa16()
                                     : mem::MachineParams::cmp8();
    tls::RunResult res = sim::runScheme(app, pt.scheme, machine);

    // Every task commits exactly once.
    EXPECT_EQ(res.committedTasks, app.numTasks);

    // Per-processor accounting is exact: all bins sum to wall time.
    ASSERT_EQ(res.perProc.size(), machine.numProcs);
    for (const CycleBreakdown &b : res.perProc)
        EXPECT_EQ(b.total(), res.execTime);

    // Timelines are complete and ordered.
    for (const tls::TaskTimeline &tl : res.timelines) {
        EXPECT_LE(tl.execStart, tl.execEnd);
        EXPECT_LE(tl.execEnd, tl.commitStart);
        EXPECT_LE(tl.commitStart, tl.commitEnd);
        EXPECT_LE(tl.commitEnd, res.execTime);
    }

    // Scheme-specific invariants.
    if (pt.scheme.separation == tls::Separation::MultiTMV) {
        EXPECT_EQ(res.total.get(CycleKind::VersionStall), 0u);
    }
    if (pt.scheme.merging != tls::Merging::FMM) {
        EXPECT_EQ(res.counters.get("log_appends"), 0u);
    }
    if (!pt.scheme.softwareLog) {
        EXPECT_EQ(res.total.get(CycleKind::LogOverhead), 0u);
    }
    if (pt.scheme.merging == tls::Merging::EagerAMM &&
        res.squashEvents == 0) {
        EXPECT_EQ(res.counters.get("eager_writebacks") > 0,
                  res.counters.get("stores") > 0);
    }
}

INSTANTIATE_TEST_SUITE_P(SchemeLattice, LatticeTest,
                         ::testing::ValuesIn(lattice()), pointName);

TEST(Integration, SpeedupsAreSensible)
{
    // A quick end-to-end sanity run: MultiT&MV Lazy on NUMA achieves
    // real speedup on every application (scaled).
    tls::SchemeConfig scheme{tls::Separation::MultiTMV,
                             tls::Merging::LazyAMM, false};
    for (const apps::AppParams &full : apps::appSuite()) {
        apps::AppParams app = scaled(full);
        sim::AppStudy study = sim::runAppStudy(app, {scheme},
                                               mem::MachineParams::numa16());
        EXPECT_GT(study.outcomes[0].speedup, 1.5) << app.name;
        EXPECT_LT(study.outcomes[0].speedup, 16.5) << app.name;
    }
}

TEST(Integration, SameSeedReproducesExactly)
{
    apps::AppParams app = scaled(apps::euler());
    tls::SchemeConfig scheme{tls::Separation::MultiTMV,
                             tls::Merging::FMM, false};
    mem::MachineParams machine = mem::MachineParams::numa16();
    tls::RunResult a = sim::runScheme(app, scheme, machine);
    tls::RunResult b = sim::runScheme(app, scheme, machine);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.squashEvents, b.squashEvents);
    EXPECT_EQ(a.counters.get("loads"), b.counters.get("loads"));
}

TEST(Integration, DifferentSeedsPerturbButComplete)
{
    apps::AppParams app = scaled(apps::track());
    app.seed ^= 0xdeadbeef;
    tls::SchemeConfig scheme{tls::Separation::MultiTSV,
                             tls::Merging::LazyAMM, false};
    tls::RunResult res =
        sim::runScheme(app, scheme, mem::MachineParams::numa16());
    EXPECT_EQ(res.committedTasks, app.numTasks);
}

TEST(Integration, OooCoreChangesTimingButNotCommittedState)
{
    // The out-of-order core (docs/OOO_CORE.md) is a timing model: it
    // must move execTime, never the committed memory image.
    apps::AppParams app = apps::tree();
    app.numTasks = 48;
    app.instrPerTask = 3000;
    tls::SchemeConfig scheme{tls::Separation::MultiTMV,
                             tls::Merging::LazyAMM, false};
    mem::MachineParams ooo = mem::MachineParams::numa16();
    ooo.coreModel = mem::CoreModelKind::OutOfOrder;
    tls::RunResult inorder =
        sim::runScheme(app, scheme, mem::MachineParams::numa16());
    tls::RunResult outoforder = sim::runScheme(app, scheme, ooo);
    ASSERT_GT(outoforder.execTime, 0u);
    EXPECT_NE(outoforder.execTime, inorder.execTime);
    EXPECT_EQ(outoforder.memStateHash, inorder.memStateHash);
}
