/**
 * @file
 * Tests for the scaled machine configurations (mesh64/128/256, CMP-32):
 * factory/byName sanity, hierarchical-directory fields, and — the part
 * that actually bites — the frozen speculative-structure capacities:
 * full synthetic runs must fit without tripping a capacity-ceiling
 * panic, and an undersized frozen table must panic loudly.
 */

#include <gtest/gtest.h>

#include "apps/synth_workload.hpp"
#include "mem/machine_params.hpp"
#include "mem/mtid_table.hpp"
#include "mem/overflow_area.hpp"
#include "sim/study.hpp"

using namespace tlsim;
using mem::MachineParams;
using mem::VersionTag;

TEST(MachineScale, ByNameResolvesEveryConfiguration)
{
    const struct {
        const char *name;
        unsigned procs;
    } expected[] = {
        {"numa16", 16}, {"cmp8", 8},     {"mesh64", 64},
        {"mesh128", 128}, {"mesh256", 256}, {"cmp32", 32},
    };
    for (const auto &e : expected) {
        MachineParams m;
        ASSERT_TRUE(MachineParams::byName(e.name, &m)) << e.name;
        EXPECT_EQ(m.name, e.name);
        EXPECT_EQ(m.numProcs, e.procs) << e.name;
    }
    MachineParams m;
    EXPECT_FALSE(MachineParams::byName("mesh32", &m));
    EXPECT_FALSE(MachineParams::byName("", &m));
}

TEST(MachineScale, MeshLatenciesGrowWithNodeCount)
{
    MachineParams base = MachineParams::numa16();
    MachineParams prev = base;
    for (unsigned nodes : {64u, 128u, 256u}) {
        MachineParams m = MachineParams::mesh(nodes);
        EXPECT_EQ(m.numProcs, nodes);
        EXPECT_TRUE(m.isNuma());
        // Wire/hop-delay scaling: strictly longer remote round trips
        // than the next-smaller mesh, local latencies untouched.
        EXPECT_GT(m.latRemote2Hop, prev.latRemote2Hop);
        EXPECT_GT(m.latRemote3Hop, prev.latRemote3Hop);
        EXPECT_EQ(m.latLocalMem, base.latLocalMem);
        EXPECT_EQ(m.latL2, base.latL2);
        prev = m;
    }
}

TEST(MachineScale, ScaledMachinesBankDirectoriesHierarchically)
{
    for (const char *name : {"mesh64", "mesh128", "mesh256", "cmp32"}) {
        MachineParams m;
        ASSERT_TRUE(MachineParams::byName(name, &m));
        EXPECT_GT(m.dirClusterNodes, 1u) << name;
        EXPECT_GT(m.latDirCluster, 0u) << name;
        EXPECT_EQ(m.numProcs % m.dirClusterNodes, 0u) << name;
    }
    // The paper's machines stay flat.
    EXPECT_EQ(MachineParams::numa16().dirClusterNodes, 0u);
    EXPECT_EQ(MachineParams::cmp8().dirClusterNodes, 0u);
}

TEST(MachineScale, ScaledMachinesFreezeSpeculativeCapacities)
{
    for (const char *name : {"mesh64", "mesh128", "mesh256", "cmp32"}) {
        MachineParams m;
        ASSERT_TRUE(MachineParams::byName(name, &m));
        EXPECT_GT(m.mtidCapacityLines, 0u) << name;
        EXPECT_GT(m.overflowCapacityPerProc, 0u) << name;
        EXPECT_GT(m.undoTasksPerProc, 0u) << name;
    }
    // 0 = grow on demand on the paper's small machines.
    EXPECT_EQ(MachineParams::numa16().mtidCapacityLines, 0u);
    EXPECT_EQ(MachineParams::cmp8().overflowCapacityPerProc, 0u);
}

// ---------------------------------------------------------------------
// The capacities must actually hold a real run: a full synthetic sweep
// point on the largest machines completes without a freeze panic.

namespace {

void
runAllKinds(const MachineParams &machine)
{
    // Modest per-kind sizes; every scheme that stresses a different
    // structure (MTID tags, overflow area, FMM undo log).
    const std::vector<tls::SchemeConfig> schemes = {
        tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                tls::Merging::EagerAMM),
        tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                tls::Merging::LazyAMM),
        tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                tls::Merging::FMM),
    };
    for (apps::SynthSpec spec :
         apps::synthSuite(/*tasks=*/16, /*footprint=*/64, 0xabcULL)) {
        for (const tls::SchemeConfig &scheme : schemes) {
            tls::RunResult res =
                sim::runSynthScheme(spec, scheme, machine);
            EXPECT_EQ(res.committedTasks, spec.tasks)
                << machine.name << " " << spec.canonical() << " "
                << scheme.name();
        }
    }
}

} // namespace

TEST(MachineScale, Mesh64CompletesSynthRunsWithinFrozenCapacities)
{
    runAllKinds(MachineParams::mesh(64));
}

TEST(MachineScale, Mesh128CompletesSynthRunsWithinFrozenCapacities)
{
    runAllKinds(MachineParams::mesh(128));
}

TEST(MachineScale, Mesh256CompletesSynthRunsWithinFrozenCapacities)
{
    runAllKinds(MachineParams::mesh(256));
}

TEST(MachineScale, Cmp32CompletesSynthRunsWithinFrozenCapacities)
{
    runAllKinds(MachineParams::cmp32());
}

// ---------------------------------------------------------------------
// And undersizing must be loud: growth past a frozen capacity is a
// panic, never a silent reallocation.

TEST(MachineScaleDeathTest, UndersizedFrozenMtidTablePanics)
{
    mem::MtidTable table;
    // reserve() rounds up to the bucket granularity; overrun it by a
    // wide margin so growth is forced regardless of slack.
    table.limitCapacity(4);
    EXPECT_DEATH(
        {
            for (Addr line = 0; line < 1024; ++line)
                table.set(line, VersionTag{TaskId(line % 7 + 1), 0});
        },
        "frozen");
}

TEST(MachineScaleDeathTest, UndersizedFrozenOverflowAreaPanics)
{
    mem::OverflowArea area;
    area.limitCapacity(1);
    EXPECT_DEATH(
        {
            for (Addr line = 0; line < 64; ++line)
                area.put(line, VersionTag{TaskId(line + 1), 0});
        },
        "frozen");
}
