/**
 * @file
 * Tests for the synthetic adversarial workload generator: spec-grammar
 * round trips, the stream determinism contract, per-kind structural
 * invariants, and thread-count invariance of runSynthSweep.
 */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synth_workload.hpp"
#include "sim/study.hpp"

using namespace tlsim;
using namespace tlsim::apps;

namespace {

/** All four kinds at small size, varied seeds. */
std::vector<SynthSpec>
smallSuite()
{
    return synthSuite(/*tasks=*/12, /*footprint=*/48, /*seed=*/0xfeedULL);
}

} // namespace

// ---------------------------------------------------------------------
// Spec grammar

TEST(SynthSpec, ParsesFullGrammar)
{
    SynthSpec spec;
    std::string err;
    ASSERT_TRUE(SynthSpec::parse("kind=graph,tasks=128,footprint=512,"
                                 "conflict=0.25,stride=4,instr=900,"
                                 "tpi=16,seed=77",
                                 &spec, &err))
        << err;
    EXPECT_EQ(spec.kind, SynthKind::Graph);
    EXPECT_EQ(spec.tasks, 128u);
    EXPECT_EQ(spec.footprint, 512u);
    EXPECT_DOUBLE_EQ(spec.conflict, 0.25);
    EXPECT_EQ(spec.stride, 4u);
    EXPECT_EQ(spec.instr, 900u);
    EXPECT_EQ(spec.tasksPerInvocation, 16u);
    EXPECT_EQ(spec.seed, 77u);
}

TEST(SynthSpec, DefaultsApplyWhenOmitted)
{
    SynthSpec spec;
    ASSERT_TRUE(SynthSpec::parse("kind=reduce", &spec));
    EXPECT_EQ(spec.kind, SynthKind::Reduce);
    EXPECT_EQ(spec.tasks, SynthSpec{}.tasks);
    EXPECT_EQ(spec.footprint, SynthSpec{}.footprint);
    EXPECT_EQ(spec.seed, SynthSpec{}.seed);
}

TEST(SynthSpec, RejectsMalformedSpecs)
{
    SynthSpec untouched;
    untouched.tasks = 7; // sentinel: must survive failed parses
    std::string err;

    SynthSpec spec = untouched;
    EXPECT_FALSE(SynthSpec::parse("tasks=8", &spec, &err)); // no kind
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(SynthSpec::parse("kind=bogus", &spec, &err));
    EXPECT_FALSE(SynthSpec::parse("kind=reduce,conflict=1.5", &spec));
    EXPECT_FALSE(SynthSpec::parse("kind=reduce,tasks=0", &spec));
    EXPECT_FALSE(SynthSpec::parse("kind=reduce,wibble=3", &spec));
    EXPECT_FALSE(SynthSpec::parse("kind", &spec));
    EXPECT_EQ(spec.tasks, untouched.tasks);
}

TEST(SynthSpec, CanonicalRoundTripsEveryKind)
{
    for (const SynthSpec &spec : smallSuite()) {
        SynthSpec back;
        std::string err;
        ASSERT_TRUE(SynthSpec::parse(spec.canonical(), &back, &err))
            << spec.canonical() << ": " << err;
        EXPECT_EQ(back, spec) << spec.canonical();
    }
}

// ---------------------------------------------------------------------
// Determinism contract

TEST(SynthWorkload, StreamChecksumIsAPureFunctionOfTheSpec)
{
    for (const SynthSpec &spec : smallSuite()) {
        SynthWorkload a(spec);
        SynthWorkload b(spec);
        EXPECT_EQ(a.streamChecksum(), b.streamChecksum())
            << spec.canonical();

        SynthSpec reseeded = spec;
        reseeded.seed ^= 0xdead'beefULL;
        SynthWorkload c(reseeded);
        EXPECT_NE(a.streamChecksum(), c.streamChecksum())
            << spec.canonical();
    }
}

TEST(SynthWorkload, RepeatedTraceReadsAreIdentical)
{
    for (const SynthSpec &spec : smallSuite()) {
        SynthWorkload wl(spec);
        // Replay-identity across re-reads is what squash recovery
        // depends on; compare the raw op streams of a few tasks.
        for (TaskId task : {TaskId(1), TaskId(spec.tasks / 2),
                            TaskId(spec.tasks)}) {
            auto first = wl.memOps(task);
            auto second = wl.memOps(task);
            ASSERT_EQ(first.size(), second.size());
            for (std::size_t i = 0; i < first.size(); ++i) {
                EXPECT_EQ(first[i].kind, second[i].kind);
                EXPECT_EQ(first[i].addr, second[i].addr);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-kind structural invariants

TEST(SynthWorkload, PtrChasePermutationIsASingleFullCycle)
{
    SynthSpec spec;
    spec.kind = SynthKind::PtrChase;
    spec.tasks = 4;
    spec.footprint = 16;
    SynthWorkload wl(spec);

    const std::uint64_t words = wl.chaseTableWords();
    ASSERT_GE(words, std::uint64_t(spec.tasks) * spec.footprint);

    std::vector<bool> visited(words, false);
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < words; ++i) {
        ASSERT_FALSE(visited[x]) << "cycle shorter than the table";
        visited[x] = true;
        x = wl.chaseNext(x);
    }
    EXPECT_EQ(x, 0u) << "walk did not return to its origin";
}

TEST(SynthWorkload, PtrChaseSegmentStartsAreDistinct)
{
    SynthSpec spec;
    spec.kind = SynthKind::PtrChase;
    spec.tasks = 16;
    spec.footprint = 32;
    SynthWorkload wl(spec);

    std::set<std::uint64_t> starts;
    for (TaskId task = 1; task <= spec.tasks; ++task)
        starts.insert(wl.chaseSegmentStart(task));
    EXPECT_EQ(starts.size(), spec.tasks);
}

TEST(SynthWorkload, ZeroConflictRunsHaveZeroViolations)
{
    // conflict=0 is a structural partition guarantee, so even the most
    // violation-prone scheme must see no squash at all.
    const tls::SchemeConfig scheme = tls::SchemeConfig::make(
        tls::Separation::MultiTMV, tls::Merging::LazyAMM);
    const mem::MachineParams machine = mem::MachineParams::numa16();
    for (SynthSpec spec : smallSuite()) {
        spec.conflict = 0.0;
        tls::RunResult res =
            sim::runSynthScheme(spec, scheme, machine);
        EXPECT_EQ(res.committedTasks, spec.tasks) << spec.canonical();
        EXPECT_EQ(res.squashEvents, 0u) << spec.canonical();
        EXPECT_EQ(res.tasksSquashed, 0u) << spec.canonical();
    }
}

TEST(SynthWorkload, SquashStormManufacturesSquashes)
{
    SynthSpec spec;
    spec.kind = SynthKind::SquashStorm;
    spec.tasks = 24;
    spec.footprint = 64;
    spec.conflict = 0.5;
    spec.tasksPerInvocation = 8;
    tls::RunResult res = sim::runSynthScheme(
        spec,
        tls::SchemeConfig::make(tls::Separation::MultiTMV,
                                tls::Merging::EagerAMM),
        mem::MachineParams::numa16());
    EXPECT_EQ(res.committedTasks, spec.tasks);
    EXPECT_GT(res.squashEvents, 0u);
}

TEST(SynthWorkload, ScratchRegionIsTheMostlyPrivateRegion)
{
    SynthWorkload wl(SynthSpec{});
    EXPECT_TRUE(wl.isPrivAddr(SynthWorkload::kScratchBase));
    EXPECT_FALSE(wl.isPrivAddr(SynthWorkload::kChaseBase));
    EXPECT_FALSE(wl.isPrivAddr(SynthWorkload::kStormBase));
}

// ---------------------------------------------------------------------
// Sweep-level determinism

TEST(SynthSweep, ResultsAreIdenticalAtAnyThreadCount)
{
    const std::vector<SynthSpec> specs = smallSuite();
    const std::vector<tls::SchemeConfig> schemes =
        tls::SchemeConfig::evaluatedSchemes();
    const mem::MachineParams machine = mem::MachineParams::cmp8();

    std::vector<sim::SynthStudy> seq =
        sim::runSynthSweep(specs, schemes, machine, /*threads=*/1);
    std::vector<sim::SynthStudy> par =
        sim::runSynthSweep(specs, schemes, machine, /*threads=*/8);

    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t a = 0; a < seq.size(); ++a) {
        EXPECT_EQ(seq[a].seqTime, par[a].seqTime);
        ASSERT_EQ(seq[a].outcomes.size(), par[a].outcomes.size());
        for (std::size_t s = 0; s < seq[a].outcomes.size(); ++s) {
            const sim::SynthOutcome &x = seq[a].outcomes[s];
            const sim::SynthOutcome &y = par[a].outcomes[s];
            EXPECT_TRUE(x.result == y.result) << x.scheme.name();
            EXPECT_DOUBLE_EQ(x.speedup, y.speedup);
            EXPECT_DOUBLE_EQ(x.bufferCostKb, y.bufferCostKb);
        }
    }
}

TEST(SynthSweep, SpeedupAndCostAreFilledIn)
{
    const std::vector<tls::SchemeConfig> schemes =
        tls::SchemeConfig::evaluatedSchemes();
    SynthSpec spec;
    spec.kind = SynthKind::Reduce;
    spec.tasks = 12;
    spec.footprint = 48;
    spec.conflict = 0.05;
    std::vector<sim::SynthStudy> studies = sim::runSynthSweep(
        {spec}, schemes, mem::MachineParams::numa16(), 1);
    ASSERT_EQ(studies.size(), 1u);
    EXPECT_GT(studies[0].seqTime, 0u);
    ASSERT_EQ(studies[0].outcomes.size(), schemes.size());
    for (const sim::SynthOutcome &out : studies[0].outcomes) {
        EXPECT_GT(out.speedup, 0.0);
        EXPECT_EQ(out.result.committedTasks, spec.tasks);
    }
    // Schemes needing more supports cost more: SingleT Eager needs no
    // dedicated buffering hardware, FMM the most.
    EXPECT_EQ(studies[0].outcomes[0].bufferCostKb, 0.0);
    EXPECT_GT(studies[0].outcomes[6].bufferCostKb,
              studies[0].outcomes[5].bufferCostKb);
}
