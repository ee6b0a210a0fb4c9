/**
 * @file
 * Tests for the parallelFor fan-out and the parallel sweep runner's
 * determinism contract: a fixed-seed Figure-9-style sweep must produce
 * byte-identical results at 1, 2 and 8 threads, with the in-order and
 * the out-of-order core.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel_for.hpp"
#include "sim/study.hpp"

using namespace tlsim;

// ---------------------------------------------------------------
// parallelFor fan-out
// ---------------------------------------------------------------

TEST(ParallelFor, VisitsEachIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> visits(100);
        parallelFor(
            100, [&](std::size_t i) { visits[i].fetch_add(1); }, threads);
        for (std::size_t i = 0; i < visits.size(); ++i)
            ASSERT_EQ(visits[i].load(), 1)
                << "i=" << i << " threads=" << threads;
    }
}

TEST(ParallelFor, HandlesEmptyAndSingleRanges)
{
    std::atomic<int> calls{0};
    parallelFor(0, [&](std::size_t) { calls.fetch_add(1); }, 8);
    EXPECT_EQ(calls.load(), 0);
    parallelFor(1, [&](std::size_t) { calls.fetch_add(1); }, 8);
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions)
{
    for (unsigned threads : {1u, 4u}) {
        std::vector<std::atomic<int>> visits(16);
        EXPECT_THROW(parallelFor(
                         16,
                         [&](std::size_t i) {
                             if (i == 5)
                                 throw std::runtime_error("boom");
                             visits[i].fetch_add(1);
                         },
                         threads),
                     std::runtime_error)
            << "threads=" << threads;
        // The other indices still ran: result slots stay consistent.
        for (std::size_t i = 0; i < visits.size(); ++i)
            EXPECT_EQ(visits[i].load(), i == 5 ? 0 : 1)
                << "i=" << i << " threads=" << threads;
        // And the error does not stick to the next call.
        EXPECT_NO_THROW(parallelFor(16, [](std::size_t) {}, threads));
    }
}

TEST(ParallelFor, OneThreadRunsInIndexOrderOnTheCaller)
{
    // The sequential baseline of the determinism contract.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(
        8,
        [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        },
        1);
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, StartsNoMoreWorkersThanIndices)
{
    std::mutex mu;
    std::set<std::thread::id> workers;
    parallelFor(
        3,
        [&](std::size_t) {
            std::lock_guard<std::mutex> lock(mu);
            workers.insert(std::this_thread::get_id());
        },
        64);
    EXPECT_LE(workers.size(), 3u);
}

TEST(ThreadCount, EnvOverrideWins)
{
    ASSERT_EQ(setenv("TLSIM_THREADS", "3", 1), 0);
    EXPECT_EQ(defaultThreadCount(), 3u);
    EXPECT_EQ(resolveThreadCount(0), 3u);
    EXPECT_EQ(resolveThreadCount(7), 7u); // explicit beats env
    EXPECT_EQ(resolveThreadCount(100000), 256u); // capped, like the env
    ASSERT_EQ(setenv("TLSIM_THREADS", "100000", 1), 0);
    EXPECT_EQ(defaultThreadCount(), 256u);
    ASSERT_EQ(setenv("TLSIM_THREADS", "not-a-number", 1), 0);
    EXPECT_GE(defaultThreadCount(), 1u); // garbage falls back
    ASSERT_EQ(unsetenv("TLSIM_THREADS"), 0);
    EXPECT_GE(defaultThreadCount(), 1u);
}

// ---------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------

TEST(PointSeed, IsPureFunctionOfPointIdentity)
{
    tls::SchemeConfig mv_lazy{tls::Separation::MultiTMV,
                              tls::Merging::LazyAMM, false};
    std::uint64_t s1 = sim::derivePointSeed(42, "Tree", mv_lazy, 1);
    std::uint64_t s2 = sim::derivePointSeed(42, "Tree", mv_lazy, 1);
    EXPECT_EQ(s1, s2);
}

TEST(PointSeed, DistinguishesBaseAppAndReplication)
{
    tls::SchemeConfig mv_lazy{tls::Separation::MultiTMV,
                              tls::Merging::LazyAMM, false};
    std::set<std::uint64_t> seeds;
    seeds.insert(sim::derivePointSeed(42, "Tree", mv_lazy, 0));
    seeds.insert(sim::derivePointSeed(43, "Tree", mv_lazy, 0));
    seeds.insert(sim::derivePointSeed(42, "Bdna", mv_lazy, 0));
    seeds.insert(sim::derivePointSeed(42, "Tree", mv_lazy, 1));
    EXPECT_EQ(seeds.size(), 4u);
}

TEST(PointSeed, SchemesOfOneReplicationShareTheWorkloadDraw)
{
    // Paired comparison: the paper's figures run every scheme on the
    // same application workload, so the scheme must not perturb the
    // seed.
    tls::SchemeConfig mv_lazy{tls::Separation::MultiTMV,
                              tls::Merging::LazyAMM, false};
    tls::SchemeConfig st_eager{tls::Separation::SingleT,
                               tls::Merging::EagerAMM, false};
    EXPECT_EQ(sim::derivePointSeed(42, "Tree", mv_lazy, 1),
              sim::derivePointSeed(42, "Tree", st_eager, 1));
}

// ---------------------------------------------------------------
// Sweep determinism across thread counts
// ---------------------------------------------------------------

namespace {

/** Small but non-trivial Figure-9-style sweep: two apps, the eager/
 *  lazy x separation grid, replicated. */
std::vector<sim::AppStudy>
miniFigure9(unsigned threads, const mem::MachineParams &machine)
{
    apps::AppParams tree = apps::tree();
    tree.numTasks = 32;
    tree.instrPerTask = 2500;
    apps::AppParams euler = apps::euler();
    euler.numTasks = 32;
    euler.instrPerTask = 2500;

    std::vector<tls::SchemeConfig> schemes = {
        {tls::Separation::SingleT, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTSV, tls::Merging::LazyAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::LazyAMM, false},
    };
    return sim::runStudySweep({tree, euler}, schemes, machine, 2, threads);
}

} // namespace

TEST(ParallelStudy, ByteIdenticalAcrossThreadCounts)
{
    // The OoO core snoops remote cores synchronously on every
    // speculative store, so it gets its own pass over the contract.
    mem::MachineParams ooo = mem::MachineParams::numa16();
    ooo.coreModel = mem::CoreModelKind::OutOfOrder;
    for (const mem::MachineParams &machine :
         {mem::MachineParams::numa16(), ooo}) {
        SCOPED_TRACE(machine.coreModel == mem::CoreModelKind::OutOfOrder
                         ? "ooo"
                         : "inorder");
        std::vector<sim::AppStudy> base = miniFigure9(1, machine);
        std::string base_figure = sim::renderFigure("determinism", base);

        for (unsigned threads : {2u, 8u}) {
            std::vector<sim::AppStudy> got = miniFigure9(threads, machine);
            ASSERT_EQ(got.size(), base.size()) << "threads=" << threads;
            for (std::size_t a = 0; a < base.size(); ++a) {
                EXPECT_EQ(got[a].seqTime, base[a].seqTime);
                ASSERT_EQ(got[a].outcomes.size(),
                          base[a].outcomes.size());
                for (std::size_t s = 0; s < base[a].outcomes.size();
                     ++s) {
                    const sim::SchemeOutcome &x = base[a].outcomes[s];
                    const sim::SchemeOutcome &y = got[a].outcomes[s];
                    // Bitwise-equal doubles: summation order is fixed.
                    EXPECT_EQ(x.meanExecTime, y.meanExecTime);
                    EXPECT_EQ(x.meanSquashes, y.meanSquashes);
                    EXPECT_EQ(x.speedup, y.speedup);
                    EXPECT_TRUE(x.result == y.result)
                        << "threads=" << threads << " "
                        << x.scheme.name();
                }
            }
            // The rendered figure table must match byte for byte.
            EXPECT_EQ(sim::renderFigure("determinism", got), base_figure)
                << "threads=" << threads;
        }
    }
}

TEST(ParallelStudy, GoldenFigureIsByteIdentical)
{
    // Golden output captured from the pre-optimization kernel (PR 1
    // seed): the event-kernel / stats / lookup rewrites must keep this
    // figure byte-for-byte. If an *intentional* simulation change
    // lands, re-capture this string and say so in the commit.
    apps::AppParams tree = apps::tree();
    tree.numTasks = 32;
    tree.instrPerTask = 2500;
    std::vector<tls::SchemeConfig> schemes = {
        {tls::Separation::MultiTMV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::LazyAMM, false},
    };
    std::vector<sim::AppStudy> studies = sim::runStudySweep(
        {tree}, schemes, mem::MachineParams::numa16(), 2, 1);
    std::string fig = sim::renderFigure("golden-point", studies);

    const std::string golden =
        "golden-point\n"
        "(execution time normalized to the first scheme; Busy/Stall "
        "split as in the paper's bars; number = speedup over "
        "sequential)\n"
        "\n"
        "App      Scheme               Norm.time  Busy   Stall  "
        "Speedup  Squashes\n"
        "--------------------------------------------------------------"
        "----------\n"
        "Tree     MultiT&MV Eager AMM  1.000      0.058  0.942  1.3    "
        "  0.0\n"
        "         MultiT&MV Lazy AMM   0.227      0.056  0.171  5.7    "
        "  0.0\n"
        "--------------------------------------------------------------"
        "----------\n"
        "Average  MultiT&MV Eager AMM  1.000                             \n"
        "         MultiT&MV Lazy AMM   0.227                             \n";
    EXPECT_EQ(fig, golden);
}

TEST(ParallelStudy, SweepMatchesPerAppStudies)
{
    // runStudySweep is the parallel flattening of runAppStudy per app;
    // outputs must be interchangeable.
    apps::AppParams app = apps::track();
    app.numTasks = 24;
    app.instrPerTask = 2000;
    std::vector<tls::SchemeConfig> schemes = {
        {tls::Separation::MultiTMV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::FMM, false},
    };
    mem::MachineParams machine = mem::MachineParams::cmp8();

    sim::AppStudy single = sim::runAppStudy(app, schemes, machine, 2, 1);
    std::vector<sim::AppStudy> sweep =
        sim::runStudySweep({app}, schemes, machine, 2, 4);
    ASSERT_EQ(sweep.size(), 1u);
    EXPECT_EQ(sweep[0].seqTime, single.seqTime);
    ASSERT_EQ(sweep[0].outcomes.size(), single.outcomes.size());
    for (std::size_t s = 0; s < single.outcomes.size(); ++s) {
        EXPECT_EQ(sweep[0].outcomes[s].meanExecTime,
                  single.outcomes[s].meanExecTime);
        EXPECT_TRUE(sweep[0].outcomes[s].result ==
                    single.outcomes[s].result)
            << single.outcomes[s].scheme.name();
    }
}
