/**
 * @file
 * Corner paths of the protocol: FMM displacement and refetch, MTID
 * rejection, VCL on external requests, overflow refetch, remote
 * version supply, the non-speculative write-through escape.
 */

#include <gtest/gtest.h>

#include "tls/engine.hpp"
#include "tls/scripted_workload.hpp"

using namespace tlsim;
using namespace tlsim::tls;
using cpu::Op;

namespace {

mem::MachineParams
tinyL2Numa()
{
    mem::MachineParams m = mem::MachineParams::numa16();
    m.l2 = mem::CacheGeometry::of(16 * 64 * 2, 2); // 16 sets, 2-way
    m.l1 = mem::CacheGeometry::of(4 * 64 * 2, 2);
    return m;
}

RunResult
runCfg(std::vector<std::vector<Op>> tasks, SchemeConfig scheme,
       mem::MachineParams machine)
{
    ScriptedWorkload wl(std::move(tasks));
    EngineConfig cfg;
    cfg.scheme = scheme;
    cfg.machine = machine;
    SpeculationEngine engine(cfg, wl);
    return engine.run();
}

} // namespace

TEST(EngineCorners, FmmDisplacesSpeculativeLinesToMemory)
{
    // A task writing far more lines than the tiny L2 holds: under FMM
    // the displaced speculative lines are written back to memory
    // (MTID) instead of an overflow area.
    std::vector<Op> ops;
    for (int w = 0; w < 128; ++w)
        ops.push_back(Op::store(0x4000'0000 + Addr(w) * 64));
    ops.push_back(Op::compute(1000));
    RunResult res = runCfg(
        {ops}, SchemeConfig::make(Separation::MultiTMV, Merging::FMM),
        tinyL2Numa());
    EXPECT_GT(res.counters.get("fmm_writebacks"), 0u);
    EXPECT_EQ(res.counters.get("overflow_spills"), 0u);
    EXPECT_EQ(res.committedTasks, 1u);
}

TEST(EngineCorners, FmmRefetchesItsOwnDisplacedVersion)
{
    // Write a long stream, then write the first lines again: the
    // task's own versions were displaced to memory and must come back.
    std::vector<Op> ops;
    for (int w = 0; w < 128; ++w)
        ops.push_back(Op::store(0x4000'0000 + Addr(w) * 64));
    for (int w = 0; w < 8; ++w)
        ops.push_back(Op::store(0x4000'0000 + Addr(w) * 64 + 8));
    RunResult res = runCfg(
        {ops}, SchemeConfig::make(Separation::MultiTMV, Merging::FMM),
        tinyL2Numa());
    EXPECT_GT(res.counters.get("fmm_refetches"), 0u);
}

TEST(EngineCorners, AmmSpillsAndRefetchesViaOverflowArea)
{
    std::vector<Op> ops;
    for (int w = 0; w < 128; ++w)
        ops.push_back(Op::store(0x4000'0000 + Addr(w) * 64));
    for (int w = 0; w < 8; ++w)
        ops.push_back(Op::store(0x4000'0000 + Addr(w) * 64 + 8));
    RunResult res = runCfg(
        {ops},
        SchemeConfig::make(Separation::MultiTMV, Merging::EagerAMM),
        tinyL2Numa());
    EXPECT_GT(res.counters.get("overflow_spills"), 0u);
    EXPECT_GT(res.counters.get("overflow_refetches"), 0u);
    // Commit has to pull the remaining spilled lines back.
    EXPECT_GT(res.counters.get("commit_overflow_fetches"), 0u);
}

TEST(EngineCorners, ConsumersFetchVersionsFromRemoteCaches)
{
    // Task 1 writes a value another task reads in order (after 1
    // commits under Lazy, the data is still in task 1's cache: the
    // read is serviced cache-to-cache and triggers a VCL merge).
    std::vector<std::vector<Op>> tasks;
    tasks.push_back({Op::store(0x9000'0000), Op::compute(400)});
    for (int t = 0; t < 14; ++t)
        tasks.push_back({Op::compute(6000)});
    tasks.push_back({Op::compute(20'000), Op::load(0x9000'0000),
                     Op::compute(100)});
    RunResult res = runCfg(
        tasks,
        SchemeConfig::make(Separation::MultiTMV, Merging::LazyAMM),
        mem::MachineParams::numa16());
    EXPECT_EQ(res.squashEvents, 0u);
    EXPECT_GT(res.counters.get("remote_cache_fetches"), 0u);
    EXPECT_GT(res.counters.get("vcl_writebacks"), 0u);
}

TEST(EngineCorners, EagerMergedVersionsAreReadFromMemory)
{
    std::vector<std::vector<Op>> tasks;
    tasks.push_back({Op::store(0x9000'0000), Op::compute(400)});
    for (int t = 0; t < 14; ++t)
        tasks.push_back({Op::compute(6000)});
    tasks.push_back({Op::compute(40'000), Op::load(0x9000'0000)});
    RunResult res = runCfg(
        tasks,
        SchemeConfig::make(Separation::MultiTMV, Merging::EagerAMM),
        mem::MachineParams::numa16());
    EXPECT_EQ(res.squashEvents, 0u);
    // The producer's version merged at commit; the late read must hit
    // memory, not a cache-to-cache transfer.
    EXPECT_GT(res.counters.get("memory_fetches"), 0u);
}

TEST(EngineCorners, SpeculativeReadersGetInFlightVersions)
{
    // The consumer reads while the producer is still speculative: the
    // version must be supplied from the producer's cache (a 3-hop
    // fetch), not from memory.
    std::vector<std::vector<Op>> tasks;
    tasks.push_back(
        {Op::store(0x9000'0000), Op::compute(60'000)}); // stays spec
    tasks.push_back({Op::compute(20'000), Op::load(0x9000'0000),
                     Op::compute(100)});
    RunResult res = runCfg(
        tasks,
        SchemeConfig::make(Separation::MultiTMV, Merging::EagerAMM),
        mem::MachineParams::numa16());
    EXPECT_EQ(res.squashEvents, 0u); // in-order RAW
    EXPECT_GT(res.counters.get("remote_cache_fetches"), 0u);
}

TEST(EngineCorners, WriteThroughForNonSpeculativeTaskWithoutOverflow)
{
    // No overflow area + a non-speculative task overflowing its L2:
    // the head task may update memory directly instead of stalling
    // forever.
    mem::MachineParams m = tinyL2Numa();
    m.overflowArea = false;
    std::vector<Op> ops;
    for (int w = 0; w < 128; ++w)
        ops.push_back(Op::store(0x4000'0000 + Addr(w) * 64));
    RunResult res = runCfg(
        {ops},
        SchemeConfig::make(Separation::MultiTMV, Merging::EagerAMM),
        m);
    EXPECT_EQ(res.committedTasks, 1u);
    EXPECT_GT(res.counters.get("nonspec_writethroughs"), 0u);
}

TEST(EngineCorners, LazyFinalMergeSweepsAWrittenThroughVersionThatLostMemory)
{
    // Task 2 (proc 1) pins its L2 set with two versions, so its store
    // to line L writes through to memory; its next store to L refetches
    // the version, which is then both in memory and cache-owned. Task 3
    // (proc 0, after task 1) writes L later. The final merge sweeps
    // proc 0 first: task 3's version takes the memory slot from task
    // 2's, which proc 1's sweep must then retire like any other.
    mem::MachineParams m = tinyL2Numa();
    m.overflowArea = false;
    m.numProcs = 2;
    const Addr x = 0x4000'0000;      // L2 set 0
    const Addr l = x + 2 * 16 * 64; // L2 set 0 too
    std::vector<std::vector<Op>> tasks = {
        {Op::compute(100)},
        {Op::compute(5000), Op::store(x), Op::store(x + 16 * 64),
         Op::store(l), Op::store(l + 8)},
        {Op::compute(20'000), Op::store(l + 16)},
    };
    RunResult res = runCfg(
        tasks, SchemeConfig::make(Separation::MultiTMV, Merging::LazyAMM),
        m);
    EXPECT_EQ(res.committedTasks, 3u);
    EXPECT_EQ(res.counters.get("nonspec_writethroughs"), 1u);
    // Both of task 2's pinned versions, both versions of L.
    EXPECT_EQ(res.counters.get("final_merge_lines"), 4u);
}

TEST(EngineCorners, SingleInstructionTasksWork)
{
    std::vector<std::vector<Op>> tasks(8, {Op::compute(1)});
    RunResult res = runCfg(
        tasks,
        SchemeConfig::make(Separation::SingleT, Merging::EagerAMM),
        mem::MachineParams::numa16());
    EXPECT_EQ(res.committedTasks, 8u);
}

TEST(EngineCorners, EmptyTaskTracesCommitToo)
{
    std::vector<std::vector<Op>> tasks(4);
    RunResult res = runCfg(
        tasks,
        SchemeConfig::make(Separation::MultiTMV, Merging::LazyAMM),
        mem::MachineParams::cmp8());
    EXPECT_EQ(res.committedTasks, 4u);
}

TEST(EngineCorners, RereadsOfOwnVersionHitTheL1)
{
    std::vector<Op> ops;
    ops.push_back(Op::store(0x4000'0000));
    for (int i = 0; i < 50; ++i)
        ops.push_back(Op::load(0x4000'0000));
    RunResult res = runCfg(
        {ops},
        SchemeConfig::make(Separation::MultiTMV, Merging::EagerAMM),
        mem::MachineParams::numa16());
    EXPECT_GE(res.counters.get("l1_hits"), 49u);
}
