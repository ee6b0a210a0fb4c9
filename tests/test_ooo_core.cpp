/**
 * @file
 * Tests for the bounded-window out-of-order core against a mock
 * memory system: window fill/drain, MLP overlap, issue-width pacing,
 * LSQ store-to-load forwarding, replay on a remote store, stall and
 * abort behaviour, and cycle-accounting exactness.
 */

#include <gtest/gtest.h>

#include "common/event_queue.hpp"
#include "cpu/ooo_core.hpp"

using namespace tlsim;
using namespace tlsim::cpu;

namespace {

class MockMem : public SpecMemoryIf
{
  public:
    Cycle loadLatency = 2;
    Cycle storeLatency = 10;
    StoreStall stallNextStore = StoreStall::None;
    std::uint32_t extraInstrs = 0;
    unsigned loadIssues = 0;
    unsigned loadRetires = 0;
    unsigned stores = 0;

    LoadReply
    specLoad(ProcId, Addr, Cycle) override
    {
        ADD_FAILURE() << "OoO core must use specLoadIssue";
        return {loadLatency};
    }

    LoadReply
    specLoadIssue(ProcId, Addr, Cycle) override
    {
        ++loadIssues;
        return {loadLatency};
    }

    void
    noteLoadRetire(ProcId, Addr, Cycle) override
    {
        ++loadRetires;
    }

    StoreReply
    specStore(ProcId, Addr, Cycle) override
    {
        ++stores;
        StoreReply r{storeLatency, stallNextStore, extraInstrs};
        stallNextStore = StoreStall::None; // one-shot
        return r;
    }
};

class Listener : public CoreListener
{
  public:
    int finished = 0;
    TaskId last = kNoTask;

    void
    onTaskFinished(ProcId, TaskId task) override
    {
        ++finished;
        last = task;
    }
};

struct OoOCoreFixture : ::testing::Test {
    EventQueue eq;
    MockMem mem;
    Listener listener;
    CoreParams params; // tweak before the first makeCore() call
    std::unique_ptr<OoOCore> core;

    OoOCoreFixture()
    {
        params.ipc = 2.0;
        params.loadHide = 12;
        params.storeBufEntries = 4;
    }

    OoOCore &
    makeCore()
    {
        if (!core) {
            core = std::make_unique<OoOCore>(0, eq, params, mem,
                                             listener);
            core->beginSection();
        }
        return *core;
    }

    void
    runTask(std::vector<Op> ops, Cycle dispatch = 0)
    {
        makeCore().startTask(
            1, std::make_unique<VectorTrace>(std::move(ops)), dispatch);
        eq.run();
    }
};

} // namespace

TEST_F(OoOCoreFixture, ComputeConvertsInstructionsAtIpc)
{
    runTask({Op::compute(100)});
    EXPECT_EQ(listener.finished, 1);
    EXPECT_EQ(core->breakdown().get(CycleKind::Busy), 50u);
    EXPECT_EQ(core->instrsExecuted(), 100u);
}

TEST_F(OoOCoreFixture, IndependentLoadsOverlapUnderMlp)
{
    mem.loadLatency = 100;
    params.maxPendingLoads = 8;
    params.oooIssueWidth = 4;
    std::vector<Op> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(Op::load(Addr(0x1000 + 64 * i)));
    runTask(std::move(ops));
    // 4 issue at cycle 0 and 4 at cycle 1; the misses overlap, so the
    // task takes one memory latency, not eight.
    EXPECT_EQ(eq.now(), 101u);
    EXPECT_EQ(mem.loadIssues, 8u);
    EXPECT_EQ(mem.loadRetires, 8u);
    EXPECT_EQ(core->windowOccupancy(), 0u); // drained
}

TEST_F(OoOCoreFixture, WindowDepthBackpressuresIssue)
{
    mem.loadLatency = 100;
    params.oooWindow = 2;
    std::vector<Op> ops;
    for (int i = 0; i < 4; ++i)
        ops.push_back(Op::load(Addr(0x1000 + 64 * i)));
    runTask(std::move(ops));
    // Two window slots: loads 3 and 4 wait for the first pair to
    // retire at t=100, then complete at t=200.
    EXPECT_EQ(eq.now(), 200u);
    EXPECT_GT(core->breakdown().get(CycleKind::MemStall), 0u);
}

TEST_F(OoOCoreFixture, IssueWidthPacesIndependentLoads)
{
    mem.loadLatency = 100;
    params.oooIssueWidth = 1;
    std::vector<Op> ops;
    for (int i = 0; i < 4; ++i)
        ops.push_back(Op::load(Addr(0x1000 + 64 * i)));
    runTask(std::move(ops));
    // One issue per cycle: the last load issues at t=3 and completes
    // at t=103.
    EXPECT_EQ(eq.now(), 103u);
}

TEST_F(OoOCoreFixture, StoreToLoadForwardingSkipsMemoryAndDetector)
{
    // A head store performs immediately, so the forwarding window
    // only exists while an older in-flight load holds the store
    // unperformed in the LSQ.
    mem.loadLatency = 100;
    runTask({Op::load(0x200), Op::store(0x100), Op::load(0x100)});
    EXPECT_EQ(listener.finished, 1);
    EXPECT_EQ(core->forwards(), 1u);
    // The forwarded load never touches memory and never registers a
    // read: the value is the task's own store.
    EXPECT_EQ(mem.loadIssues, 1u);  // only the 0x200 load
    EXPECT_EQ(mem.loadRetires, 1u); // the forwarded load is skipped
    EXPECT_EQ(mem.stores, 1u);
}

TEST_F(OoOCoreFixture, ForwardingMatchesExactWordOnly)
{
    mem.loadLatency = 100;
    runTask({Op::load(0x200), Op::store(0x100), Op::load(0x108)});
    EXPECT_EQ(core->forwards(), 0u);
    EXPECT_EQ(mem.loadIssues, 2u);
}

TEST_F(OoOCoreFixture, SnoopedStoreReplaysInflightLoad)
{
    mem.loadLatency = 50;
    makeCore().startTask(1,
                         std::make_unique<VectorTrace>(
                             std::vector<Op>{Op::load(0x100)}),
                         0);
    // A remote store hits the word while the load is in flight: the
    // load must re-obtain the data before it may retire.
    eq.schedule(10, [&] { core->snoopStore(0x100); });
    eq.run();
    EXPECT_EQ(core->replays(), 1u);
    EXPECT_EQ(mem.loadIssues, 2u); // issue + replay
    EXPECT_EQ(mem.loadRetires, 1u);
    EXPECT_EQ(eq.now(), 100u); // replay starts when the head reaches it
    EXPECT_EQ(listener.finished, 1);
}

TEST_F(OoOCoreFixture, SnoopToDifferentWordDoesNotReplay)
{
    // 0x100 and 0x300 are 64 words apart: one snoop-filter bucket,
    // different words. A snoop replays only the load of its own word.
    mem.loadLatency = 50;
    makeCore().startTask(1,
                         std::make_unique<VectorTrace>(std::vector<Op>{
                             Op::load(0x100), Op::load(0x300)}),
                         0);
    eq.schedule(5, [&] {
        core->snoopStore(0x108);
        EXPECT_EQ(core->replays(), 0u);
        EXPECT_EQ(core->snoopableLoads(), 2u);
    });
    eq.schedule(10, [&] {
        core->snoopStore(0x300);
        EXPECT_EQ(core->replays(), 1u);
        EXPECT_EQ(core->snoopableLoads(), 1u);
    });
    eq.schedule(20, [&] {
        core->snoopStore(0x100);
        EXPECT_EQ(core->replays(), 2u);
        EXPECT_EQ(core->snoopableLoads(), 0u);
    });
    eq.run();
    EXPECT_EQ(core->replays(), 2u);
    EXPECT_EQ(mem.loadIssues, 4u); // two issues + two replays
    EXPECT_EQ(mem.loadRetires, 2u);
    EXPECT_EQ(core->snoopableLoads(), 0u);
}

TEST_F(OoOCoreFixture, ReissuedLoadReplaysAgainOnASecondSnoop)
{
    mem.loadLatency = 50;
    makeCore().startTask(1,
                         std::make_unique<VectorTrace>(
                             std::vector<Op>{Op::load(0x100)}),
                         0);
    // The first snoop marks the load; it re-issues at the head at
    // t=50 and is in flight again until t=100, when the second snoop
    // must find it.
    eq.schedule(10, [&] { core->snoopStore(0x100); });
    eq.schedule(60, [&] {
        EXPECT_EQ(core->snoopableLoads(), 1u);
        core->snoopStore(0x100);
    });
    eq.run();
    EXPECT_EQ(core->replays(), 2u);
    EXPECT_EQ(mem.loadIssues, 3u); // issue + two replays
    EXPECT_EQ(mem.loadRetires, 1u);
    EXPECT_EQ(eq.now(), 150u);
}

TEST_F(OoOCoreFixture, LsqCapacityBackpressuresStores)
{
    mem.loadLatency = 100;
    params.lsqEntries = 1;
    runTask({Op::load(0x100), Op::store(0x200), Op::store(0x300)});
    // The second store cannot enter the LSQ until the in-flight head
    // load retires and the first store performs.
    EXPECT_EQ(mem.stores, 2u);
    EXPECT_GE(eq.now(), 100u);
    EXPECT_GT(core->breakdown().get(CycleKind::MemStall), 0u);
}

TEST_F(OoOCoreFixture, BreakdownSumsToElapsedTime)
{
    mem.loadLatency = 100;
    mem.storeLatency = 50;
    std::vector<Op> ops;
    for (int i = 0; i < 20; ++i) {
        ops.push_back(Op::compute(30));
        ops.push_back(Op::load(Addr(i * 64)));
        ops.push_back(Op::store(Addr(i * 64)));
    }
    runTask(std::move(ops), 30);
    core->endSection();
    EXPECT_EQ(core->breakdown().total(), eq.now());
}

TEST_F(OoOCoreFixture, VersionStallSuspendsUntilResumed)
{
    mem.stallNextStore = StoreStall::SecondVersion;
    makeCore().startTask(1,
                         std::make_unique<VectorTrace>(std::vector<Op>{
                             Op::store(0x100), Op::compute(10)}),
                         0);
    eq.run();
    // The store performed at retirement and hit a version conflict.
    EXPECT_EQ(core->state(), CoreModel::State::StallStore);
    EXPECT_EQ(listener.finished, 0);

    eq.schedule(500, [&] { core->resumeStall(); });
    eq.run();
    EXPECT_EQ(listener.finished, 1);
    EXPECT_GE(core->breakdown().get(CycleKind::VersionStall), 500u);
    EXPECT_EQ(mem.stores, 2u); // perform + re-perform
}

TEST_F(OoOCoreFixture, SoftwareLogInstructionsBillAsLogOverhead)
{
    mem.extraInstrs = 24;
    runTask({Op::store(0x100)});
    EXPECT_EQ(core->breakdown().get(CycleKind::LogOverhead), 12u);
}

TEST_F(OoOCoreFixture, AbortClearsTheWindow)
{
    mem.loadLatency = 1000;
    makeCore().startTask(1,
                         std::make_unique<VectorTrace>(std::vector<Op>{
                             Op::load(0x100), Op::load(0x200)}),
                         0);
    eq.schedule(100, [&] { core->abortTask(); });
    eq.run();
    EXPECT_TRUE(core->idle());
    EXPECT_EQ(listener.finished, 0);
    EXPECT_EQ(core->windowOccupancy(), 0u);
}

TEST_F(OoOCoreFixture, AbortedCoreCanStartANewTask)
{
    mem.loadLatency = 1000;
    makeCore().startTask(1,
                         std::make_unique<VectorTrace>(
                             std::vector<Op>{Op::load(0x100)}),
                         0);
    eq.schedule(50, [&] {
        core->abortTask();
        core->startTask(2,
                        std::make_unique<VectorTrace>(
                            std::vector<Op>{Op::compute(10)}),
                        0);
    });
    eq.run();
    EXPECT_EQ(listener.finished, 1);
    EXPECT_EQ(listener.last, 2u);
}

TEST_F(OoOCoreFixture, AbortedTasksLoadsAreNotSnooped)
{
    mem.loadLatency = 1000;
    makeCore().startTask(1,
                         std::make_unique<VectorTrace>(std::vector<Op>{
                             Op::load(0x100), Op::load(0x200)}),
                         0);
    eq.schedule(50, [&] {
        core->abortTask();
        core->startTask(2,
                        std::make_unique<VectorTrace>(
                            std::vector<Op>{Op::load(0x300)}),
                        0);
    });
    eq.schedule(60, [&] {
        EXPECT_EQ(core->snoopableLoads(), 1u); // task 2's load only
        core->snoopStore(0x100);
        core->snoopStore(0x200);
    });
    eq.run();
    EXPECT_EQ(core->replays(), 0u);
    EXPECT_EQ(mem.loadIssues, 3u);
    EXPECT_EQ(listener.finished, 1);
    EXPECT_EQ(listener.last, 2u);
    EXPECT_EQ(core->snoopableLoads(), 0u);
}

TEST_F(OoOCoreFixture, ZeroCapacityParamsAreClampedNotDeadlocked)
{
    params.oooWindow = 0;
    params.oooIssueWidth = 0;
    params.maxPendingLoads = 0;
    params.lsqEntries = 0;
    params.storeBufEntries = 0;
    runTask({Op::load(0x100), Op::store(0x100), Op::load(0x200)});
    EXPECT_EQ(listener.finished, 1);
}
