/**
 * @file
 * Tests for the timing core against a mock memory system: cycle
 * accounting exactness, load-latency hiding, store-buffer
 * backpressure, stall/resume, abort.
 */

#include <gtest/gtest.h>

#include "common/event_queue.hpp"
#include "cpu/core.hpp"

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
    unsigned loads = 0;
    unsigned stores = 0;

    LoadReply
    specLoad(ProcId, Addr, Cycle) override
    {
        ++loads;
        return {loadLatency};
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

struct CoreFixture : ::testing::Test {
    EventQueue eq;
    MockMem mem;
    Listener listener;
    CoreParams params{2.0, 12, 4}; // ipc 2, hide 12, 4-entry buffer
    Core core{0, eq, params, mem, listener};

    void
    SetUp() override
    {
        core.beginSection();
    }

    void
    runTask(std::vector<Op> ops, Cycle dispatch = 0)
    {
        core.startTask(1, std::make_unique<VectorTrace>(std::move(ops)),
                       dispatch);
        eq.run();
    }
};

} // namespace

TEST_F(CoreFixture, ComputeConvertsInstructionsAtIpc)
{
    runTask({Op::compute(100)});
    EXPECT_EQ(listener.finished, 1);
    EXPECT_EQ(core.breakdown().get(CycleKind::Busy), 50u);
    EXPECT_EQ(core.instrsExecuted(), 100u);
}

TEST_F(CoreFixture, DispatchOverheadIsAccounted)
{
    runTask({Op::compute(10)}, 30);
    EXPECT_EQ(core.breakdown().get(CycleKind::DispatchOverhead), 30u);
}

TEST_F(CoreFixture, ShortLoadsAreFullyHidden)
{
    mem.loadLatency = 12; // == hide window
    runTask({Op::compute(20), Op::load(0x100), Op::compute(20)});
    EXPECT_EQ(core.breakdown().get(CycleKind::MemStall), 0u);
    EXPECT_EQ(mem.loads, 1u);
}

TEST_F(CoreFixture, LongLoadsExposeLatencyBeyondHideWindow)
{
    mem.loadLatency = 208;
    runTask({Op::load(0x100)});
    EXPECT_EQ(core.breakdown().get(CycleKind::MemStall), 196u);
}

TEST_F(CoreFixture, StoresAreAbsorbedByTheBuffer)
{
    mem.storeLatency = 100;
    runTask({Op::compute(20), Op::store(0x100), Op::compute(20)});
    // One buffered store never stalls the core mid-task; the drain
    // happens at task end.
    Cycle total = core.breakdown().total();
    EXPECT_EQ(core.breakdown().get(CycleKind::Busy), 20u);
    EXPECT_GT(total, 20u); // the final drain shows up as MemStall
}

TEST_F(CoreFixture, FullStoreBufferBackpressures)
{
    mem.storeLatency = 1000;
    std::vector<Op> ops;
    for (int i = 0; i < 6; ++i)
        ops.push_back(Op::store(Addr(0x100 + 8 * i)));
    runTask(std::move(ops));
    // 4-entry buffer: stores 5 and 6 must wait for slots.
    EXPECT_GT(core.breakdown().get(CycleKind::MemStall), 0u);
    EXPECT_EQ(mem.stores, 6u);
}

TEST_F(CoreFixture, BreakdownSumsToElapsedTime)
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
    core.endSection();
    EXPECT_EQ(core.breakdown().total(), eq.now());
}

TEST_F(CoreFixture, VersionStallSuspendsUntilResumed)
{
    mem.stallNextStore = StoreStall::SecondVersion;
    core.startTask(1,
                   std::make_unique<VectorTrace>(std::vector<Op>{
                       Op::store(0x100), Op::compute(10)}),
                   0);
    eq.run();
    // Core is stuck waiting for the blocking task to commit.
    EXPECT_EQ(core.state(), Core::State::StallStore);
    EXPECT_EQ(listener.finished, 0);

    // 500 cycles later the version commits and the store re-issues.
    eq.schedule(500, [&] { core.resumeStall(); });
    eq.run();
    EXPECT_EQ(listener.finished, 1);
    EXPECT_GE(core.breakdown().get(CycleKind::VersionStall), 500u);
    EXPECT_EQ(mem.stores, 2u); // issue + re-issue
}

TEST_F(CoreFixture, OverflowStallUsesItsOwnBucket)
{
    mem.stallNextStore = StoreStall::Overflow;
    core.startTask(1,
                   std::make_unique<VectorTrace>(
                       std::vector<Op>{Op::store(0x100)}),
                   0);
    eq.run();
    eq.schedule(100, [&] { core.resumeStall(); });
    eq.run();
    EXPECT_GE(core.breakdown().get(CycleKind::OverflowStall), 100u);
}

TEST_F(CoreFixture, AbortMidComputeChargesPartialWork)
{
    core.startTask(1,
                   std::make_unique<VectorTrace>(
                       std::vector<Op>{Op::compute(1000)}),
                   0);
    eq.schedule(100, [&] { core.abortTask(); });
    eq.run();
    EXPECT_TRUE(core.idle());
    EXPECT_EQ(listener.finished, 0);
    EXPECT_EQ(core.breakdown().get(CycleKind::Busy), 100u);
}

TEST_F(CoreFixture, AbortedCoreCanStartANewTask)
{
    core.startTask(1,
                   std::make_unique<VectorTrace>(
                       std::vector<Op>{Op::compute(1000)}),
                   0);
    eq.schedule(50, [&] {
        core.abortTask();
        core.startTask(
            2, std::make_unique<VectorTrace>(
                   std::vector<Op>{Op::compute(10)}),
            0);
    });
    eq.run();
    EXPECT_EQ(listener.finished, 1);
    EXPECT_EQ(listener.last, 2u);
}

TEST_F(CoreFixture, WorkBlockRunsAndCallsBack)
{
    bool done = false;
    core.startWorkBlock(250, CycleKind::CommitWork,
                        [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(core.idle());
    EXPECT_EQ(core.breakdown().get(CycleKind::CommitWork), 250u);
}

TEST_F(CoreFixture, IdleKindBillsWaitingTime)
{
    runTask({Op::compute(20)});
    core.setIdleKind(CycleKind::TokenStall);
    eq.schedule(eq.now() + 300, [&] {
        core.startTask(2,
                       std::make_unique<VectorTrace>(
                           std::vector<Op>{Op::compute(2)}),
                       0);
    });
    eq.run();
    EXPECT_GE(core.breakdown().get(CycleKind::TokenStall), 300u);
}

TEST_F(CoreFixture, SoftwareLogInstructionsBillAsLogOverhead)
{
    mem.extraInstrs = 24;
    runTask({Op::store(0x100)});
    EXPECT_EQ(core.breakdown().get(CycleKind::LogOverhead), 12u);
}

TEST_F(CoreFixture, ZeroEntryStoreBufferActsAsOneEntry)
{
    CoreParams zero = params;
    zero.storeBufEntries = 0;
    Core one_slot{1, eq, zero, mem, listener};
    one_slot.beginSection();
    one_slot.startTask(1,
                       std::make_unique<VectorTrace>(std::vector<Op>{
                           Op::store(0x100), Op::store(0x108),
                           Op::store(0x110)}),
                       0);
    eq.run();
    // One slot, 10-cycle stores: stores 2 and 3 each wait for the
    // previous one, then the last drains.
    EXPECT_EQ(listener.finished, 1);
    EXPECT_EQ(mem.stores, 3u);
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(one_slot.breakdown().get(CycleKind::MemStall), 30u);
}

TEST(StoreBuffer, SlotAndDrainAccounting)
{
    StoreBuffer buf(2);
    EXPECT_EQ(buf.waitForSlot(0), 0u);
    buf.push(100);
    EXPECT_EQ(buf.waitForSlot(0), 0u);
    buf.push(150);
    EXPECT_EQ(buf.waitForSlot(10), 90u); // wait for the 100-completion
    buf.retireUpTo(120);
    EXPECT_EQ(buf.inflight(), 1u);
    EXPECT_EQ(buf.drainTime(120), 30u);
    buf.clear();
    EXPECT_EQ(buf.drainTime(120), 0u);
}
