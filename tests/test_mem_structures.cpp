/**
 * @file
 * Tests for the overflow area, the undo log (MHB), the MTID table and
 * machine parameters.
 */

#include <gtest/gtest.h>

#include "mem/machine_params.hpp"
#include "mem/mtid_table.hpp"
#include "mem/overflow_area.hpp"
#include "mem/undo_log.hpp"

using namespace tlsim;
using namespace tlsim::mem;

TEST(OverflowArea, PutContainsRemove)
{
    OverflowArea area;
    VersionTag v{3, 1};
    area.put(10, v);
    EXPECT_TRUE(area.contains(10, v));
    EXPECT_FALSE(area.contains(10, VersionTag{4, 1}));
    EXPECT_FALSE(area.contains(11, v));
    EXPECT_TRUE(area.remove(10, v));
    EXPECT_FALSE(area.remove(10, v));
    EXPECT_EQ(area.size(), 0u);
}

TEST(OverflowArea, RepeatedPutCountsOneSpill)
{
    OverflowArea area;
    VersionTag v{3, 1};
    area.put(10, v);
    area.put(10, v);
    EXPECT_EQ(area.size(), 1u);
    EXPECT_EQ(area.totalSpills(), 1u);
}

TEST(OverflowArea, DropTaskRemovesAllItsEntries)
{
    OverflowArea area;
    area.put(10, VersionTag{3, 1});
    area.put(11, VersionTag{3, 1});
    area.put(12, VersionTag{4, 1});
    area.dropTask(3);
    EXPECT_EQ(area.size(), 1u);
    EXPECT_TRUE(area.contains(12, VersionTag{4, 1}));
}

TEST(OverflowArea, PeakTracksHighWaterMark)
{
    OverflowArea area;
    area.put(1, VersionTag{1, 1});
    area.put(2, VersionTag{1, 1});
    area.remove(1, VersionTag{1, 1});
    area.put(3, VersionTag{1, 1});
    EXPECT_EQ(area.peakSize(), 2u);
}

TEST(UndoLog, GroupsByOverwritingTask)
{
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{3, 1}, 0x1, 5});
    log.append(5, UndoLogEntry{11, VersionTag{4, 1}, 0x2, 5});
    log.append(6, UndoLogEntry{10, VersionTag{5, 1}, 0x1, 6});
    EXPECT_EQ(log.countOf(5), 2u);
    EXPECT_EQ(log.countOf(6), 1u);
    EXPECT_EQ(log.size(), 3u);
}

TEST(UndoLog, RecoveryReturnsEntriesInReverseOrder)
{
    // FMM recovery replays the MHB in strict reverse order.
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{1, 1}, 0, 5});
    log.append(5, UndoLogEntry{11, VersionTag{2, 1}, 0, 5});
    log.append(5, UndoLogEntry{12, VersionTag{3, 1}, 0, 5});
    auto entries = log.takeForRecovery(5);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].line, 12u);
    EXPECT_EQ(entries[2].line, 10u);
    EXPECT_EQ(log.countOf(5), 0u);
    EXPECT_EQ(log.size(), 0u);
}

TEST(UndoLog, CommitFreesTheGroup)
{
    // "When an instruction commits, its history buffer entry is freed."
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{1, 1}, 0, 5});
    log.dropTask(5);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_TRUE(log.takeForRecovery(5).empty());
    EXPECT_EQ(log.totalAppends(), 1u);
}

TEST(UndoLog, RecoveryDrainsOnlyTheSquashedTasksSlab)
{
    // A squash must replay exactly the squashed task's group; groups
    // of other in-flight tasks stay untouched and the drained slab no
    // longer reports entries.
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{1, 1}, 0x1, 5});
    log.append(6, UndoLogEntry{20, VersionTag{2, 1}, 0x2, 6});
    log.append(5, UndoLogEntry{11, VersionTag{3, 1}, 0x4, 5});
    log.append(7, UndoLogEntry{30, VersionTag{4, 1}, 0x8, 7});

    std::vector<UndoLogEntry> scratch;
    scratch.push_back(UndoLogEntry{99, VersionTag{9, 9}, 0xff, 9});
    log.takeForRecovery(5, scratch); // overwrites, never appends
    ASSERT_EQ(scratch.size(), 2u);
    EXPECT_EQ(scratch[0].line, 11u); // reverse append order
    EXPECT_EQ(scratch[1].line, 10u);

    // Task 5's slab is drained...
    EXPECT_EQ(log.countOf(5), 0u);
    EXPECT_TRUE(log.entriesOf(5).empty());
    // ...while the other tasks' groups are intact, entry for entry.
    EXPECT_EQ(log.size(), 2u);
    ASSERT_EQ(log.countOf(6), 1u);
    ASSERT_EQ(log.countOf(7), 1u);
    EXPECT_EQ(log.entriesOf(6)[0].line, 20u);
    EXPECT_EQ(log.entriesOf(6)[0].oldVersion.producer, 2u);
    EXPECT_EQ(log.entriesOf(7)[0].line, 30u);

    // The by-value overload agrees with the in-place one.
    auto six = log.takeForRecovery(6);
    ASSERT_EQ(six.size(), 1u);
    EXPECT_EQ(six[0].line, 20u);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(log.countOf(7), 1u);
}

TEST(UndoLog, RecycledSlotStartsEmptyForTheNextTask)
{
    // Commit and recovery return slab slots to the free list; a task
    // that later reuses the slot must not see stale entries.
    UndoLog log;
    log.append(5, UndoLogEntry{10, VersionTag{1, 1}, 0, 5});
    log.append(5, UndoLogEntry{11, VersionTag{2, 1}, 0, 5});
    log.dropTask(5);
    log.append(8, UndoLogEntry{40, VersionTag{3, 1}, 0, 8});
    EXPECT_EQ(log.countOf(8), 1u);
    EXPECT_EQ(log.entriesOf(8)[0].line, 40u);
    EXPECT_EQ(log.size(), 1u);

    std::vector<UndoLogEntry> scratch;
    log.takeForRecovery(8, scratch);
    ASSERT_EQ(scratch.size(), 1u);
    log.append(9, UndoLogEntry{50, VersionTag{4, 1}, 0, 9});
    EXPECT_EQ(log.countOf(9), 1u);
    EXPECT_EQ(log.entriesOf(9)[0].line, 50u);
}

TEST(MtidTable, DefaultIsArchitectural)
{
    MtidTable t;
    EXPECT_TRUE(t.versionOf(99).isArch());
}

TEST(MtidTable, AcceptsNewerRejectsOlder)
{
    // Zhang99&T: memory selectively rejects write-backs of earlier
    // versions.
    MtidTable t;
    EXPECT_TRUE(t.writeBack(10, VersionTag{5, 1}));
    EXPECT_FALSE(t.wouldAccept(10, VersionTag{3, 1}));
    EXPECT_FALSE(t.writeBack(10, VersionTag{3, 1}));
    EXPECT_TRUE(t.writeBack(10, VersionTag{7, 1}));
    EXPECT_EQ(t.versionOf(10).producer, 7u);
    EXPECT_EQ(t.accepts(), 2u);
    EXPECT_EQ(t.rejects(), 1u);
}

TEST(MtidTable, ReexecutionIncarnationIsAccepted)
{
    MtidTable t;
    t.writeBack(10, VersionTag{5, 1});
    EXPECT_TRUE(t.wouldAccept(10, VersionTag{5, 2}));
    EXPECT_FALSE(t.wouldAccept(10, VersionTag{5, 0}));
}

TEST(MtidTable, RecoveryRestoreBypassesCheck)
{
    MtidTable t;
    t.writeBack(10, VersionTag{5, 1});
    t.set(10, VersionTag{2, 1}); // recovery restores an older version
    EXPECT_EQ(t.versionOf(10).producer, 2u);
    t.set(10, VersionTag::arch());
    EXPECT_EQ(t.taggedLines(), 0u);
}

TEST(MachineParams, PaperConfigurations)
{
    MachineParams numa = MachineParams::numa16();
    EXPECT_EQ(numa.numProcs, 16u);
    EXPECT_EQ(numa.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(numa.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(numa.latL2, 12u);
    EXPECT_EQ(numa.latRemote3Hop, 291u);

    MachineParams cmp = MachineParams::cmp8();
    EXPECT_EQ(cmp.numProcs, 8u);
    EXPECT_EQ(cmp.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(cmp.latL3, 38u);
    EXPECT_EQ(cmp.latLocalMem, 102u);
    EXPECT_LT(cmp.latL2, numa.latL2);
}

TEST(MachineParams, NumaHomesCoverAllNodesForStridedPages)
{
    // The page-hash must spread power-of-two allocation strides (the
    // regression behind the node-0 hotspot).
    MachineParams numa = MachineParams::numa16();
    std::vector<int> hits(numa.numProcs, 0);
    for (Addr t = 0; t < 256; ++t) {
        Addr line = (Addr(t) << 22) / 64; // 4 MB strided slices
        ++hits[numa.homeOf(line)];
    }
    for (unsigned n = 0; n < numa.numProcs; ++n)
        EXPECT_GT(hits[n], 0) << "node " << n << " never a home";
}

TEST(MachineParams, CmpBanksLineInterleaved)
{
    MachineParams cmp = MachineParams::cmp8();
    EXPECT_EQ(cmp.homeOf(0), 0u);
    EXPECT_EQ(cmp.homeOf(1), 1u);
    EXPECT_EQ(cmp.homeOf(8), 0u);
}
