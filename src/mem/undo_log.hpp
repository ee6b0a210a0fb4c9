/**
 * @file
 * Per-processor undo log implementing the Memory-System History Buffer
 * (MHB) of FMM schemes.
 *
 * When a task is about to create its own version of a variable, the
 * most recent earlier version is saved here together with its producer
 * task ID (needed to reconstruct total version order on recovery) and
 * the overwriting task's ID (to find the entries to replay when that
 * task squashes). See Figure 7-(c) of the paper.
 */

#ifndef TLSIM_MEM_UNDO_LOG_HPP
#define TLSIM_MEM_UNDO_LOG_HPP

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "mem/version_tag.hpp"

namespace tlsim::fault {
class FaultPlan;
} // namespace tlsim::fault

namespace tlsim::mem {

/** One MHB record: the overwritten version of one line. */
struct UndoLogEntry {
    Addr line = 0;
    /** Producer of the version that was overwritten. */
    VersionTag oldVersion = VersionTag::arch();
    /** Written-word mask of the overwritten version. */
    std::uint8_t oldMask = 0;
    /** Task whose new version displaced oldVersion (group tag). */
    TaskId overwriting = 0;
};

/**
 * Sequentially-written, per-processor log (ULOG support in Table 1).
 *
 * Entries are grouped by overwriting task so that recovery can replay
 * exactly the squashed tasks' groups in reverse order, and commit can
 * free groups cheaply.
 *
 * Storage is a slab arena: each in-flight task owns a slot in a pool
 * of entry vectors, found through a flat TaskId→slot directory. Commit
 * and recovery return the slot to a free list with its capacity kept,
 * so a processor that has warmed up past its deepest in-flight window
 * appends, commits and recovers without touching the allocator — the
 * node-per-group churn of the previous std::map representation is the
 * exact cost this removes from the access hot path.
 */
class UndoLog
{
  public:
    /** Append a record for @p overwriting task. */
    void append(TaskId overwriting, const UndoLogEntry &entry);

    /** Entries written by @p task, in append order. */
    const std::vector<UndoLogEntry> &entriesOf(TaskId task) const;

    /** Number of entries currently held for @p task. */
    std::size_t countOf(TaskId task) const;

    /** Free a committed task's group (its history is no longer needed). */
    void dropTask(TaskId task);

    /**
     * Move @p task's entries into @p out in *reverse* append order,
     * ready to be replayed by the recovery handler, and free the
     * task's slab slot. @p out is overwritten, not appended to; pass a
     * reused scratch buffer to keep recovery allocation-free.
     */
    void takeForRecovery(TaskId task, std::vector<UndoLogEntry> &out);

    /** Convenience overload returning a fresh vector (tests/benches). */
    std::vector<UndoLogEntry>
    takeForRecovery(TaskId task)
    {
        std::vector<UndoLogEntry> out;
        takeForRecovery(task, out);
        return out;
    }

    /** Total live entries across all groups. */
    std::size_t size() const { return liveEntries_; }

    /** High-water mark of live entries. */
    std::size_t peakSize() const { return peak_; }

    /** Lifetime appended entries. */
    std::uint64_t totalAppends() const { return appends_; }

    /**
     * Fault injection: attach a plan whose undo site is consulted per
     * entry drained by takeForRecovery (nullptr detaches). The extra
     * handler cycles accumulate in lastRecoveryStress() for the engine
     * to fold into the recovery work block.
     */
    void attachFaults(fault::FaultPlan *plan) { faults_ = plan; }

    /** Fault-injected stress cycles of the last takeForRecovery. */
    Cycle lastRecoveryStress() const { return last_stress_; }

    /**
     * Cap the task directory at @p tasks concurrently-logged tasks
     * (the MHB of a scaled machine tracks a bounded in-flight window;
     * exceeding it panics). The slab pool itself still recycles slots
     * — only the directory is a finite hardware structure. 0 = no cap.
     */
    void limitTasks(std::size_t tasks) { slotOf_.limitCapacity(tasks); }

    void clear();

  private:
    std::vector<UndoLogEntry> &groupOf(TaskId task);

    /** In-flight task → index into slabs_. */
    FlatMap<TaskId, std::uint32_t> slotOf_;
    /** Slab pool; retired slots keep their capacity for reuse. */
    std::vector<std::vector<UndoLogEntry>> slabs_;
    /** Retired slot indices awaiting reuse. */
    std::vector<std::uint32_t> freeSlots_;
    std::size_t liveEntries_ = 0;
    std::size_t peak_ = 0;
    std::uint64_t appends_ = 0;
    fault::FaultPlan *faults_ = nullptr;
    Cycle last_stress_ = 0;
};

} // namespace tlsim::mem

#endif // TLSIM_MEM_UNDO_LOG_HPP
