/**
 * @file
 * Per-task bookkeeping: lifecycle state, speculative footprint, and the
 * timeline data used to draw the paper's wavefront figures.
 */

#ifndef TLSIM_TLS_TASK_HPP
#define TLSIM_TLS_TASK_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "mem/version_tag.hpp"

namespace tlsim::tls {

/** Lifecycle of one speculative task. */
enum class TaskState : std::uint8_t {
    Pending,    ///< not dispatched (or re-queued after a squash)
    Running,    ///< executing on a processor
    Finished,   ///< done executing, still speculative
    Committing, ///< owns the commit token; merge in progress
    Committed   ///< architectural
};

/**
 * The speculative footprint of one execution of a task. It lives only
 * as long as the execution: the engine hands one out at dispatch and
 * takes it back at commit or squash, clearing it but keeping its
 * capacity for the next execution it serves.
 */
struct TaskFootprint {
    /**
     * Lines with a version produced by this execution, each once: a
     * version is created at most once per (line, execution).
     */
    std::vector<Addr> dirtyLines;
    /**
     * Distinct detection words with a read record (dedup for readLog).
     * A read of the execution's own write adds nothing; a predicted
     * read adds its word without a detector record.
     */
    FlatSet<Addr> readWords;
    /**
     * readWords in first-read order. Dropping the execution's read
     * records walks this log, never the set's (recycled) capacity.
     */
    std::vector<Addr> readLog;
    /**
     * Sequential baseline only: distinct words written, and how many of
     * them lie in the workload's mostly-private region. A speculative
     * execution counts both from its versions' write masks at commit.
     */
    FlatSet<Addr> writtenWords;
    std::uint64_t privWords = 0;

    /** Record a read of @p word. @return true on its first read. */
    bool
    noteRead(Addr word)
    {
        if (!readWords.insert(word))
            return false;
        readLog.push_back(word);
        return true;
    }

    void
    clear()
    {
        dirtyLines.clear();
        readWords.clear();
        readLog.clear();
        writtenWords.clear();
        privWords = 0;
    }
};

/**
 * Everything the engine tracks about one task.
 */
struct TaskRecord {
    TaskId id = 0;
    TaskState state = TaskState::Pending;
    ProcId proc = kNoProc;
    /** Bumped at each dispatch; 1 on first execution. */
    std::uint32_t incarnation = 0;
    /** Times squashed. */
    std::uint32_t squashes = 0;

    /** The current execution's footprint; null while pending or
     *  committed. */
    std::unique_ptr<TaskFootprint> footprint;

    /** @name Timeline (last incarnation) */
    ///@{
    Cycle execStart = 0;
    Cycle execEnd = 0;
    Cycle commitStart = 0;
    Cycle commitEnd = 0;
    ///@}

    mem::VersionTag
    tag() const
    {
        return mem::VersionTag{id, incarnation};
    }

    bool
    isSpeculativeState() const
    {
        return state == TaskState::Running || state == TaskState::Finished;
    }
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_TASK_HPP
