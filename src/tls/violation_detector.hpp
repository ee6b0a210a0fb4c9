/**
 * @file
 * Word-granularity detection of out-of-order RAW dependences.
 *
 * The paper's base protocol (after Prvulovic01) marks speculatively
 * read words and squashes on an out-of-order RAW to the same word.
 * This module is the simulator's exact-answer version of that
 * distributed machinery; the engine charges directory latencies for
 * the checks it represents.
 */

#ifndef TLSIM_TLS_VIOLATION_DETECTOR_HPP
#define TLSIM_TLS_VIOLATION_DETECTOR_HPP

#include <cstdint>
#include <vector>

#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"

namespace tlsim::tls {

/**
 * Per-word read records with the version each reader observed.
 */
class ViolationDetector
{
  public:
    /**
     * Record that @p reader consumed @p word, observing the version
     * produced by @p observed (0 = architectural). Call once per
     * (task, word); the engine dedups via the task's read set.
     */
    void noteRead(Addr word, TaskId reader, TaskId observed);

    /**
     * A store by @p writer to @p word: find the lowest-ID reader that
     * must squash (read the word, is later than the writer, and
     * observed a version older than the writer's).
     *
     * @return the reader task ID, or kNoTask if no violation.
     */
    TaskId checkWrite(Addr word, TaskId writer) const;

    /**
     * Forget @p reader's records for the given words (squash requeue
     * or commit; the engine passes the execution's read log). Cost is
     * one probe per listed word.
     */
    void dropReader(TaskId reader, const std::vector<Addr> &words);

    std::uint64_t recordsLive() const { return records_; }

    void clear();

  private:
    struct ReadRecord {
        TaskId reader;
        TaskId observed;
    };

    /** Most words have 1-2 concurrent readers: keep them inline. */
    FlatMap<Addr, SmallVec<ReadRecord, 2>> byWord_;
    std::uint64_t records_ = 0;
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_VIOLATION_DETECTOR_HPP
