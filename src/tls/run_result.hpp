/**
 * @file
 * Results of one simulated speculative section.
 */

#ifndef TLSIM_TLS_RUN_RESULT_HPP
#define TLSIM_TLS_RUN_RESULT_HPP

#include <cstdint>
#include <vector>

#include "common/fault.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace tlsim::tls {

/** Exec/commit interval of one task (wavefront figures). */
struct TaskTimeline {
    TaskId id = 0;
    ProcId proc = kNoProc;
    Cycle execStart = 0;
    Cycle execEnd = 0;
    Cycle commitStart = 0;
    Cycle commitEnd = 0;
    std::uint32_t squashes = 0;

    bool operator==(const TaskTimeline &) const = default;
};

/**
 * Everything a benchmark needs from one run.
 */
struct RunResult {
    /** Wall-clock of the speculative section, in cycles. */
    Cycle execTime = 0;

    /** Per-processor cycle accounting (sums to execTime each). */
    std::vector<CycleBreakdown> perProc;
    /** Sum across processors. */
    CycleBreakdown total;

    CounterSet counters;

    std::uint64_t committedTasks = 0;
    /** Violation events (each may squash several tasks). */
    std::uint64_t squashEvents = 0;
    /** Task executions thrown away. */
    std::uint64_t tasksSquashed = 0;

    /** Time-weighted average speculative tasks in the system. */
    double avgSpecTasksSystem = 0.0;
    /** ... and per processor (buffered state). */
    double avgSpecTasksPerProc = 0.0;

    /** Mean distinct bytes written per committed task, in KB. */
    double avgWrittenKb = 0.0;
    /** Fraction of written words in the mostly-private region. */
    double privFraction = 0.0;

    /** Mean task commit duration / mean task execution duration. */
    double commitExecRatio = 0.0;

    std::vector<TaskTimeline> timelines;

    /**
     * Order-independent fingerprint of the final committed memory
     * state: a hash over (line, producer, write mask) of the latest
     * committed version of every tracked line, swept in line order.
     * Incarnations are deliberately excluded — a squashed-and-replayed
     * task commits the same data under a higher incarnation. This is
     * the fault-injection correctness oracle: a faulted run must match
     * the fault-free run of the same workload seed exactly.
     */
    std::uint64_t memStateHash = 0;
    /** Number of lines folded into memStateHash. */
    std::uint64_t memStateLines = 0;

    /** Injection tallies (all zero unless a fault plan was active). */
    fault::FaultCounters faults;

    /** Busy fraction of the machine (paper's bar bottoms). */
    double
    busyFraction() const
    {
        Cycle t = total.total();
        return t ? double(total.busy()) / double(t) : 0.0;
    }

    bool operator==(const RunResult &) const = default;
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_RUN_RESULT_HPP
