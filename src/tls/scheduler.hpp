/**
 * @file
 * Dynamic task scheduler: free processors grab the lowest-ID pending
 * task (greedy dynamic chunk scheduling, as in the paper's runs).
 */

#ifndef TLSIM_TLS_SCHEDULER_HPP
#define TLSIM_TLS_SCHEDULER_HPP

#include <queue>
#include <vector>

#include "common/types.hpp"

namespace tlsim::tls {

/**
 * Min-heap of pending task IDs. Squashed tasks are re-queued and,
 * being the lowest IDs, are naturally re-dispatched first.
 */
class TaskScheduler
{
  public:
    /** Populate with tasks 1..n. */
    void
    init(TaskId n)
    {
        pending_ = {};
        for (TaskId t = 1; t <= n; ++t)
            pending_.push(t);
    }

    bool empty() const { return pending_.empty(); }

    /** Remove and return the lowest pending task. @pre !empty(). */
    TaskId
    take()
    {
        TaskId t = pending_.top();
        pending_.pop();
        return t;
    }

    /** Put a squashed task back. */
    void requeue(TaskId t) { pending_.push(t); }

    std::size_t size() const { return pending_.size(); }

  private:
    std::priority_queue<TaskId, std::vector<TaskId>,
                        std::greater<TaskId>>
        pending_;
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_SCHEDULER_HPP
