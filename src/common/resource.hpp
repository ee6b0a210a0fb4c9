/**
 * @file
 * Occupancy-based contention model for shared hardware resources.
 */

#ifndef TLSIM_COMMON_RESOURCE_HPP
#define TLSIM_COMMON_RESOURCE_HPP

#include "common/types.hpp"

namespace tlsim {

/**
 * A pipelined hardware unit (cache port, directory bank, memory bank,
 * network link) that can accept one request per @e occupancy window.
 *
 * The model keeps a single "next free" horizon: a request arriving at
 * time t starts service at max(t, nextFree) and holds the unit for its
 * occupancy. The returned queueing delay is added to the requester's
 * zero-load latency. This is the classic approximation used by
 * fast timing simulators: it captures serialization and bursts without
 * modeling individual queue slots.
 */
class Resource
{
  public:
    Resource() = default;

    /**
     * Reserve the unit at @p when for @p occupancy cycles.
     * @return the queueing delay (start - when).
     */
    Cycle
    acquire(Cycle when, Cycle occupancy)
    {
        Cycle start = when > nextFree_ ? when : nextFree_;
        nextFree_ = start + occupancy;
        return start - when;
    }

    /** Earliest time a new request could start service. */
    Cycle nextFree() const { return nextFree_; }

  private:
    Cycle nextFree_ = 0;
};

} // namespace tlsim

#endif // TLSIM_COMMON_RESOURCE_HPP
