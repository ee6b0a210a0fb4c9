/**
 * @file
 * Small store buffer: stores retire in the background; the core only
 * stalls when all entries are in flight.
 */

#ifndef TLSIM_CPU_STORE_BUFFER_HPP
#define TLSIM_CPU_STORE_BUFFER_HPP

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace tlsim::cpu {

/**
 * Tracks completion times of in-flight stores.
 */
class StoreBuffer
{
  public:
    /** A zero-entry buffer could never take a store; it gets one. */
    explicit StoreBuffer(unsigned entries)
        : capacity_(std::max(1u, entries))
    {
    }

    /** Drop entries that completed by @p now. */
    void
    retireUpTo(Cycle now)
    {
        inflight_.erase(
            std::remove_if(inflight_.begin(), inflight_.end(),
                           [now](Cycle c) { return c <= now; }),
            inflight_.end());
    }

    /**
     * Cycles the core must wait before a slot frees at @p now
     * (0 if a slot is available).
     */
    Cycle
    waitForSlot(Cycle now)
    {
        retireUpTo(now);
        if (inflight_.size() < capacity_)
            return 0;
        Cycle earliest = *std::min_element(inflight_.begin(),
                                           inflight_.end());
        return earliest - now;
    }

    /** Insert a store completing at @p completion. @pre slot free. */
    void push(Cycle completion) { inflight_.push_back(completion); }

    /** Cycles until all current entries drain (0 if empty). */
    Cycle
    drainTime(Cycle now)
    {
        retireUpTo(now);
        if (inflight_.empty())
            return 0;
        Cycle latest = *std::max_element(inflight_.begin(),
                                         inflight_.end());
        return latest - now;
    }

    /** Discard every in-flight store (task squash). */
    void clear() { inflight_.clear(); }

    std::size_t inflight() const { return inflight_.size(); }
    unsigned capacity() const { return capacity_; }

  private:
    unsigned capacity_;
    std::vector<Cycle> inflight_;
};

} // namespace tlsim::cpu

#endif // TLSIM_CPU_STORE_BUFFER_HPP
