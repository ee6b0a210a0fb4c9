/**
 * @file
 * Per-processor overflow area for speculative state (AMM schemes).
 *
 * Follows Prvulovic01: speculative lines displaced from the L2 by
 * capacity or conflicts spill into a special region of local memory
 * instead of stalling the processor. Unlike MHB entries, overflowed
 * versions are live data: they must be found again by readers and by
 * the commit merge, at local-memory latency.
 */

#ifndef TLSIM_MEM_OVERFLOW_AREA_HPP
#define TLSIM_MEM_OVERFLOW_AREA_HPP

#include <cstdint>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "mem/version_tag.hpp"

namespace tlsim::mem {

/**
 * Overflow storage for one processor: the set of (line, version) keys
 * of the spilled lines. Capacity is unbounded (it lives in memory);
 * the cost is latency, charged by the engine.
 */
class OverflowArea
{
  public:
    /** Add a displaced speculative line (no-op if already present). */
    void put(Addr line, VersionTag version);

    /** True if (line, version) is present. */
    bool contains(Addr line, VersionTag version) const;

    /** Remove one entry; returns false if absent. */
    bool remove(Addr line, VersionTag version);

    /** Drop every entry belonging to @p version's producer. */
    void dropTask(TaskId producer);

    /** Current number of entries. */
    std::size_t size() const { return entries_.size(); }

    /** High-water mark of entries (buffer-pressure statistic). */
    std::size_t peakSize() const { return peak_; }

    /** Lifetime number of spills. */
    std::uint64_t totalSpills() const { return spills_; }

    /**
     * Fault injection: treat the area as saturated at @p cap entries
     * (0 disables). Saturation never rejects a spill — overflow space
     * is memory, so capacity pressure can only cost latency; while
     * saturated, the engine charges extra cycles per table consult.
     */
    void setFaultCapacity(std::size_t cap) { fault_cap_ = cap; }

    /** True while the fault capacity is set and exceeded. */
    bool
    faultPressured() const
    {
        return fault_cap_ != 0 && entries_.size() >= fault_cap_;
    }

    /**
     * Cap the table at @p entries live lines (scaled machines bound
     * their overflow tag stores; exceeding them is a loud panic, see
     * MtidTable::limitCapacity). 0 = no cap. Distinct from
     * setFaultCapacity: the fault knob only charges latency, this one
     * bounds the table itself.
     */
    void
    limitCapacity(std::size_t entries)
    {
        entries_.limitCapacity(entries);
    }

    void clear();

  private:
    struct Key {
        Addr line;
        TaskId producer;
        std::uint32_t incarnation;
        bool
        operator==(const Key &o) const
        {
            return line == o.line && producer == o.producer &&
                   incarnation == o.incarnation;
        }
    };
    struct KeyHash {
        std::uint64_t
        operator()(const Key &k) const
        {
            std::uint64_t h = flatHashMix(k.line);
            h = flatHashMix(h ^ std::uint64_t(k.producer));
            return flatHashMix(h ^ k.incarnation);
        }
    };

    FlatSet<Key, KeyHash> entries_;
    std::size_t peak_ = 0;
    std::uint64_t spills_ = 0;
    std::size_t fault_cap_ = 0;
};

} // namespace tlsim::mem

#endif // TLSIM_MEM_OVERFLOW_AREA_HPP
