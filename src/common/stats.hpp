/**
 * @file
 * Statistics primitives: counters and the per-processor cycle
 * breakdown used to render the paper's Busy/Stall bars.
 */

#ifndef TLSIM_COMMON_STATS_HPP
#define TLSIM_COMMON_STATS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tlsim {

/**
 * Where a processor's cycles went.
 *
 * The paper reports two buckets (Busy and Stall); we keep finer-grained
 * categories and fold them down when rendering figures. Categories are
 * mutually exclusive: every simulated processor cycle lands in exactly
 * one.
 */
enum class CycleKind : std::uint8_t {
    /** Instruction execution and non-memory pipeline hazards. */
    Busy,
    /** Extra instructions for software MHB logging (FMM.Sw). */
    LogOverhead,
    /** Waiting for loads/stores beyond what the core can overlap. */
    MemStall,
    /** Processor-driven eager commit work (SingleT Eager). */
    CommitWork,
    /** Finished a speculative task, waiting for the commit token. */
    TokenStall,
    /** MultiT&SV stall: second local speculative version requested. */
    VersionStall,
    /** AMM stall: speculative buffer full and overflow unavailable. */
    OverflowStall,
    /** Recovery handler work after a squash (FMM log replay etc). */
    RecoveryWork,
    /** Dynamic task dispatch overhead. */
    DispatchOverhead,
    /** End of speculative section: out of tasks / final merge wait. */
    EndStall,
    NumKinds
};

/** Human-readable short name for a cycle kind. */
const char *cycleKindName(CycleKind kind);

/** Number of cycle kinds as a size_t, for array sizing. */
inline constexpr std::size_t kNumCycleKinds =
    static_cast<std::size_t>(CycleKind::NumKinds);

/**
 * Per-processor cycle accounting.
 *
 * The invariant checked by tests: the sum over all kinds equals the
 * processor's total elapsed cycles inside the speculative section.
 */
class CycleBreakdown
{
  public:
    CycleBreakdown() { bins_.fill(0); }

    void
    add(CycleKind kind, Cycle cycles)
    {
        bins_[static_cast<std::size_t>(kind)] += cycles;
    }

    Cycle
    get(CycleKind kind) const
    {
        return bins_[static_cast<std::size_t>(kind)];
    }

    /** Sum over every category. */
    Cycle total() const;

    /** Paper's "Busy" bucket: Busy + LogOverhead. */
    Cycle busy() const;

    /** Paper's "Stall" bucket: everything that is not Busy. */
    Cycle stall() const { return total() - busy(); }

    /** Accumulate another breakdown into this one. */
    CycleBreakdown &operator+=(const CycleBreakdown &other);

    /** Render as "kind=value" pairs, skipping zero bins. */
    std::string toString() const;

    bool operator==(const CycleBreakdown &) const = default;

  private:
    std::array<Cycle, kNumCycleKinds> bins_;
};

/**
 * Interned counter handle: an index into one CounterSet's entry table.
 *
 * Resolved once (at engine construction) via CounterSet::intern, then
 * used for direct-indexed increments on the access fast path. Ids are
 * only meaningful for the CounterSet that issued them.
 */
using StatId = std::uint32_t;

/**
 * A flat set of named event counters (cache hits, squashes, ...).
 *
 * Hot-path users intern names into StatId handles up front and
 * increment by id (one array index, no string compare). The name-based
 * inc()/get() API remains as a thin wrapper — it does the original
 * linear scan with string compares — for tests, benches and one-off
 * counters, and as the honest baseline the hot-path benchmark measures
 * the interned path against.
 */
class CounterSet
{
  public:
    /**
     * Find-or-create the counter @p name and return its handle.
     * Creation order determines entries() order, exactly as with
     * name-based inc().
     */
    StatId intern(const std::string &name);

    /** Fast path: direct-indexed increment of an interned counter. */
    void
    inc(StatId id, std::uint64_t delta = 1)
    {
        entries_[id].second += delta;
    }

    /** Name-based wrapper: linear scan, find-or-create. */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        find(name) += delta;
    }

    std::uint64_t get(const std::string &name) const;
    std::uint64_t get(StatId id) const { return entries_[id].second; }

    /** All (name, value) pairs in insertion order. */
    const std::vector<std::pair<std::string, std::uint64_t>> &
    entries() const
    {
        return entries_;
    }

    void merge(const CounterSet &other);

    bool operator==(const CounterSet &) const = default;

  private:
    std::uint64_t &find(const std::string &name);

    std::vector<std::pair<std::string, std::uint64_t>> entries_;
};

} // namespace tlsim

#endif // TLSIM_COMMON_STATS_HPP
