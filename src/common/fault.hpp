/**
 * @file
 * Deterministic fault-injection subsystem.
 *
 * The paper's schemes differ most under stress — squash storms
 * (Euler), overflow-area pressure (P3m), long commit tails — but the
 * calibrated workloads only reach those regimes incidentally. A
 * FaultPlan pushes every scheme into them on demand: seeded,
 * reproducible fault schedules injected at the layers that can
 * plausibly fail or saturate (NoC links, the overflow area, the MHB
 * recovery path, the violation detector, the commit token).
 *
 * Determinism contract: a plan is a pure function of its FaultSpec.
 * Each injection site draws from its own RNG stream forked from the
 * spec seed (the same identity-hash seeding the sweep runner uses for
 * workloads), and every plan instance is owned by exactly one engine,
 * so fault schedules are byte-reproducible at any `--threads` count.
 *
 * Time-only contract: faults may delay, retry, displace or squash —
 * they must never corrupt state. Anything a fault forces must be
 * recoverable by the protocol being simulated; the final memory state
 * of a faulted run is byte-identical to the fault-free run of the
 * same workload seed (RunResult::memStateHash), and recorded traces
 * still pass `bench_inspect --audit`. bench_soak asserts both.
 */

#ifndef TLSIM_COMMON_FAULT_HPP
#define TLSIM_COMMON_FAULT_HPP

#include <cstdint>
#include <string>
#include <string_view>

#include "common/resource.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace tlsim::fault {

/**
 * A parsed fault schedule: per-site rates and magnitudes.
 *
 * Spec grammar (comma-separated `key=value` items, all optional):
 *
 *   seed=N            base seed of the per-site RNG streams
 *   noc-delay=P[:C]   per link hop: chance P of C extra cycles
 *   noc-stall=P[:C[:R]]  per link hop: chance P of a transient link
 *                     stall; the message retries with exponential
 *                     backoff starting at C cycles, at most R attempts,
 *                     re-reserving the link each retry
 *   spill=P           per new speculative version: chance P that it is
 *                     displaced out of the L2 immediately (forced
 *                     overflow-area / FMM-write-back pressure)
 *   ovf-cap=N[:C]     overflow area counts as saturated at >= N
 *                     entries; while saturated, every overflow-table
 *                     consult costs C extra cycles
 *   undo=P[:C]        per MHB entry drained for recovery: chance P of
 *                     C extra handler cycles (log-region stress)
 *   squash=P[:N]      per speculative store: chance P of a spurious
 *                     violation squashing the store's successors, at
 *                     most N per run (0 = unbounded). A budget is
 *                     essential for FMM runs: spurious squashes fire
 *                     per store, re-executed stores draw again, and
 *                     FMM's serialized recovery makes that feedback
 *                     loop explode without a cap
 *   commit-squash=P[:N]  per commit-token handoff: chance P of a
 *                     squash arriving while the commit is still in
 *                     flight, at most N per run (0 = unbounded)
 *
 * Example: `seed=7,squash=0.002,noc-delay=0.02:12,spill=0.05`.
 * All rates default to zero: an empty spec (or one that only sets
 * `seed`) is a true no-op — byte-identical output to no spec at all.
 */
struct FaultSpec {
    std::uint64_t seed = 0x5eedULL;

    /** @name NoC faults (mesh links / crossbar ports) */
    ///@{
    double nocDelayProb = 0.0;
    Cycle nocDelayCycles = 20;
    double nocStallProb = 0.0;
    Cycle nocStallCycles = 100;
    unsigned nocRetryMax = 4;
    ///@}

    /** @name Memory-system faults (overflow area, MHB) */
    ///@{
    double spillProb = 0.0;
    std::size_t overflowCap = 0;
    Cycle overflowPressureCycles = 70;
    double undoStressProb = 0.0;
    Cycle undoStressCycles = 55;
    ///@}

    /** @name TLS-protocol faults (violations, commit token) */
    ///@{
    double squashProb = 0.0;
    /** Injection budget per run; 0 = unbounded. */
    std::uint64_t squashMax = 0;
    double commitSquashProb = 0.0;
    std::uint64_t commitSquashMax = 0;
    ///@}

    bool
    nocEnabled() const
    {
        return nocDelayProb > 0.0 || nocStallProb > 0.0;
    }

    /** True if any site can ever fire (seed alone does not count). */
    bool
    anyEnabled() const
    {
        return nocEnabled() || spillProb > 0.0 || overflowCap > 0 ||
               undoStressProb > 0.0 || squashProb > 0.0 ||
               commitSquashProb > 0.0;
    }

    /**
     * Parse a spec string (grammar above). Returns false and leaves
     * @p out untouched on error (message in @p err if given).
     */
    static bool parse(std::string_view spec, FaultSpec *out,
                      std::string *err = nullptr);

    /** Render every field as a spec string; parses back to *this. */
    std::string canonical() const;

    bool operator==(const FaultSpec &) const = default;
};

/**
 * Fold a sweep point's identity seed into a spec seed, so every point
 * of a sweep draws an independent fault schedule while staying a pure
 * function of (spec, point) — same discipline as derivePointSeed.
 */
inline std::uint64_t
deriveFaultSeed(std::uint64_t spec_seed, std::uint64_t identity_seed)
{
    std::uint64_t state = spec_seed;
    state = identity_seed ^ splitmix64(state);
    return splitmix64(state);
}

/** Injection tallies of one plan (reported via RunResult). */
struct FaultCounters {
    std::uint64_t nocDelays = 0;
    std::uint64_t nocStalls = 0;
    std::uint64_t nocRetries = 0;
    std::uint64_t forcedSpills = 0;
    std::uint64_t overflowPressure = 0;
    std::uint64_t undoStressEvents = 0;
    std::uint64_t undoStressCycles = 0;
    std::uint64_t spuriousSquashes = 0;
    std::uint64_t commitSquashes = 0;

    /** Injections across every site (pressure hits included). */
    std::uint64_t
    total() const
    {
        return nocDelays + nocStalls + forcedSpills + overflowPressure +
               undoStressEvents + spuriousSquashes + commitSquashes;
    }

    /** Add every counter of @p o (totals across runs). */
    FaultCounters &
    operator+=(const FaultCounters &o)
    {
        nocDelays += o.nocDelays;
        nocStalls += o.nocStalls;
        nocRetries += o.nocRetries;
        forcedSpills += o.forcedSpills;
        overflowPressure += o.overflowPressure;
        undoStressEvents += o.undoStressEvents;
        undoStressCycles += o.undoStressCycles;
        spuriousSquashes += o.spuriousSquashes;
        commitSquashes += o.commitSquashes;
        return *this;
    }

    bool operator==(const FaultCounters &) const = default;
};

/**
 * The runtime injector: one per engine, never shared across threads.
 *
 * Each site owns an RNG stream forked from the spec seed, so the
 * schedule at one site is independent of how often the other sites
 * are consulted. A site whose rate is zero never draws — attaching a
 * plan with some sites disabled leaves those sites bit-exact no-ops.
 */
class FaultPlan
{
  public:
    /** Inert plan: every query is false/zero, nothing ever draws. */
    FaultPlan() = default;

    explicit FaultPlan(const FaultSpec &spec);

    /** True if any site can fire. */
    bool active() const { return active_; }

    /** True if the NoC sites can fire (gates attachFaults). */
    bool nocActive() const { return active_ && spec_.nocEnabled(); }

    /**
     * NoC per-hop fault: extra delay and/or a transient stall with
     * bounded retry/backoff. Each retry re-reserves @p link (backoff
     * happens at the resource layer, so later traffic queues behind
     * the retries). @return extra cycles for this hop.
     */
    Cycle nocLinkFault(Resource &link, Cycle when);

    /** Memory: force the just-created version out of the L2 now? */
    bool forceSpill();

    /** Memory: fault-forced overflow capacity (0 = unlimited). */
    std::size_t overflowFaultCapacity() const
    {
        return active_ ? spec_.overflowCap : 0;
    }

    /** Memory: penalty cycles for one saturated-table consult. */
    Cycle overflowPressurePenalty();

    /** Memory: extra MHB-recovery cycles for draining @p entries. */
    Cycle undoRecoveryStress(std::size_t entries);

    /** TLS: inject a spurious violation at this store? */
    bool spuriousViolation();

    /** TLS: land a squash while this commit token is held? */
    bool commitTokenSquash();

    const FaultSpec &spec() const { return spec_; }
    const FaultCounters &counters() const { return counters_; }

  private:
    /** Per-site RNG stream indices. */
    enum Site {
        kNocDelay,
        kNocStall,
        kSpill,
        kUndo,
        kSquash,
        kCommitSquash,
        kNumSites
    };

    FaultSpec spec_;
    bool active_ = false;
    Rng rng_[kNumSites];
    FaultCounters counters_;
};

} // namespace tlsim::fault

#endif // TLSIM_COMMON_FAULT_HPP
