/**
 * @file
 * Bounded-window out-of-order timing core (docs/OOO_CORE.md).
 *
 * Memory ops enter a ROB-like window in program order and retire from
 * its head in program order, but loads PERFORM at issue — possibly
 * before older stores, under a relaxed memory order — while stores
 * perform at retirement, so version creation and undo logging keep
 * their program-order discipline. A load/store queue layered on the
 * store buffer supplies store-to-load forwarding and replays in-flight
 * loads when a remote store touches the same word; mis-speculation
 * that survives to retirement is caught by the engine's violation
 * detector through the established squash/recovery path.
 */

#ifndef TLSIM_CPU_OOO_CORE_HPP
#define TLSIM_CPU_OOO_CORE_HPP

#include <array>
#include <deque>

#include "cpu/core_model.hpp"
#include "cpu/store_buffer.hpp"

namespace tlsim::cpu {

/**
 * The out-of-order model. Issue stalls only on structural limits
 * (window depth, MLP cap, LSQ capacity, issue width); a load's
 * latency gates nothing but its own retirement.
 */
class OoOCore : public CoreModel
{
  public:
    OoOCore(ProcId id, EventQueue &eq, const CoreParams &params,
            SpecMemoryIf &mem, CoreListener &listener);

    void resumeStall() override;
    void snoopStore(Addr addr) override;

    /** @name Introspection (tests) */
    ///@{
    std::size_t windowOccupancy() const { return rob_.size(); }
    std::uint64_t forwards() const { return forwards_; }
    std::uint64_t replays() const { return replays_; }
    /** Window loads a remote store could replay, over all buckets. */
    std::uint64_t
    snoopableLoads() const
    {
        std::uint64_t n = 0;
        for (std::uint32_t c : snoopable_)
            n += c;
        return n;
    }
    ///@}

  private:
    /** One memory op in the window (compute paces the front end and
     * never occupies an entry). */
    struct RobEntry {
        Addr addr = 0;
        std::uint32_t seq = 0;    ///< memory-op ordinal this execution
        Cycle completeTime = 0;   ///< loads: when the data is back
        bool isStore = false;
        bool forwarded = false;   ///< load satisfied from the LSQ
        bool needsReissue = false; ///< load must replay at the head
    };

    /** Conflict-word buckets of the snoop filter. */
    static constexpr unsigned kSnoopBuckets = 64;

    std::deque<RobEntry> rob_; ///< issue order; head retires first
    /**
     * Per bucket, the window loads a remote store could replay: issued,
     * not forwarded, not awaiting replay. snoopStore skips the window
     * scan when the store's bucket is empty.
     */
    std::array<std::uint32_t, kSnoopBuckets> snoopable_{};
    StoreBuffer storeBuf_;
    unsigned unperformedStores_ = 0;
    std::uint32_t seq_ = 0;
    std::uint32_t epoch_ = 0; ///< bumps per dispatch (trace packing)
    bool endReached_ = false;
    bool haveFetched_ = false;
    Op fetchedOp_ = Op::end();
    Cycle lastIssueCycle_ = 0;
    unsigned issuedThisCycle_ = 0;
    std::uint64_t forwards_ = 0;
    std::uint64_t replays_ = 0;

    void step() override;
    void resetTaskState() override;
    bool retireReady(int &inline_budget);
    bool performHeadStore();
    void issueLoadEntry(Addr addr);
    void issueStoreEntry(Addr addr);
    Cycle issueBlockedUntil(bool is_store) const;
    unsigned pendingLoads(Cycle now) const;
    void noteIssueSlot();

    std::uint32_t &
    snoopable(Addr addr)
    {
        return snoopable_[(addr >> params_.conflictShift) &
                          (kSnoopBuckets - 1)];
    }
};

} // namespace tlsim::cpu

#endif // TLSIM_CPU_OOO_CORE_HPP
