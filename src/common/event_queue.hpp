/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The kernel is a deterministic min-heap of (when, sequence) ordered
 * events. Ties at the same cycle fire in scheduling order, which keeps
 * every simulation bit-reproducible for a given seed.
 *
 * Implementation: a 4-ary min-heap of (key, slot) entries over a slab
 * of pooled callback slots. Callbacks are small-buffer-optimized
 * (InlineFunction), so the common schedule() performs no heap
 * allocation; cancellation removes the entry from the heap in
 * O(log n) through the per-slot heap-position index and recycles the
 * slot immediately, so cancelled events occupy no memory until drain
 * (the old kernel's lazy-cancellation `unordered_set` grew without
 * bound). The hot path (schedule / step / cancel) is header-inline;
 * only the cold paths (slab growth, precondition panics) live in the
 * library. See DESIGN.md "Event-kernel internals".
 */

#ifndef TLSIM_COMMON_EVENT_QUEUE_HPP
#define TLSIM_COMMON_EVENT_QUEUE_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "common/inline_function.hpp"
#include "common/types.hpp"

namespace tlsim {

/**
 * Handle used to cancel a scheduled event.
 *
 * Encodes (generation << 32 | slot + 1); 0 is never a valid handle, so
 * callers can use it as a "nothing scheduled" sentinel. A recycled
 * slot bumps its generation, making stale handles harmless.
 */
using EventId = std::uint64_t;

/**
 * Deterministic discrete-event queue.
 */
class EventQueue
{
  public:
    /**
     * Inline capacity of event callbacks. 48 bytes covers every
     * simulator callback (the largest, a core wait, captures `this`
     * plus its continuation lambda by value: 24 bytes); larger
     * callables still work but fall back to one heap allocation.
     */
    static constexpr std::size_t kInlineCallbackBytes = 48;
    using Callback = InlineFunction<kInlineCallbackBytes>;

    EventQueue() = default;

    // Not relocatable: consumers hold nowPtr() for the queue's
    // lifetime.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Cycle now() const { return now_; }

    /**
     * Stable pointer to the simulated clock, for consumers that need
     * to read the time without holding the queue (the tracer binds
     * this for the owning engine's lifetime). Valid as long as this
     * queue is alive.
     */
    const Cycle *nowPtr() const { return &now_; }

    /**
     * Schedule @p fn to run at absolute cycle @p when.
     *
     * @pre when >= now(); enforced — scheduling into the past panics
     * (simulator bug; aborts in every build type).
     * @return a handle that can be passed to cancel().
     */
    template <typename F>
    EventId
    schedule(Cycle when, F &&fn)
    {
        EventId id = scheduleKey(when);
        // Construct directly in the pooled slot — no Callback moves
        // on the schedule fast path.
        slab_[std::uint32_t(id & 0xffffffffu) - 1].fn.emplace(
            std::forward<F>(fn));
        return id;
    }

    /** Schedule @p fn to run @p delta cycles from now. */
    template <typename F>
    EventId
    scheduleIn(Cycle delta, F &&fn)
    {
        return schedule(now_ + delta, std::forward<F>(fn));
    }

    /** Cancel a previously scheduled event. Safe to call twice. */
    void
    cancel(EventId id)
    {
        std::uint32_t encoded = std::uint32_t(id & 0xffffffffu);
        if (encoded == 0 || std::size_t(encoded) > slab_.size())
            return; // never issued
        std::uint32_t slot = encoded - 1;
        if (slab_[slot].gen != std::uint32_t(id >> 32))
            return; // stale: the event already fired or was cancelled
        if (pos_[slot] == kNoSlot)
            return;
        removeAt(pos_[slot]);
        releaseSlot(slot);
    }

    /** True if no live (non-cancelled) events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of live events. */
    std::size_t size() const { return heap_.size(); }

    /**
     * Run events until the queue drains or @p maxCycle is passed.
     *
     * @return the final simulated time.
     */
    Cycle
    run(Cycle maxCycle = kCycleNever)
    {
        while (!heap_.empty() && heap_[0].when() <= maxCycle)
            step();
        return now_;
    }

    /** Pop and execute exactly one event. @return false if empty. */
    bool
    step()
    {
        if (heap_.empty())
            return false;
        std::uint32_t slot = heap_[0].slot;
        now_ = heap_[0].when();
        ++executed_;
        // Move the callback out and recycle the slot *before* running
        // it: the callback may schedule new events (reusing this slot)
        // or destroy captured state.
        Callback fn = std::move(slab_[slot].fn);
        // Root removal: the replacement entry only ever moves down, so
        // skip removeAt's general sift-up pass.
        HeapEntry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            heap_[0] = last;
            pos_[last.slot] = 0;
            siftDown(0);
        }
        releaseSlot(slot);
        fn();
        return true;
    }

    /** Total number of events executed since construction. */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Number of slab entries ever allocated. Bounded by the maximum
     * number of *simultaneously live* events, not by the schedule or
     * cancel count — the regression guard for the old kernel's
     * unbounded cancelled-set growth.
     */
    std::size_t slabCapacity() const { return slab_.size(); }

  private:
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;
    static constexpr std::uint32_t kAry = 4;

    /**
     * Slab entry owning a callback. Ordering keys live in the heap
     * array itself, and heap positions in the dense pos_ array, so
     * sift loops never touch these fat entries.
     */
    struct Slot {
        Callback fn;
        /** Bumped on every recycle; high half of the EventId. */
        std::uint32_t gen = 0;
        /** Free-list link while the slot is unused. */
        std::uint32_t nextFree = kNoSlot;
    };

    /**
     * Lexicographic (when, seq) packed into one 128-bit integer so
     * heap comparisons are a single branchless compare. seq is the
     * monotonic scheduling sequence that breaks same-cycle ties.
     */
    using OrderKey = unsigned __int128;

    static constexpr OrderKey
    makeKey(Cycle when, std::uint64_t seq)
    {
        return (OrderKey(when) << 64) | OrderKey(seq);
    }

    /** Heap element: sort key inline, slot index as payload. */
    struct HeapEntry {
        OrderKey key;
        std::uint32_t slot;

        Cycle when() const { return Cycle(key >> 64); }

        bool
        before(const HeapEntry &other) const
        {
            return key < other.key;
        }
    };

    /** Acquire a slot and enter (when, seq) into the heap; the caller
     *  emplaces the callback into the returned slot. */
    EventId
    scheduleKey(Cycle when)
    {
        if (when < now_)
            schedulePastPanic();
        std::uint32_t slot = acquireSlot();
        std::uint32_t pos = std::uint32_t(heap_.size());
        pos_[slot] = pos;
        heap_.push_back(HeapEntry{makeKey(when, nextSeq_++), slot});
        siftUp(pos);
        return (EventId(slab_[slot].gen) << 32) | EventId(slot + 1);
    }

    std::uint32_t
    acquireSlot()
    {
        if (freeHead_ != kNoSlot) {
            std::uint32_t slot = freeHead_;
            freeHead_ = slab_[slot].nextFree;
            return slot;
        }
        return growSlot();
    }

    void
    releaseSlot(std::uint32_t slot)
    {
        Slot &s = slab_[slot];
        s.fn.reset();
        pos_[slot] = kNoSlot;
        ++s.gen;
        s.nextFree = freeHead_;
        freeHead_ = slot;
    }

    void
    siftUp(std::uint32_t pos)
    {
        HeapEntry moving = heap_[pos];
        while (pos > 0) {
            std::uint32_t par = (pos - 1) / kAry;
            if (!moving.before(heap_[par]))
                break;
            heap_[pos] = heap_[par];
            pos_[heap_[pos].slot] = pos;
            pos = par;
        }
        heap_[pos] = moving;
        pos_[moving.slot] = pos;
    }

    void
    siftDown(std::uint32_t pos)
    {
        HeapEntry moving = heap_[pos];
        const std::uint32_t n = std::uint32_t(heap_.size());
        for (;;) {
            std::uint32_t first = pos * kAry + 1;
            if (first >= n)
                break;
            std::uint32_t last =
                first + kAry <= n ? first + kAry : n;
            std::uint32_t best = first;
            for (std::uint32_t c = first + 1; c < last; ++c) {
                if (heap_[c].before(heap_[best]))
                    best = c;
            }
            if (!heap_[best].before(moving))
                break;
            heap_[pos] = heap_[best];
            pos_[heap_[pos].slot] = pos;
            pos = best;
        }
        heap_[pos] = moving;
        pos_[moving.slot] = pos;
    }

    void
    removeAt(std::uint32_t pos)
    {
        HeapEntry last = heap_.back();
        heap_.pop_back();
        if (pos < heap_.size()) {
            heap_[pos] = last;
            pos_[last.slot] = pos;
            siftDown(pos);
            siftUp(pos_[last.slot]);
        }
    }

    /** Cold path: extend the slab (and pos_) by one slot. */
    std::uint32_t growSlot();
    [[noreturn]] void schedulePastPanic();

    std::vector<Slot> slab_;
    /** Per-slot index into heap_ (kNoSlot while free), kept separate
     *  from the fat slots so sift-loop updates stay cache-dense. */
    std::vector<std::uint32_t> pos_;
    std::vector<HeapEntry> heap_; // 4-ary min-heap by (when, seq)
    std::uint32_t freeHead_ = kNoSlot;
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;
};

} // namespace tlsim

#endif // TLSIM_COMMON_EVENT_QUEUE_HPP
