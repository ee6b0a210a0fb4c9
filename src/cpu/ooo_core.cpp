#include "cpu/ooo_core.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/trace.hpp"

namespace tlsim::cpu {

namespace {

/** Exact-word key for store-to-load forwarding (ops are 8-byte). */
constexpr unsigned kForwardShift = 3;

} // namespace

OoOCore::OoOCore(ProcId id, EventQueue &eq, const CoreParams &params,
                 SpecMemoryIf &mem, CoreListener &listener)
    : CoreModel(id, eq, params, mem, listener),
      storeBuf_(params.storeBufEntries)
{
    // A zero-capacity structure would deadlock issue forever; clamp.
    params_.oooWindow = std::max(1u, params_.oooWindow);
    params_.oooIssueWidth = std::max(1u, params_.oooIssueWidth);
    params_.maxPendingLoads = std::max(1u, params_.maxPendingLoads);
    params_.lsqEntries = std::max(1u, params_.lsqEntries);
}

void
OoOCore::resetTaskState()
{
    rob_.clear();
    snoopable_.fill(0);
    storeBuf_.clear();
    unperformedStores_ = 0;
    seq_ = 0;
    ++epoch_; // new execution: audit segments the record stream here
    endReached_ = false;
    haveFetched_ = false;
    issuedThisCycle_ = 0;
    lastIssueCycle_ = eq_.now();
}

void
OoOCore::resumeStall()
{
    if (state_ != State::StallStore)
        panic("OoOCore::resumeStall: not stalled");
    breakdown_.add(waitKind_, eq_.now() - waitStart_);
    state_ = State::Running;
    step(); // re-attempts the head store inside retireReady
}

void
OoOCore::snoopStore(Addr addr)
{
    if (snoopable(addr) == 0)
        return; // no load in the window can match this word
    unsigned shift = params_.conflictShift;
    for (RobEntry &e : rob_) {
        if (e.isStore || e.forwarded || e.needsReissue)
            continue;
        if ((e.addr >> shift) == (addr >> shift)) {
            // The load performed early and its word just changed: it
            // must re-obtain the data before it may retire. This is
            // the LSQ half of the safety net; reads that already
            // retired are the violation detector's job.
            e.needsReissue = true;
            --snoopable(e.addr);
            ++replays_;
            TLSIM_TRACE_EVENT(trace::Kind::LsqReplay, id_, task_,
                              e.addr,
                              trace::packCoreArg(false, epoch_, e.seq));
        }
    }
}

unsigned
OoOCore::pendingLoads(Cycle now) const
{
    unsigned n = 0;
    for (const RobEntry &e : rob_)
        if (!e.isStore && (e.completeTime > now || e.needsReissue))
            ++n;
    return n;
}

/**
 * Absolute wake-up time if issuing the next memory op must wait for a
 * structural resource, or 0 when it may issue now. @pre retireReady
 * ran to a fixed point, so a non-empty window's head is a load whose
 * data is still in flight (head stores perform eagerly).
 */
Cycle
OoOCore::issueBlockedUntil(bool is_store) const
{
    Cycle now = eq_.now();
    bool blocked = rob_.size() >= params_.oooWindow;
    if (!blocked && is_store)
        blocked = unperformedStores_ >= params_.lsqEntries;
    if (!blocked && !is_store)
        blocked = pendingLoads(now) >= params_.maxPendingLoads;
    if (!blocked) {
        if (lastIssueCycle_ == now &&
            issuedThisCycle_ >= params_.oooIssueWidth)
            return now + 1; // issue-width throttle
        return 0;
    }
    // Window and LSQ space free through retirement, gated on the head
    // load's completion; the MLP cap frees at the earliest outstanding
    // completion.
    Cycle wake = rob_.front().completeTime;
    if (!is_store) {
        for (const RobEntry &e : rob_)
            if (!e.isStore && e.completeTime > now)
                wake = std::min(wake, e.completeTime);
    }
    return wake;
}

void
OoOCore::noteIssueSlot()
{
    Cycle now = eq_.now();
    if (lastIssueCycle_ != now) {
        lastIssueCycle_ = now;
        issuedThisCycle_ = 0;
    }
    ++issuedThisCycle_;
}

void
OoOCore::issueLoadEntry(Addr addr)
{
    // Store-to-load forwarding: any older unperformed store to the
    // same word supplies the data — the value is the task's own, so
    // no memory access and no read record (nothing crossed tasks).
    bool fwd = false;
    for (auto it = rob_.rbegin(); it != rob_.rend(); ++it) {
        if (it->isStore &&
            (it->addr >> kForwardShift) == (addr >> kForwardShift)) {
            fwd = true;
            break;
        }
    }
    Cycle lat;
    if (fwd) {
        lat = params_.lsqForwardCycles;
        ++forwards_;
    } else {
        lat = mem_.specLoadIssue(id_, addr, eq_.now()).latency;
        ++snoopable(addr);
    }
    RobEntry e;
    e.addr = addr;
    e.seq = seq_;
    e.completeTime = eq_.now() + lat;
    e.forwarded = fwd;
    rob_.push_back(e);
    TLSIM_TRACE_EVENT(trace::Kind::CoreIssue, id_, task_, addr,
                      trace::packCoreArg(false, epoch_, seq_));
    ++seq_;
}

void
OoOCore::issueStoreEntry(Addr addr)
{
    RobEntry e;
    e.addr = addr;
    e.seq = seq_;
    e.isStore = true;
    rob_.push_back(e);
    ++unperformedStores_;
    TLSIM_TRACE_EVENT(trace::Kind::CoreIssue, id_, task_, addr,
                      trace::packCoreArg(true, epoch_, seq_));
    ++seq_;
}

/**
 * Perform the head store at the current time (program-order store
 * performance: version creation and undo logging happen here, with
 * exactly the in-order core's stall/slot/log sequencing).
 *
 * @return true if retirement can continue inline.
 */
bool
OoOCore::performHeadStore()
{
    Addr addr = rob_.front().addr;
    std::uint32_t seq = rob_.front().seq;
    StoreReply reply = mem_.specStore(id_, addr, eq_.now());
    if (state_ != State::Running)
        return false; // defensively: a squash emptied the window
    if (reply.stall != StoreStall::None) {
        state_ = State::StallStore;
        waitStart_ = eq_.now();
        waitKind_ = reply.stall == StoreStall::SecondVersion
                        ? CycleKind::VersionStall
                        : CycleKind::OverflowStall;
        return false;
    }

    Cycle log_cycles = computeCycles(reply.extraLogInstrs);
    Cycle slot_wait = storeBuf_.waitForSlot(eq_.now());
    storeBuf_.push(eq_.now() + slot_wait + log_cycles + reply.latency);
    TLSIM_TRACE_EVENT(trace::Kind::CoreRetire, id_, task_, addr,
                      trace::packCoreArg(true, epoch_, seq));
    rob_.pop_front();
    --unperformedStores_;

    if (slot_wait > 0) {
        wait(slot_wait, CycleKind::MemStall, [this, log_cycles]() {
            if (log_cycles > 0) {
                wait(log_cycles, CycleKind::LogOverhead,
                     [this]() { step(); });
            } else {
                step();
            }
        });
        return false;
    }
    if (log_cycles > 0) {
        wait(log_cycles, CycleKind::LogOverhead, [this]() { step(); });
        return false;
    }
    return true;
}

/**
 * Retire from the head while entries are ready. Loads register their
 * read with the violation detector here — per-retirement bookkeeping
 * under the relaxed order — and replayed loads re-perform before they
 * may retire.
 *
 * @return false when a wait was scheduled or a stall was entered (the
 * caller must return); true when the head is not ready or the window
 * drained (the issue side may proceed).
 */
bool
OoOCore::retireReady(int &inline_budget)
{
    while (!rob_.empty() && inline_budget > 0) {
        RobEntry &e = rob_.front();
        if (!e.isStore) {
            if (e.needsReissue) {
                e.needsReissue = false;
                LoadReply reply =
                    mem_.specLoadIssue(id_, e.addr, eq_.now());
                e.completeTime = eq_.now() + reply.latency;
                ++snoopable(e.addr);
            }
            if (e.completeTime > eq_.now())
                return true; // head in flight; issue may run ahead
            if (!e.forwarded) {
                --snoopable(e.addr);
                mem_.noteLoadRetire(id_, e.addr, eq_.now());
            }
            TLSIM_TRACE_EVENT(trace::Kind::CoreRetire, id_, task_,
                              e.addr,
                              trace::packCoreArg(false, epoch_, e.seq));
            rob_.pop_front();
            --inline_budget;
            continue;
        }
        if (!performHeadStore())
            return false;
        --inline_budget;
    }
    return true;
}

void
OoOCore::step()
{
    // Same inline-budget discipline as the in-order core: bound the
    // work per event so simulated time always advances.
    int inline_budget = 64;

    while (state_ == State::Running) {
        if (!retireReady(inline_budget))
            return;
        if (inline_budget <= 0) {
            wait(1, CycleKind::Busy, [this]() { step(); });
            return;
        }
        if (endReached_) {
            if (!rob_.empty()) {
                // retireReady guarantees the head is an in-flight load.
                wait(rob_.front().completeTime - eq_.now(),
                     CycleKind::MemStall, [this]() { step(); });
                return;
            }
            Cycle drain = storeBuf_.drainTime(eq_.now());
            if (drain > 0) {
                wait(drain, CycleKind::MemStall, [this]() { step(); });
                return;
            }
            TaskId done = task_;
            enterIdle();
            listener_.onTaskFinished(id_, done);
            return;
        }
        if (!haveFetched_) {
            fetchedOp_ = trace_->next();
            haveFetched_ = true;
        }
        const Op op = fetchedOp_;
        switch (op.kind) {
          case Op::Kind::Compute: {
            haveFetched_ = false;
            instrs_ += op.instrs;
            Cycle cycles = computeCycles(op.instrs);
            if (cycles == 0) {
                if (--inline_budget > 0)
                    continue;
                cycles = 1;
            }
            wait(cycles, CycleKind::Busy, [this]() { step(); });
            return;
          }
          case Op::Kind::Load:
          case Op::Kind::Store: {
            bool is_store = op.kind == Op::Kind::Store;
            Cycle wake = issueBlockedUntil(is_store);
            if (wake > 0) {
                wait(wake - eq_.now(), CycleKind::MemStall,
                     [this]() { step(); });
                return;
            }
            haveFetched_ = false;
            noteIssueSlot();
            if (is_store)
                issueStoreEntry(op.addr);
            else
                issueLoadEntry(op.addr);
            if (--inline_budget > 0)
                continue;
            wait(1, CycleKind::Busy, [this]() { step(); });
            return;
          }
          case Op::Kind::End:
            haveFetched_ = false;
            endReached_ = true;
            continue;
        }
    }
}

} // namespace tlsim::cpu
