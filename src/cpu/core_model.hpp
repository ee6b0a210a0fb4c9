/**
 * @file
 * Abstract timing-core model.
 *
 * The speculation engine drives processors exclusively through this
 * interface: task dispatch, owner-injected work blocks (commit,
 * recovery), stall/resume for buffering stalls, and the cycle
 * accounting contract. Two models implement it — the in-order core
 * (cpu/core.hpp, the byte-identical default) and the bounded-window
 * out-of-order core (cpu/ooo_core.hpp, docs/OOO_CORE.md).
 */

#ifndef TLSIM_CPU_CORE_MODEL_HPP
#define TLSIM_CPU_CORE_MODEL_HPP

#include <cstdint>
#include <functional>
#include <memory>

#include "common/event_queue.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "cpu/mem_if.hpp"
#include "cpu/op.hpp"

namespace tlsim::cpu {

/** Core timing parameters (derived from mem::MachineParams). */
struct CoreParams {
    double ipc = 2.0;
    Cycle loadHide = 12;
    unsigned storeBufEntries = 16;
    // Out-of-order model only (ignored by the in-order core).
    unsigned oooWindow = 64;      ///< unretired memory-op window depth
    unsigned oooIssueWidth = 4;   ///< memory-op issues per cycle
    unsigned maxPendingLoads = 8; ///< outstanding-miss (MLP) cap
    unsigned lsqEntries = 16;     ///< unperformed stores in the LSQ
    Cycle lsqForwardCycles = 2;   ///< store-to-load forward latency
    /**
     * log2 of the conflict-detection granularity in bytes (3 = word,
     * 6 = line); must match the engine's violation-detection key so
     * LSQ snoops and the directory agree on what "same word" means.
     */
    unsigned conflictShift = 3;
};

/**
 * Events a core reports to its owner (the speculation engine).
 */
class CoreListener
{
  public:
    virtual ~CoreListener() = default;

    /**
     * The current task finished executing (store buffer drained).
     * The core is Idle when this fires; the listener decides what the
     * processor does next (new task, token wait, ...).
     */
    virtual void onTaskFinished(ProcId proc, TaskId task) = 0;
};

/**
 * One processor. Event-driven: each op schedules the next step. Cycle
 * accounting invariant (tested): between beginSection and endSection,
 * the breakdown bins sum exactly to elapsed time.
 *
 * The base class owns the shared machinery — idle accounting, the
 * single-pending-event wait pattern, work blocks, abort billing —
 * while derived models implement op execution (step), stall recovery
 * (resumeStall) and in-flight state teardown (resetTaskState).
 */
class CoreModel
{
  public:
    enum class State : std::uint8_t {
        Idle,         ///< no task; owner decides accounting kind
        Running,      ///< advancing through ops
        StallStore,   ///< suspended by SecondVersion/Overflow stall
        WorkBlock     ///< executing an owner-injected block (commit,
                      ///< recovery handler)
    };

    CoreModel(ProcId id, EventQueue &eq, const CoreParams &params,
              SpecMemoryIf &mem, CoreListener &listener);
    virtual ~CoreModel() = default;

    ProcId id() const { return id_; }
    State state() const { return state_; }
    bool idle() const { return state_ == State::Idle; }
    TaskId currentTask() const { return task_; }

    /** Begin accounting (start of the speculative section). */
    void beginSection();
    /** Close accounting: bill Idle tail as the current wait kind. */
    void endSection();

    /**
     * Dispatch a task. @pre idle().
     * @param dispatch_cycles scheduling overhead billed before op 0.
     */
    void startTask(TaskId task, std::unique_ptr<TaskTrace> trace,
                   Cycle dispatch_cycles);

    /**
     * Run an owner-defined busy block (SingleT eager commit work, FMM
     * recovery handler). @pre idle(). Fires @p done at completion.
     */
    void startWorkBlock(Cycle duration, CycleKind kind,
                        std::function<void()> done);

    /** Squash the current task. Core becomes Idle immediately. */
    void abortTask();

    /**
     * A store stall (SecondVersion/Overflow) was resolved; re-issue
     * the stalled store. @pre state() == StallStore.
     */
    virtual void resumeStall() = 0;

    /**
     * A store by another processor performed to @p addr. The OoO model
     * replays in-flight speculative loads that read the same word too
     * early; the in-order core (no loads in flight past issue) ignores
     * it.
     */
    virtual void snoopStore(Addr addr) { (void)addr; }

    /**
     * Tell the core how to bill Idle time from now on (TokenStall
     * while holding an uncommitted finished task, EndStall when out
     * of tasks, ...).
     */
    void setIdleKind(CycleKind kind);

    CycleBreakdown &breakdown() { return breakdown_; }
    const CycleBreakdown &breakdown() const { return breakdown_; }

    /** Instructions executed (committed work only if ignoring squashes). */
    std::uint64_t instrsExecuted() const { return instrs_; }

    /** Cycles the core converts @p instrs instructions into. */
    Cycle
    computeCycles(std::uint64_t instrs) const
    {
        return Cycle((double(instrs) + params_.ipc - 1) / params_.ipc);
    }

  protected:
    ProcId id_;
    EventQueue &eq_;
    CoreParams params_;
    SpecMemoryIf &mem_;
    CoreListener &listener_;

    State state_ = State::Idle;
    TaskId task_ = kNoTask;
    std::unique_ptr<TaskTrace> trace_;

    CycleBreakdown breakdown_;
    CycleKind idleKind_ = CycleKind::EndStall;
    Cycle idleSince_ = 0;
    bool inSection_ = false;

    // Pending wait bookkeeping (for mid-wait aborts).
    EventId pendingEvent_ = 0;
    Cycle waitStart_ = 0;
    CycleKind waitKind_ = CycleKind::Busy;

    std::function<void()> workDone_;
    std::uint64_t instrs_ = 0;

    /** Execute ops from the current position; model-specific. */
    virtual void step() = 0;
    /** Drop model-specific in-flight state (dispatch reset / abort). */
    virtual void resetTaskState() = 0;

    /**
     * Bill the next @p cycles as @p kind, then run @p then. The
     * continuation is stored directly in the event slot (no
     * std::function), so a wait allocates nothing.
     */
    template <typename F>
    void
    wait(Cycle cycles, CycleKind kind, F &&then)
    {
        if (cycles > (Cycle(1) << 40))
            waitOverflow(cycles, kind);
        waitStart_ = eq_.now();
        waitKind_ = kind;
        pendingEvent_ = eq_.scheduleIn(
            cycles, [this, then = std::forward<F>(then)]() {
                pendingEvent_ = 0;
                breakdown_.add(waitKind_, eq_.now() - waitStart_);
                then();
            });
    }

    void billIdle();
    void enterIdle();

  private:
    /** Diagnose an implausible wait duration (overflow) and panic. */
    [[noreturn]] void waitOverflow(Cycle cycles, CycleKind kind) const;
};

} // namespace tlsim::cpu

#endif // TLSIM_CPU_CORE_MODEL_HPP
