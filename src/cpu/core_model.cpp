#include "cpu/core_model.hpp"

#include <cstdio>

#include "common/log.hpp"

namespace tlsim::cpu {

CoreModel::CoreModel(ProcId id, EventQueue &eq, const CoreParams &params,
                     SpecMemoryIf &mem, CoreListener &listener)
    : id_(id), eq_(eq), params_(params), mem_(mem), listener_(listener)
{
}

void
CoreModel::beginSection()
{
    inSection_ = true;
    idleSince_ = eq_.now();
    idleKind_ = CycleKind::EndStall;
}

void
CoreModel::endSection()
{
    if (state_ == State::Idle)
        billIdle();
    inSection_ = false;
}

void
CoreModel::billIdle()
{
    Cycle now = eq_.now();
    if (now > idleSince_)
        breakdown_.add(idleKind_, now - idleSince_);
    idleSince_ = now;
}

void
CoreModel::setIdleKind(CycleKind kind)
{
    if (state_ == State::Idle)
        billIdle(); // close the accrued span at the old kind
    idleKind_ = kind;
}

void
CoreModel::enterIdle()
{
    state_ = State::Idle;
    idleSince_ = eq_.now();
    idleKind_ = CycleKind::EndStall;
    task_ = kNoTask;
    trace_.reset();
}

void
CoreModel::waitOverflow(Cycle cycles, CycleKind kind) const
{
    std::fprintf(stderr,
                 "Core::wait overflow: proc=%u kind=%s cycles=%llu "
                 "state=%d task=%llu now=%llu\n",
                 id_, cycleKindName(kind), (unsigned long long)cycles,
                 int(state_), (unsigned long long)task_,
                 (unsigned long long)eq_.now());
    panic("Core::wait: implausible duration (overflow?)");
}

void
CoreModel::startTask(TaskId task, std::unique_ptr<TaskTrace> trace,
                     Cycle dispatch_cycles)
{
    if (state_ != State::Idle)
        panic("Core::startTask: core not idle");
    billIdle();
    state_ = State::Running;
    task_ = task;
    trace_ = std::move(trace);
    resetTaskState();
    if (dispatch_cycles > 0) {
        wait(dispatch_cycles, CycleKind::DispatchOverhead,
             [this]() { step(); });
    } else {
        step();
    }
}

void
CoreModel::startWorkBlock(Cycle duration, CycleKind kind,
                          std::function<void()> done)
{
    if (state_ != State::Idle)
        panic("Core::startWorkBlock: core not idle");
    billIdle();
    state_ = State::WorkBlock;
    workDone_ = std::move(done);
    wait(duration, kind, [this]() {
        std::function<void()> done = std::move(workDone_);
        enterIdle();
        if (done)
            done();
    });
}

void
CoreModel::abortTask()
{
    if (state_ == State::Idle)
        panic("Core::abortTask: no task");
    if (state_ == State::WorkBlock)
        panic("Core::abortTask: cannot abort a work block");
    Cycle now = eq_.now();
    if (pendingEvent_ != 0) {
        eq_.cancel(pendingEvent_);
        pendingEvent_ = 0;
        breakdown_.add(waitKind_, now - waitStart_);
    } else if (state_ == State::StallStore) {
        breakdown_.add(waitKind_, now - waitStart_);
    }
    resetTaskState();
    enterIdle();
}

} // namespace tlsim::cpu
