/**
 * @file
 * SpeculationEngine lifecycle: construction, dispatch, commit chain,
 * squash and recovery. The load/store paths live in engine_access.cpp.
 */

#include "tls/engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/log.hpp"
#include "common/trace.hpp"
#include "cpu/ooo_core.hpp"
#include "mem/geometry.hpp"
#include "noc/crossbar.hpp"
#include "noc/mesh.hpp"

namespace tlsim::tls {

namespace {

/** Rows of the mesh for a NUMA machine with n nodes (4 for n=16). */
unsigned
meshRows(unsigned n)
{
    unsigned r = 1;
    while (r * r < n)
        ++r;
    return r;
}

/**
 * Declare this engine's simulated clock and scheme byte as the
 * ambient trace context of the calling thread. Re-asserted at run()
 * so interleaved construction of several engines on one thread (A/B
 * drivers) still stamps records correctly.
 */
void
bindTraceContext(const EngineConfig &cfg, const EventQueue &eq)
{
    if constexpr (trace::builtIn()) {
        trace::bindClock(eq.nowPtr());
        trace::setScheme(
            cfg.sequential
                ? trace::kSchemeSequential
                : trace::packScheme(unsigned(cfg.scheme.separation),
                                    unsigned(cfg.scheme.merging),
                                    cfg.scheme.softwareLog,
                                    cfg.scheme.predictsValues()));
    }
}

} // namespace

SpeculationEngine::SpeculationEngine(const EngineConfig &cfg,
                                     Workload &workload)
    : cfg_(cfg), workload_(workload),
      memBanks_(cfg.machine.numBanks, cfg.machine.occMemBank),
      l3Banks_(cfg.machine.numBanks, cfg.machine.occL3Bank)
{
    const mem::MachineParams &m = cfg_.machine;

    if (m.isNuma()) {
        unsigned rows = meshRows(m.numProcs);
        net_ = std::make_unique<noc::Mesh2D>(rows,
                                             (m.numProcs + rows - 1) /
                                                 rows);
    } else {
        net_ = std::make_unique<noc::Crossbar>(
            std::max(m.numProcs, m.numBanks));
        l3_ = std::make_unique<mem::VersionedCache>(
            mem::CacheGeometry::of(16ULL * 1024 * 1024, 4), false);
    }

    l2Ports_.resize(m.numProcs);
    dirBanks_.resize(m.numBanks);

    // The address-independent pieces of directory routing are fixed at
    // construction: proc→node, home→node and home→directory-bank. The
    // access paths index these tables instead of dividing per access.
    unsigned nodes = net_->numNodes();
    nodeOfProc_.resize(m.numProcs);
    for (unsigned p = 0; p < m.numProcs; ++p)
        nodeOfProc_[p] = p % nodes;
    unsigned home_domain = std::max(m.numProcs, m.numBanks);
    nodeOfHome_.resize(home_domain);
    dirBankOfHome_.resize(home_domain);
    for (unsigned h = 0; h < home_domain; ++h) {
        nodeOfHome_[h] = h % nodes;
        dirBankOfHome_[h] = h % m.numBanks;
    }
    if (m.dirClusterNodes > 1) {
        clusterOfNode_.resize(nodes);
        for (unsigned n = 0; n < nodes; ++n)
            clusterOfNode_[n] = n / m.dirClusterNodes;
    }

    cpu::CoreParams core_params;
    core_params.ipc = m.ipc;
    core_params.loadHide = m.loadHide;
    core_params.storeBufEntries = m.storeBufEntries;
    core_params.oooWindow = m.oooWindow;
    core_params.oooIssueWidth = m.oooIssueWidth;
    core_params.maxPendingLoads = m.maxPendingLoads;
    core_params.lsqEntries = m.lsqEntries;
    core_params.lsqForwardCycles = m.lsqForwardCycles;
    // The LSQ snoop must use the same conflict granularity as the
    // violation detector, or replays and squashes would disagree.
    core_params.conflictShift = m.wordGranularityDetection ? 3 : 6;

    oooActive_ = !cfg_.sequential &&
                 m.coreModel == mem::CoreModelKind::OutOfOrder;
    for (ProcId p = 0; p < m.numProcs; ++p) {
        if (oooActive_)
            cores_.push_back(std::make_unique<cpu::OoOCore>(
                p, eq_, core_params, *this, *this));
        else
            cores_.push_back(std::make_unique<cpu::Core>(
                p, eq_, core_params, *this, *this));
        l1_.push_back(
            std::make_unique<mem::VersionedCache>(m.l1, false));
        l2_.push_back(std::make_unique<mem::VersionedCache>(
            m.l2, cfg_.scheme.multiVersion()));
    }
    overflow_.resize(m.numProcs);
    logs_.resize(m.numProcs);

    // Scaled machines declare finite structure capacities: the tables
    // grow on demand up to them, and growth past one panics instead of
    // silently reallocating (the sequential baseline models none of
    // the speculative hardware and sets no cap).
    if (!cfg_.sequential) {
        mtid_.limitCapacity(m.mtidCapacityLines);
        for (auto &area : overflow_)
            area.limitCapacity(m.overflowCapacityPerProc);
        for (auto &log : logs_)
            log.limitTasks(m.undoTasksPerProc);
    }

    // Fault injection: the plan is engine-local (one RNG set per run,
    // never shared across sweep threads) and each component is only
    // attached when its site can actually fire, so an inert spec adds
    // nothing but one dead branch per hook.
    if (!cfg_.sequential && cfg_.faults.anyEnabled()) {
        faults_ = fault::FaultPlan(cfg_.faults);
        if (faults_.nocActive())
            net_->attachFaults(&faults_);
        if (std::size_t cap = faults_.overflowFaultCapacity()) {
            for (auto &area : overflow_)
                area.setFaultCapacity(cap);
        }
        if (cfg_.faults.undoStressProb > 0.0) {
            for (auto &log : logs_)
                log.attachFaults(&faults_);
        }
    }

    // Predict+Validate: per-processor predictors, index hash seeded
    // from the workload's point seed (derivePointSeed already folded
    // the point identity, so replications get independent streams).
    if (!cfg_.sequential && cfg_.scheme.predictsValues()) {
        predictors_.resize(m.numProcs);
        std::uint64_t state =
            workload_.seed() ^ 0x76a7ed5ba11da7eULL;
        for (ProcId p = 0; p < m.numProcs; ++p)
            predictors_[p].configure(1024, splitmix64(state));
    }

    uncommittedFinished_.assign(m.numProcs, 0);
    procInRecovery_.assign(m.numProcs, false);
    recoveryOutstanding_.assign(m.numProcs, 0);
    pendingRecovery_.assign(m.numProcs, 0);
    recoveryBlockActive_.assign(m.numProcs, false);

    TaskId n = workload_.numTasks();
    tasks_.resize(n);
    for (TaskId t = 1; t <= n; ++t)
        tasks_[t - 1].id = t;

    // Intern every hot-path counter once; the access paths increment
    // by id. The order here is the entries() order of every result.
    sid_.loads = counters_.intern("loads");
    sid_.stores = counters_.intern("stores");
    sid_.l1Hits = counters_.intern("l1_hits");
    sid_.l2Hits = counters_.intern("l2_hits");
    sid_.l3Hits = counters_.intern("l3_hits");
    sid_.memoryFetches = counters_.intern("memory_fetches");
    sid_.remoteCacheFetches = counters_.intern("remote_cache_fetches");
    sid_.overflowFetches = counters_.intern("overflow_fetches");
    sid_.mhbFetches = counters_.intern("mhb_fetches");
    sid_.overflowChecks = counters_.intern("overflow_checks");
    sid_.overflowSpills = counters_.intern("overflow_spills");
    sid_.overflowRefetches = counters_.intern("overflow_refetches");
    sid_.overflowStalls = counters_.intern("overflow_stalls");
    sid_.svStalls = counters_.intern("sv_stalls");
    sid_.fmmWritebacks = counters_.intern("fmm_writebacks");
    sid_.fmmRefetches = counters_.intern("fmm_refetches");
    sid_.mtidRejectedSpills = counters_.intern("mtid_rejected_spills");
    sid_.vclDisplacements = counters_.intern("vcl_displacements");
    sid_.vclWritebacks = counters_.intern("vcl_writebacks");
    sid_.vclInvalidations = counters_.intern("vcl_invalidations");
    sid_.logAppends = counters_.intern("log_appends");
    sid_.nonspecWritethroughs = counters_.intern("nonspec_writethroughs");
    sid_.versionsCreated = counters_.intern("versions_created");
    sid_.dispatches = counters_.intern("dispatches");
    sid_.commits = counters_.intern("commits");
    sid_.commitOverflowFetches =
        counters_.intern("commit_overflow_fetches");
    sid_.eagerWritebacks = counters_.intern("eager_writebacks");
    sid_.barrierMergeCycles = counters_.intern("barrier_merge_cycles");
    sid_.invocations = counters_.intern("invocations");
    sid_.finalMergeLines = counters_.intern("final_merge_lines");
    sid_.squashEvents = counters_.intern("squash_events");
    sid_.tasksSquashed = counters_.intern("tasks_squashed");
    sid_.recoveryEntriesReplayed =
        counters_.intern("recovery_entries_replayed");
    sid_.valuePredictions = counters_.intern("value_predictions");
    sid_.valueValidations = counters_.intern("value_validations");
    sid_.valueMispredicts = counters_.intern("value_mispredicts");

    bindTraceContext(cfg_, eq_);
}

SpeculationEngine::~SpeculationEngine()
{
    // The thread's trace clock points into our event queue; detach it
    // before the queue dies.
    if constexpr (trace::builtIn())
        trace::bindClock(nullptr);
}

void
SpeculationEngine::specTasksDelta(int delta)
{
    Cycle now = eq_.now();
    specTaskIntegral_ += double(specTasksNow_) * double(now - specTasksSince_);
    specTasksSince_ = now;
    specTasksNow_ = unsigned(int(specTasksNow_) + delta);
}

void
SpeculationEngine::takeFootprint(TaskRecord &r)
{
    if (freeFootprints_.empty()) {
        r.footprint = std::make_unique<TaskFootprint>();
        return;
    }
    r.footprint = std::move(freeFootprints_.back());
    freeFootprints_.pop_back();
}

void
SpeculationEngine::returnFootprint(TaskRecord &r)
{
    r.footprint->clear();
    freeFootprints_.push_back(std::move(r.footprint));
}

RunResult
SpeculationEngine::run()
{
    // The sequential baseline runs every task back to back; barriers
    // only matter under speculation.
    invocEnd_ = cfg_.sequential
                    ? workload_.numTasks()
                    : std::min<TaskId>(workload_.numTasks(),
                                       workload_.tasksPerInvocation());
    bindTraceContext(cfg_, eq_);
    scheduler_.init(invocEnd_);
    for (auto &core : cores_)
        core->beginSection();

    if (cfg_.sequential)
        tryDispatch(0);
    else
        tryDispatchAll();

    eq_.run();

    if (!sectionDone_)
        panic("SpeculationEngine: event queue drained before the "
              "section completed (deadlock)");

    return collectResult();
}

void
SpeculationEngine::tryDispatchAll()
{
    for (ProcId p = 0; p < numProcs(); ++p)
        tryDispatch(p);
}

void
SpeculationEngine::tryDispatch(ProcId proc)
{
    if (sectionDone_)
        return;
    if (cfg_.sequential && proc != 0)
        return;
    cpu::CoreModel &core = *cores_[proc];
    if (!core.idle())
        return;
    if (procInRecovery_[proc])
        return;
    if (!cfg_.sequential &&
        cfg_.scheme.separation == Separation::SingleT &&
        uncommittedFinished_[proc] > 0) {
        // SingleT: the processor must hold state for at most one
        // speculative task; stall until the finished task commits.
        core.setIdleKind(CycleKind::TokenStall);
        return;
    }
    if (scheduler_.empty()) {
        core.setIdleKind(CycleKind::EndStall);
        return;
    }

    TaskId id = scheduler_.take();
    TaskRecord &r = rec(id);
    r.state = TaskState::Running;
    r.proc = proc;
    ++r.incarnation;
    takeFootprint(r);
    r.execStart = eq_.now();
    if (!cfg_.sequential)
        specTasksDelta(+1);
    counters_.inc(sid_.dispatches);
    TLSIM_TRACE_EVENT(r.incarnation == 1 ? trace::Kind::TaskSpawn
                                         : trace::Kind::TaskRestart,
                      proc, id, 0, r.incarnation);
    core.startTask(id, workload_.makeTrace(id),
                   cfg_.sequential ? 0 : cfg_.machine.dispatchCycles);
}

void
SpeculationEngine::onTaskFinished(ProcId proc, TaskId id)
{
    TaskRecord &r = rec(id);
    r.execEnd = eq_.now();
    TLSIM_TRACE_EVENT(trace::Kind::TaskFinish, proc, id, 0,
                      r.incarnation);

    if (cfg_.sequential) {
        r.state = TaskState::Committed;
        TLSIM_TRACE_EVENT(trace::Kind::TaskCommit, proc, id, 0,
                          r.incarnation);
        footprintWords_ += r.footprint->writtenWords.size();
        footprintPrivWords_ += r.footprint->privWords;
        returnFootprint(r);
        execDurSum_ += r.execEnd - r.execStart;
        ++commitSamples_;
        if (id == workload_.numTasks()) {
            sectionEnd_ = eq_.now();
            endSection();
        } else {
            tryDispatch(proc);
        }
        return;
    }

    r.state = TaskState::Finished;
    ++uncommittedFinished_[proc];
    if (id == nextCommit_)
        maybeCommit();
    if (!recoveryQueue_.empty())
        runRecoveryQueue(); // a deferred FMM handler may need this core
    tryDispatch(proc);
}

void
SpeculationEngine::maybeCommit()
{
    if (commitInProgress_ || sectionDone_ || barrierActive_)
        return;
    if (nextCommit_ > invocEnd_) {
        advanceInvocation();
        return;
    }
    TaskRecord &r = rec(nextCommit_);
    if (r.state != TaskState::Finished)
        return;

    // Predict+Validate: the task's logged predictions are checked at
    // commit-token acquisition, while every predecessor is already
    // architectural. A misprediction squashes the task through the
    // ordinary violation path (the token is never taken), so the
    // recovery machinery is reused, not duplicated.
    Cycle validateCost = 0;
    if (cfg_.scheme.predictsValues() &&
        !validatePredictions(nextCommit_, &validateCost))
        return;

    commitInProgress_ = true;
    r.state = TaskState::Committing;
    r.commitStart = eq_.now();
    TaskId id = r.id;
    TLSIM_TRACE_EVENT(trace::Kind::TokenHandoff, r.proc, id, 0,
                      r.incarnation);

    if (cfg_.scheme.merging == Merging::EagerAMM) {
        Cycle finish = mergeTaskState(id, eq_.now());
        Cycle dur = std::max<Cycle>(finish - eq_.now(),
                                    cfg_.machine.tokenPassCycles) +
                    validateCost;
        if (cfg_.scheme.separation == Separation::SingleT) {
            // The processor itself performs the merge.
            cpu::CoreModel &core = *cores_[r.proc];
            if (!core.idle())
                panic("SingleT commit: owner core not idle");
            core.startWorkBlock(dur, CycleKind::CommitWork,
                                [this, id]() { finishCommit(id); });
        } else {
            // Background hardware writes the lines back; the commit
            // token still only passes once the merge completes.
            eq_.scheduleIn(dur, [this, id]() { finishCommit(id); });
        }
    } else {
        // Lazy AMM and FMM: commit is just the token handoff (plus
        // the validation-log compare pipeline, when one ran).
        eq_.scheduleIn(cfg_.machine.tokenPassCycles + validateCost,
                       [this, id]() { finishCommit(id); });
    }

    // Fault injection: a violation lands while the token is held (the
    // squash-during-commit corner). The committing task itself is past
    // the speculative states and survives; every later speculative
    // task restarts while the commit machinery is still in flight.
    if (faults_.active() && id < workload_.numTasks() &&
        faults_.commitTokenSquash())
        performSquash(id + 1, rec(id).proc);
}

bool
SpeculationEngine::validatePredictions(TaskId id, Cycle *cost_out)
{
    const auto &entries = vlog_.entriesOf(id);
    if (entries.empty()) {
        *cost_out = 0;
        return true;
    }
    TaskRecord &r = rec(id);
    ProcId proc = r.proc;

    // Re-derive the producer each predicted word would observe now,
    // with exactly the lookup the detector's read records use. The
    // simulator carries no data bytes, so a word's value is modeled as
    // a pure function of (word, producer): equal producers mean the
    // predicted and architectural values compare equal.
    for (const cpu::ValidationEntry &e : entries) {
        // Validation entries store word indices; reconstruct the byte
        // address before deriving line and word-bit coordinates.
        TaskId actual = observedProducer(e.word * mem::kWordBytes, id);
        if (actual != e.predictedProducer) {
            counters_.inc(sid_.valueMispredicts);
            TLSIM_TRACE_EVENT(trace::Kind::ValueMispredict, proc, id,
                              e.word, r.incarnation);
            // Retrain with the corrected producer so the re-execution
            // predicts it right (no validate/squash livelock).
            predictors_[proc].train(e.word, actual);
            performSquash(id, proc);
            return false;
        }
    }

    // All predictions hold: reinforce the predictor and discharge the
    // log group. The compare pipeline walks the entries one per cycle
    // pair (read the logged word, compare against memory state).
    std::size_t n = entries.size();
    for (const cpu::ValidationEntry &e : entries) {
        counters_.inc(sid_.valueValidations);
        TLSIM_TRACE_EVENT(trace::Kind::ValueValidate, proc, id, e.word,
                          r.incarnation);
        predictors_[proc].train(e.word, e.predictedProducer);
    }
    vlog_.dropTask(id);
    *cost_out = Cycle(2 * n);
    return true;
}

Cycle
SpeculationEngine::mergeTaskState(TaskId id, Cycle start)
{
    // Pipelined drain model: the commit engine pays a fixed startup
    // cost, then walks the task's write-back table issuing one line
    // per commitIssueGap; lines that spilled to the overflow area add
    // a local-memory read to the pipeline. Bank and link occupancy is
    // reserved so that concurrent execution feels the merge traffic;
    // the merge's own duration is the issue pipeline plus the one-way
    // drain of the last line.
    TaskRecord &r = rec(id);
    const mem::MachineParams &m = cfg_.machine;
    Cycle issue = start + m.commitFixedCycles;
    Cycle oneway = 0;

    for (Addr line : r.footprint->dirtyLines) {
        VersionInfo *v = versions_.find(line, r.tag());
        if (!v || v->inMemory)
            continue;
        issue += m.commitIssueGap;
        if (v->inOverflow) {
            // Fetch the overflowed line from local memory first.
            issue += m.latLocalMem / 4;
            memBanks_.access(r.proc % m.numBanks, start);
            counters_.inc(sid_.commitOverflowFetches);
        }
        unsigned home = homeOf(line);
        net_->traverse(start, nodeOfProc_[r.proc], nodeOfHome_[home],
                       noc::MsgClass::Data);
        memBanks_.access(home, start);
        Cycle ow;
        if (m.isNuma())
            ow = (home == r.proc ? m.latLocalMem : m.latRemote2Hop) / 2;
        else
            ow = m.latL3 / 2;
        oneway = std::max(oneway, ow);
        counters_.inc(sid_.eagerWritebacks);
    }
    return issue + oneway;
}

void
SpeculationEngine::finishCommit(TaskId id)
{
    TaskRecord &r = rec(id);
    r.state = TaskState::Committed;
    r.commitEnd = eq_.now();
    TLSIM_TRACE_EVENT(trace::Kind::TaskCommit, r.proc, id, 0,
                      r.incarnation);

    execDurSum_ += r.execEnd - r.execStart;
    commitDurSum_ += r.commitEnd - r.commitStart;
    ++commitSamples_;

    if (uncommittedFinished_[r.proc] == 0)
        panic("finishCommit: uncommittedFinished underflow");
    --uncommittedFinished_[r.proc];
    specTasksDelta(-1);

    for (Addr line : r.footprint->dirtyLines) {
        VersionInfo *v = versions_.find(line, r.tag());
        if (!v)
            continue;
        // The write mask holds exactly the words this execution wrote
        // to the line: the written-footprint statistic.
        footprintWords_ += unsigned(std::popcount(v->writeMask));
        for (unsigned mask = v->writeMask; mask != 0; mask &= mask - 1) {
            Addr word = line * mem::kWordsPerLine +
                        Addr(std::countr_zero(mask));
            if (workload_.isPrivAddr(word * mem::kWordBytes))
                ++footprintPrivWords_;
        }
        v->committed = true;
        switch (cfg_.scheme.merging) {
          case Merging::EagerAMM: {
            // Data was written back during the merge.
            if (!v->inMemory)
                TLSIM_TRACE_EVENT(trace::Kind::VersionMerge, r.proc,
                                  id, line, r.incarnation);
            if (VersionInfo *old = versions_.memoryHolder(line)) {
                if (old != v)
                    old->inMemory = false;
            }
            v->inMemory = true;
            mtid_.set(line, v->tag);
            if (v->inOverflow) {
                overflow_[r.proc].remove(line, v->tag);
                v->inOverflow = false;
                v->cacheOwner = kNoProc;
            } else if (v->cacheOwner != kNoProc) {
                // The cached copy becomes a clean replica.
                if (auto *f = l2_[v->cacheOwner]->findVersion(line,
                                                              v->tag)) {
                    f->dirty = false;
                    f->speculative = false;
                }
                v->cacheOwner = kNoProc;
            }
            if (l3_) {
                mem::CacheLineState cl;
                cl.line = line;
                cl.version = v->tag;
                l3_->insert(cl, eq_.now());
            }
            break;
          }
          case Merging::LazyAMM:
          case Merging::FMM: {
            // Committed versions linger where they are; displacement
            // or external requests merge them later (VCL under Lazy,
            // MTID-guarded write-backs under FMM).
            if (v->cacheOwner != kNoProc && !v->inOverflow) {
                if (auto *f = l2_[v->cacheOwner]->findVersion(line,
                                                              v->tag)) {
                    f->speculative = false;
                    f->dirty = false;
                    f->committedDirty = true;
                }
            }
            break;
          }
        }
    }

    if (cfg_.scheme.merging == Merging::FMM)
        logs_[r.proc].dropTask(id);

    detector_.dropReader(id, r.footprint->readLog);
    returnFootprint(r);

    // Wake MultiT&SV stalls blocked on this task's version.
    auto it = svWaiters_.find(id);
    if (it != svWaiters_.end()) {
        auto waiters = std::move(it->second);
        svWaiters_.erase(it);
        for (auto [proc, task] : waiters) {
            cpu::CoreModel &core = *cores_[proc];
            if (core.state() == cpu::CoreModel::State::StallStore &&
                core.currentTask() == task) {
                core.resumeStall();
            }
        }
    }

    ProcId owner = r.proc;
    commitInProgress_ = false;
    ++nextCommit_;
    counters_.inc(sid_.commits);
    maybeCommit();
    if (!sectionDone_) {
        tryDispatch(owner);
        resumeOverflowWaiters();
    }
}

void
SpeculationEngine::resumeOverflowWaiters()
{
    if (overflowWaiters_.empty())
        return;
    auto waiters = std::move(overflowWaiters_);
    overflowWaiters_.clear();
    for (auto [proc, task] : waiters) {
        cpu::CoreModel &core = *cores_[proc];
        if (core.state() == cpu::CoreModel::State::StallStore &&
            core.currentTask() == task) {
            core.resumeStall();
        }
    }
}

/**
 * The commit wavefront has crossed the current invocation's end: run
 * the invocation barrier. Under Lazy AMM this is the final merge of
 * the versions still in caches (the "diamonds" of Figure 6-(b)); then
 * either the next invocation starts or the section ends.
 */
void
SpeculationEngine::advanceInvocation()
{
    barrierActive_ = true;
    Cycle finish = eq_.now();
    if (cfg_.scheme.merging == Merging::LazyAMM) {
        finish = finalMerge(eq_.now());
        counters_.inc(sid_.barrierMergeCycles, finish - eq_.now());
    }
    if (invocEnd_ >= workload_.numTasks()) {
        sectionEnd_ = finish;
        if (finish == eq_.now())
            endSection();
        else
            eq_.schedule(finish, [this]() { endSection(); });
        return;
    }
    if (finish == eq_.now()) {
        releaseNextInvocation();
    } else {
        eq_.schedule(finish, [this]() { releaseNextInvocation(); });
    }
}

void
SpeculationEngine::releaseNextInvocation()
{
    barrierActive_ = false;
    TaskId start = invocEnd_ + 1;
    invocEnd_ = std::min<TaskId>(
        workload_.numTasks(),
        invocEnd_ + std::max<TaskId>(1, workload_.tasksPerInvocation()));
    for (TaskId t = start; t <= invocEnd_; ++t)
        scheduler_.requeue(t);
    counters_.inc(sid_.invocations);
    tryDispatchAll();
}

Cycle
SpeculationEngine::finalMerge(Cycle start)
{
    // Same pipelined-drain model as mergeTaskState: every processor
    // sweeps its committed-unmerged versions, all sweeps in parallel
    // from @p start. The sweep order is canonical (processor, then
    // ascending line address, then producer): the network traffic it
    // issues reserves shared links, so the order must be defined by
    // the model, not by whatever the version index iterates in. One
    // scan of the index collects every processor's candidates.
    const mem::MachineParams &m = cfg_.machine;
    mergeScratch_.clear();
    versions_.forEach([this](Addr line, VersionInfo &v) {
        if (v.committed && v.cacheOwner != kNoProc)
            mergeScratch_.push_back({v.cacheOwner, line, &v});
    });
    std::sort(mergeScratch_.begin(), mergeScratch_.end(),
              [](const MergeItem &a, const MergeItem &b) {
                  if (a.owner != b.owner)
                      return a.owner < b.owner;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.v->tag.producer < b.v->tag.producer;
              });
    Cycle finish = start;
    Cycle issue = start;
    Cycle oneway = 0;
    ProcId proc = kNoProc;
    for (const MergeItem &item : mergeScratch_) {
        if (item.owner != proc) {
            finish = std::max(finish, issue + oneway);
            proc = item.owner;
            issue = start;
            oneway = 0;
        }
        Addr line = item.line;
        VersionInfo &v = *item.v;
        // Checked at the item's turn, not at collection: a version
        // written through and then refetched (no-overflow-area
        // ablation) is both in memory and cache-owned, and an earlier
        // processor's sweep may take the memory slot from it.
        if (v.inMemory)
            continue;
        // Only the latest committed version of a line needs a
        // write-back; earlier ones are invalidated by the VCL. Both
        // cost a sweep step, but only the write-back travels.
        VersionInfo *latest = versions_.latestCommitted(line);
        issue += m.finalMergeGap;
        if (v.inOverflow) {
            // Versions in the overflow area have to be accessed
            // eventually (paper Section 5.2): read from local memory.
            issue += m.latLocalMem / 4;
            memBanks_.access(proc % m.numBanks, start);
        }
        counters_.inc(sid_.finalMergeLines);
        if (latest == &v) {
            TLSIM_TRACE_EVENT(trace::Kind::VersionMerge, proc,
                              v.tag.producer, line,
                              v.tag.incarnation);
            unsigned home = homeOf(line);
            net_->traverse(start, nodeOfProc_[proc], nodeOfHome_[home],
                           noc::MsgClass::Data);
            memBanks_.access(home, start);
            Cycle ow;
            if (m.isNuma())
                ow = (home == proc ? m.latLocalMem : m.latRemote2Hop) / 2;
            else
                ow = m.latL3 / 2;
            oneway = std::max(oneway, ow);
            mtid_.set(line, v.tag);
            if (VersionInfo *old = versions_.memoryHolder(line)) {
                if (old != &v)
                    old->inMemory = false;
            }
            v.inMemory = true;
        }
        if (v.inOverflow) {
            overflow_[proc].remove(line, v.tag);
            v.inOverflow = false;
        } else {
            l2_[proc]->invalidateVersion(line, v.tag);
            l1_[proc]->invalidateVersion(line, v.tag);
        }
        v.cacheOwner = kNoProc;
    }
    return std::max(finish, issue + oneway);
}

void
SpeculationEngine::endSection()
{
    sectionDone_ = true;
    if (sectionEnd_ < eq_.now())
        sectionEnd_ = eq_.now();
    specTasksDelta(0); // close the integral
    for (auto &core : cores_)
        core->endSection();
}

// --------------------------------------------------------------------
// Squash and recovery
// --------------------------------------------------------------------

void
SpeculationEngine::performSquash(TaskId first_bad, ProcId writer_proc)
{
    (void)writer_proc;
    ++squashEvents_;
    counters_.inc(sid_.squashEvents);

    std::vector<TaskId> squashed;
    for (TaskId t = first_bad; t <= workload_.numTasks(); ++t) {
        if (rec(t).isSpeculativeState())
            squashed.push_back(t);
    }
    if (squashed.empty())
        return;
    tasksSquashed_ += squashed.size();
    counters_.inc(sid_.tasksSquashed, squashed.size());

    // Remember owners before cleanup (records are reset by squashOne).
    std::vector<ProcId> owner(squashed.size());
    for (std::size_t i = 0; i < squashed.size(); ++i)
        owner[i] = rec(squashed[i]).proc;

    for (TaskId t : squashed)
        squashOne(t);

    if (cfg_.scheme.merging == Merging::FMM) {
        // Recovery must replay MHB entries in strict reverse task
        // order across the whole machine: queue descending and let
        // the handlers run one after another.
        for (std::size_t i = squashed.size(); i-- > 0;) {
            recoveryQueue_.push_back(squashed[i]);
            recoveryProc_[squashed[i]] = owner[i];
            ++recoveryOutstanding_[owner[i]];
            procInRecovery_[owner[i]] = true;
        }
        std::sort(recoveryQueue_.begin(), recoveryQueue_.end(),
                  std::greater<TaskId>());
        runRecoveryQueue();
    } else {
        // AMM: discarding the MROB state is quick, local and can
        // proceed in parallel on every affected processor.
        for (std::size_t i = 0; i < squashed.size(); ++i) {
            scheduler_.requeue(squashed[i]);
            scheduleAmmRecovery(owner[i], cfg_.machine.recoveryPerTask);
        }
        tryDispatchAll();
    }
}

void
SpeculationEngine::squashOne(TaskId id)
{
    TaskRecord &r = rec(id);
    ProcId p = r.proc;
    ++r.squashes;
    TLSIM_TRACE_EVENT(trace::Kind::TaskSquash, p, id, 0,
                      r.incarnation);

    if (r.state == TaskState::Running) {
        cores_[p]->abortTask();
    } else if (r.state == TaskState::Finished) {
        if (uncommittedFinished_[p] == 0)
            panic("squashOne: uncommittedFinished underflow");
        --uncommittedFinished_[p];
    } else {
        panic("squashOne: task not speculative");
    }
    specTasksDelta(-1);

    mem::VersionTag tag = r.tag();
    for (Addr line : r.footprint->dirtyLines) {
        l2_[p]->invalidateVersion(line, tag);
        l1_[p]->invalidateVersion(line, tag);
        overflow_[p].remove(line, tag);
        versions_.remove(line, tag);
    }

    detector_.dropReader(id, r.footprint->readLog);
    returnFootprint(r);
    if (cfg_.scheme.predictsValues())
        vlog_.dropTask(id);
    svWaiters_.erase(id);
    r.state = TaskState::Pending;
    r.proc = kNoProc;
}

void
SpeculationEngine::scheduleAmmRecovery(ProcId proc, Cycle cycles)
{
    if (cycles == 0)
        return;
    pendingRecovery_[proc] += cycles;
    procInRecovery_[proc] = true;
    if (recoveryBlockActive_[proc])
        return;
    cpu::CoreModel &core = *cores_[proc];
    if (!core.idle())
        panic("scheduleAmmRecovery: core not idle");
    Cycle dur = pendingRecovery_[proc];
    pendingRecovery_[proc] = 0;
    recoveryBlockActive_[proc] = true;
    core.startWorkBlock(dur, CycleKind::RecoveryWork, [this, proc]() {
        recoveryBlockActive_[proc] = false;
        if (pendingRecovery_[proc] > 0) {
            Cycle more = pendingRecovery_[proc];
            pendingRecovery_[proc] = 0;
            scheduleAmmRecovery(proc, more);
            return;
        }
        procInRecovery_[proc] = false;
        tryDispatch(proc);
    });
}

void
SpeculationEngine::runRecoveryQueue()
{
    if (recoveryActive_ || recoveryQueue_.empty())
        return;

    TaskId id = recoveryQueue_.front();
    ProcId proc = recoveryProc_.at(id);
    cpu::CoreModel &core = *cores_[proc];
    if (!core.idle()) {
        // The owner is running an unrelated (earlier, unsquashed)
        // task: the recovery handler waits for the processor.
        // procInRecovery_ keeps new work away; onTaskFinished re-polls
        // the queue.
        return;
    }

    recoveryQueue_.pop_front();
    recoveryActive_ = true;
    recoveryProc_.erase(id);

    logs_[proc].takeForRecovery(id, recoveryScratch_);
    const auto &entries = recoveryScratch_;
    counters_.inc(sid_.recoveryEntriesReplayed, entries.size());

    // Replay: restore each overwritten version to main memory. The
    // metadata effect is applied now; the handler's time is charged
    // below.
    for (const mem::UndoLogEntry &e : entries) {
        mtid_.set(e.line, e.oldVersion);
        VersionInfo *v = versions_.find(e.line, e.oldVersion);
        stealMemoryHolder(e.line, v, proc);
        if (v)
            v->inMemory = true;
    }

    // lastRecoveryStress is zero unless a fault plan is attached to
    // the log (recovery-path stress: slow log-region reads).
    Cycle dur = 100 +
                Cycle(entries.size()) * cfg_.machine.recoveryPerLogEntry +
                logs_[proc].lastRecoveryStress();
    core.startWorkBlock(dur, CycleKind::RecoveryWork,
                        [this, proc, id]() {
        scheduler_.requeue(id);
        if (recoveryOutstanding_[proc] == 0)
            panic("recovery outstanding underflow");
        if (--recoveryOutstanding_[proc] == 0)
            procInRecovery_[proc] = false;
        recoveryActive_ = false;
        runRecoveryQueue();
        tryDispatchAll();
    });
}

RunResult
SpeculationEngine::collectResult()
{
    RunResult res;
    res.execTime = sectionEnd_;

    // Final-memory fingerprint (fault-injection oracle): fold the
    // latest committed version of every tracked line, in line order.
    // Producer and write mask are functions of the workload alone —
    // a squashed-and-replayed task recommits identical data — so any
    // divergence here means a fault corrupted state instead of only
    // costing time. Incarnations are excluded for the same reason.
    {
        auto fold = [](std::uint64_t h, std::uint64_t v) {
            std::uint64_t s = h ^ v;
            return splitmix64(s);
        };
        std::vector<Addr> lines;
        lines.reserve(versions_.linesTracked());
        versions_.forEach(
            [&](Addr line, VersionInfo &) { lines.push_back(line); });
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()),
                    lines.end());
        std::uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (Addr line : lines) {
            VersionInfo *v = versions_.latestCommitted(line);
            if (v == nullptr)
                continue;
            h = fold(h, line);
            h = fold(h, v->tag.producer);
            h = fold(h, v->writeMask);
            ++res.memStateLines;
        }
        res.memStateHash = h;
    }
    res.faults = faults_.counters();

    for (auto &core : cores_) {
        res.perProc.push_back(core->breakdown());
        res.total += core->breakdown();
    }
    res.counters = counters_;
    res.committedTasks = commitSamples_;
    res.squashEvents = squashEvents_;
    res.tasksSquashed = tasksSquashed_;
    if (sectionEnd_ > 0) {
        res.avgSpecTasksSystem = specTaskIntegral_ / double(sectionEnd_);
        res.avgSpecTasksPerProc =
            res.avgSpecTasksSystem / double(numProcs());
    }
    if (commitSamples_ > 0) {
        res.avgWrittenKb = double(footprintWords_) * mem::kWordBytes /
                           1024.0 / double(commitSamples_);
        if (footprintWords_ > 0)
            res.privFraction =
                double(footprintPrivWords_) / double(footprintWords_);
        double exec_mean = double(execDurSum_) / double(commitSamples_);
        double commit_mean =
            double(commitDurSum_) / double(commitSamples_);
        if (exec_mean > 0)
            res.commitExecRatio = commit_mean / exec_mean;
    }
    for (const TaskRecord &r : tasks_) {
        TaskTimeline tl;
        tl.id = r.id;
        tl.proc = r.proc;
        tl.execStart = r.execStart;
        tl.execEnd = r.execEnd;
        tl.commitStart = r.commitStart;
        tl.commitEnd = r.commitEnd;
        tl.squashes = r.squashes;
        res.timelines.push_back(tl);
    }
    return res;
}

} // namespace tlsim::tls
