/**
 * @file
 * SpeculationEngine: the speculative-versioning memory protocol, the
 * commit-token arbiter, squash handling and recovery — specialized by
 * a SchemeConfig to any point of the paper's taxonomy.
 */

#ifndef TLSIM_TLS_ENGINE_HPP
#define TLSIM_TLS_ENGINE_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/event_queue.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"
#include "cpu/core.hpp"
#include "cpu/mem_if.hpp"
#include "cpu/value_predictor.hpp"
#include "mem/cache.hpp"
#include "mem/machine_params.hpp"
#include "mem/memory_banks.hpp"
#include "mem/mtid_table.hpp"
#include "mem/overflow_area.hpp"
#include "mem/undo_log.hpp"
#include "noc/interconnect.hpp"
#include "tls/run_result.hpp"
#include "tls/scheduler.hpp"
#include "tls/scheme.hpp"
#include "tls/task.hpp"
#include "tls/version_map.hpp"
#include "tls/violation_detector.hpp"
#include "tls/workload.hpp"

namespace tlsim::tls {

/** Engine configuration: one taxonomy point on one machine. */
struct EngineConfig {
    SchemeConfig scheme;
    mem::MachineParams machine = mem::MachineParams::numa16();
    /**
     * Sequential baseline mode: one processor, no speculation
     * machinery, all data homed locally (the paper's Tseq).
     */
    bool sequential = false;
    /**
     * Fault-injection schedule (inert by default). The seed must
     * already be point-mixed (deriveFaultSeed) by the caller when the
     * run is part of a sweep. Ignored in sequential mode — the
     * baseline has no speculation machinery to stress.
     */
    fault::FaultSpec faults;
};

/**
 * Simulates one speculative section of a Workload under one scheme.
 *
 * Single-use: construct, run(), read the result.
 */
class SpeculationEngine : public cpu::SpecMemoryIf,
                          public cpu::CoreListener
{
  public:
    SpeculationEngine(const EngineConfig &cfg, Workload &workload);
    ~SpeculationEngine() override;

    /** Simulate the whole section and return its results. */
    RunResult run();

    /** @name cpu::SpecMemoryIf */
    ///@{
    cpu::LoadReply specLoad(ProcId proc, Addr addr, Cycle now) override;
    cpu::StoreReply specStore(ProcId proc, Addr addr,
                              Cycle now) override;
    cpu::LoadReply specLoadIssue(ProcId proc, Addr addr,
                                 Cycle now) override;
    void noteLoadRetire(ProcId proc, Addr addr, Cycle now) override;
    ///@}

    /** @name cpu::CoreListener */
    ///@{
    void onTaskFinished(ProcId proc, TaskId task) override;
    ///@}

  private:
    /** Where a needed version was found (timing classification). */
    enum class Source {
        L1,
        L2,
        LocalOverflow,
        RemoteCache,
        RemoteOverflow,
        Memory,
        Mhb
    };

    EngineConfig cfg_;
    Workload &workload_;

    /** The simulated clock: cores, the engine's protocol events
     *  (commit chain, barriers, recovery) and the trace clock. */
    EventQueue eq_;

    /** Fault injector (inert unless cfg_.faults enables a site). */
    fault::FaultPlan faults_;

    // --- machine fabric ---
    std::unique_ptr<noc::Interconnect> net_;
    mem::MemoryBanks memBanks_;
    mem::MemoryBanks l3Banks_; // CMP only
    std::vector<Resource> l2Ports_;
    std::vector<Resource> dirBanks_;

    // --- per-processor state ---
    std::vector<std::unique_ptr<cpu::CoreModel>> cores_;
    /** True when any core is the OoO model (enables store snooping). */
    bool oooActive_ = false;
    std::vector<std::unique_ptr<mem::VersionedCache>> l1_;
    std::vector<std::unique_ptr<mem::VersionedCache>> l2_;
    std::unique_ptr<mem::VersionedCache> l3_; // CMP shared
    std::vector<mem::OverflowArea> overflow_;
    std::vector<mem::UndoLog> logs_;
    /**
     * Predict+Validate state (empty/idle under validation=None): one
     * value predictor per processor, seeded from the workload's point
     * seed, plus the engine-wide per-task validation log. Both are
     * mutated only in the event queue's total order, so every output
     * is byte-identical at any sweep thread count.
     */
    std::vector<cpu::ValuePredictor> predictors_;
    cpu::ValidationLog vlog_;

    // --- speculation state ---
    mem::MtidTable mtid_;
    VersionMap versions_;
    ViolationDetector detector_;
    std::vector<TaskRecord> tasks_; // index id-1
    /**
     * Footprints of ended executions, cleared with their capacity kept,
     * for the next dispatches. Footprints only ever exist for as many
     * executions as were once in flight together.
     */
    std::vector<std::unique_ptr<TaskFootprint>> freeFootprints_;
    TaskScheduler scheduler_;
    TaskId nextCommit_ = 1;
    bool commitInProgress_ = false;
    bool sectionDone_ = false;
    Cycle sectionEnd_ = 0;
    /** Last task of the invocation currently executing. */
    TaskId invocEnd_ = 0;
    /** An invocation barrier (incl. its Lazy final merge) is active. */
    bool barrierActive_ = false;

    /** Finished-but-uncommitted tasks per processor (SingleT gate). */
    std::vector<unsigned> uncommittedFinished_;

    /** MultiT&SV stall waiters: blocking task -> (proc, stalled task). */
    std::unordered_map<TaskId, std::vector<std::pair<ProcId, TaskId>>>
        svWaiters_;
    /** Overflow-stall waiters (no-overflow-area ablation). */
    std::vector<std::pair<ProcId, TaskId>> overflowWaiters_;

    /** FMM recovery queue (task IDs, descending) + active flag. */
    std::deque<TaskId> recoveryQueue_;
    bool recoveryActive_ = false;
    /** Processors barred from dispatch until their recovery ends. */
    std::vector<bool> procInRecovery_;
    /** Outstanding recovery items per processor. */
    std::vector<unsigned> recoveryOutstanding_;
    /** AMM recovery cycles accumulated while a block is running. */
    std::vector<Cycle> pendingRecovery_;
    std::vector<bool> recoveryBlockActive_;
    /** Squash-time owner of a task awaiting FMM recovery. */
    std::unordered_map<TaskId, ProcId> recoveryProc_;

    // --- precomputed mappings & reusable scratch ---
    /** proc → NoC node (replaces per-access `% nodes`). */
    std::vector<unsigned> nodeOfProc_;
    /** homeOf(line) result → NoC node. */
    std::vector<unsigned> nodeOfHome_;
    /** homeOf(line) result → directory bank index. */
    std::vector<unsigned> dirBankOfHome_;
    /** NoC node → directory cluster (empty = flat directories). */
    std::vector<unsigned> clusterOfNode_;
    /** vclMergeLine displacement scan (was a per-call vector). */
    SmallVec<mem::VersionTag, 8> deadScratch_;
    /** runRecoveryQueue undo-log drain buffer (reused, reversed). */
    std::vector<mem::UndoLogEntry> recoveryScratch_;
    /** One Lazy final-merge candidate: (owner, line, version). */
    struct MergeItem {
        ProcId owner;
        Addr line;
        VersionInfo *v;
    };
    /** finalMerge canonical sweep worklist (owner, line, producer). */
    std::vector<MergeItem> mergeScratch_;

    // --- statistics ---
    CounterSet counters_;
    /**
     * Counter handles interned once at construction so the access fast
     * path increments by index instead of scanning names (see
     * CounterSet::intern). Interning order fixes entries() order,
     * identically for every run of a build — the determinism tests
     * compare counter tables across thread counts byte for byte.
     */
    struct StatIds {
        StatId loads, stores, l1Hits, l2Hits, l3Hits, memoryFetches,
            remoteCacheFetches, overflowFetches, mhbFetches,
            overflowChecks, overflowSpills, overflowRefetches,
            overflowStalls, svStalls, fmmWritebacks, fmmRefetches,
            mtidRejectedSpills, vclDisplacements, vclWritebacks,
            vclInvalidations, logAppends, nonspecWritethroughs,
            versionsCreated, dispatches, commits, commitOverflowFetches,
            eagerWritebacks, barrierMergeCycles, invocations,
            finalMergeLines, squashEvents, tasksSquashed,
            recoveryEntriesReplayed, valuePredictions,
            valueValidations, valueMispredicts;
    };
    StatIds sid_;
    std::uint64_t squashEvents_ = 0;
    std::uint64_t tasksSquashed_ = 0;
    // Time-weighted speculative-task integrals.
    double specTaskIntegral_ = 0.0;
    unsigned specTasksNow_ = 0;
    Cycle specTasksSince_ = 0;
    // Footprint sums over committed tasks.
    std::uint64_t footprintWords_ = 0;
    std::uint64_t footprintPrivWords_ = 0;
    Cycle execDurSum_ = 0;
    Cycle commitDurSum_ = 0;
    std::uint64_t commitSamples_ = 0;

    // --- helpers ---
    TaskRecord &rec(TaskId id) { return tasks_[id - 1]; }
    unsigned homeOf(Addr line) const { return cfg_.machine.homeOf(line); }
    unsigned numProcs() const { return cfg_.machine.numProcs; }

    void specTasksDelta(int delta);

    /** Give @p r a cleared footprint for the execution it starts. */
    void takeFootprint(TaskRecord &r);
    /** Take @p r's footprint back (its execution ended), capacity kept. */
    void returnFootprint(TaskRecord &r);

    void tryDispatch(ProcId proc);
    void tryDispatchAll();

    void maybeCommit();
    /**
     * Predict+Validate: compare the task's logged predictions against
     * the now-architectural state at commit-token acquisition. On a
     * misprediction the task (and its successors) squash through the
     * ordinary violation path and false is returned; on success the
     * log group is dropped, the predictor is trained, and the compare
     * pipeline's cycles are returned via @p cost_out.
     */
    bool validatePredictions(TaskId id, Cycle *cost_out);
    void finishCommit(TaskId id);
    Cycle mergeTaskState(TaskId id, Cycle start);
    /** Lazy AMM's end-of-invocation merge; @return when it finishes. */
    Cycle finalMerge(Cycle start);
    void advanceInvocation();
    void releaseNextInvocation();
    void endSection();

    void performSquash(TaskId first_bad, ProcId writer_proc);
    void squashOne(TaskId id);
    void runRecoveryQueue();
    void scheduleAmmRecovery(ProcId proc, Cycle cycles);
    void resumeOverflowWaiters();
    void vclMergeLine(Addr line, Cycle now);

    /** Timing of a fetch of version @p v (nullptr = arch) into @p proc. */
    Cycle fetchLatency(ProcId proc, Addr line, VersionInfo *v, Cycle now,
                       Source *src_out);
    /** Contention-charged round trip to the home directory. */
    Cycle dirRoundTrip(ProcId proc, unsigned home, Cycle now,
                       bool data_reply);
    /**
     * Second-level hop cost of hierarchical directory banking: nonzero
     * when the machine clusters its directory banks and requester and
     * home sit in different clusters (scaled machines only).
     */
    Cycle
    dirClusterPenalty(ProcId proc, unsigned home) const
    {
        if (clusterOfNode_.empty())
            return 0;
        return clusterOfNode_[nodeOfProc_[proc]] ==
                       clusterOfNode_[nodeOfHome_[home]]
                   ? 0
                   : cfg_.machine.latDirCluster;
    }
    /** Background write-back of one line to its home (returns finish). */
    Cycle backgroundWriteBack(ProcId proc, Addr line, Cycle when);

    /** @return extra foreground cycles (overflow spill handling). */
    Cycle insertLineL2(ProcId proc, const mem::CacheLineState &line,
                       Cycle now, bool *stall_overflow);
    void handleL2Eviction(ProcId proc, const mem::CacheLineState &victim,
                          Cycle now);
    void insertLineL1(ProcId proc, Addr line, mem::VersionTag tag,
                      Cycle now);

    /**
     * FMM: take the in-memory slot of @p line away from its current
     * holder (a write-back by @p proc is about to overwrite it). If
     * losing the slot would leave the old holder with no location at
     * all, it is parked in @p proc's MHB — the hardware saves the
     * displaced version to the history buffer before the overwrite
     * (paper Figure 7-c) — so later fetches retrieve it from there.
     * @p winner (the version taking the slot) is never demoted.
     */
    void stealMemoryHolder(Addr line, const VersionInfo *winner,
                           ProcId proc);

    cpu::LoadReply seqLoad(ProcId proc, Addr addr, Cycle now);
    cpu::StoreReply seqStore(ProcId proc, Addr addr, Cycle now);

    /**
     * Shared speculative-load body. @p note controls whether the read
     * is registered with the violation detector: true for the in-order
     * core (read performs and retires atomically), false for the OoO
     * core's issue-time access (bookkeeping deferred to
     * noteLoadRetire, per-retirement).
     */
    cpu::LoadReply loadForTask(ProcId proc, Addr addr, Cycle now,
                               bool note);

    /**
     * Producer whose version a read of @p addr by @p reader observes at
     * the detector's granularity (0 = architectural): one probe of the
     * version index.
     */
    TaskId observedProducer(Addr addr, TaskId reader);

    /**
     * Register @p task's read of detection word @p word, which observed
     * @p observed's version, unless the read returned the task's own
     * write. Only the first recorded read of a word counts: its
     * @p observed is the one the detector keeps.
     */
    void noteReadRecord(TaskId task, Addr word, TaskId observed);

    /**
     * Fault injection: displace the just-created version @p tag of
     * @p line out of proc's L2 immediately (forced capacity pressure).
     * @return extra foreground cycles charged to the store.
     */
    Cycle faultSpillVersion(ProcId proc, Addr line, mem::VersionTag tag,
                            Cycle now);

    RunResult collectResult();
};

} // namespace tlsim::tls

#endif // TLSIM_TLS_ENGINE_HPP
