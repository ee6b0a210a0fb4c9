/**
 * @file
 * Tracked hot-path benchmark: measures the structures on the per-event
 * / per-access critical path and writes BENCH_hotpath.json so the perf
 * trajectory is comparable across PRs (schema: one object per bench,
 * `{"bench": name, "metric": value, "unit": unit}`).
 *
 * Honest A/B: the binary embeds the pre-optimization event kernel
 * (std::priority_queue of std::function callbacks with a lazy
 * cancelled-id set), the pre-flat-map memory-state containers (MTID,
 * overflow area, undo log, version home index) and measures the
 * retained name-scan CounterSet wrapper, so the "legacy" numbers are
 * produced by the same build with the same flags, not remembered from
 * an old report.
 *
 * Each A/B runs kTrialPairs interleaved trial pairs, alternating which
 * side goes first; its `*_speedup` is the median of the per-pair
 * ratios, so one trial disturbed by host load cannot flip the gate.
 *
 * The binary also interposes global operator new/delete with a
 * counting wrapper and asserts the schedule and memory-access fast
 * paths perform zero allocations at steady state — the regression
 * guard for the allocation-free claim — and fails if any tracked
 * `*_speedup` metric drops below parity (the CI perf gate).
 *
 * Usage:
 *   bench_hotpath [--short] [--out FILE.json]
 *
 * --short shrinks iteration counts for CI (the CTest target); the
 * functional checks (allocation-free fast path, end-to-end
 * determinism) run in both modes.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_hotpath_legacy.hpp"
#include "common/event_queue.hpp"
#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "mem/mtid_table.hpp"
#include "mem/overflow_area.hpp"
#include "mem/undo_log.hpp"
#include "sim/study.hpp"
#include "tls/task.hpp"
#include "tls/version_map.hpp"
#include "tls/violation_detector.hpp"

// --------------------------------------------------------------------
// Counting allocator interposition
// --------------------------------------------------------------------

namespace {
std::atomic<long long> g_allocCount{0};
}

void *
operator new(std::size_t n)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(std::size_t(al),
                                     (n + std::size_t(al) - 1) /
                                         std::size_t(al) *
                                         std::size_t(al)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

// free() is the right counterpart for both new paths above (malloc and
// aligned_alloc); GCC's -Wmismatched-new-delete can't see that through
// the replaced globals, so quiet it for this shim block.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace tlsim::bench {

// --------------------------------------------------------------------
// Harness
// --------------------------------------------------------------------

struct BenchResult {
    std::string bench;
    double metric;
    std::string unit;
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Trial pairs per A/B. Each pair times one trial of each side back to
 * back, so a host-load swing hits both sides of a pair alike; the
 * gated ratio is the median over pairs, which a few disturbed pairs
 * cannot move.
 */
constexpr int kTrialPairs = 7;

/** One A/B: medians of each side's trial rates and of the pair ratios. */
struct AbResult {
    double newRate;
    double legacyRate;
    double speedup;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Run kTrialPairs interleaved trial pairs; each trial returns a rate
 * (higher is better). Which side runs first alternates from pair to
 * pair, so neither side always inherits the other's cache state.
 */
template <typename NewTrial, typename LegacyTrial>
AbResult
interleavedPairs(NewTrial &&new_trial, LegacyTrial &&legacy_trial)
{
    std::vector<double> fresh, legacy, ratios;
    for (int pair = 0; pair < kTrialPairs; ++pair) {
        double n = 0, o = 0;
        if (pair % 2 == 0) {
            n = new_trial();
            o = legacy_trial();
        } else {
            o = legacy_trial();
            n = new_trial();
        }
        fresh.push_back(n);
        legacy.push_back(o);
        ratios.push_back(n / o);
    }
    return {median(fresh), median(legacy), median(ratios)};
}

/**
 * The simulator's schedule pattern, reproduced in steady state: every
 * core keeps about one outstanding event (so the queue holds O(#cores)
 * events, not thousands), each event reschedules its successor with a
 * short mixed delay, callbacks are 40 bytes (a this pointer plus a
 * 32-byte payload: more than the 24 bytes a core wait captures, so
 * the conservative case), and ~1/8 of events are scheduled and then
 * cancelled before they fire, like aborted waits on a squash.
 */
template <typename Queue>
struct ChurnDriver {
    Queue &eq;
    long quota; // stop rescheduling after this many fires
    long fired = 0;
    long sink = 0;
    std::uint64_t pendingCancel = 0;
    unsigned delay = 0;

    /** Pads the capture to 8 + 32 bytes (see above). */
    struct Payload {
        std::uint64_t pad[4];
    };

    void
    fire(const Payload &p)
    {
        sink += long(p.pad[0]);
        ++fired;
        if (fired < quota)
            next();
    }

    void
    next()
    {
        delay = (delay + 11) % 97;
        Payload p{{std::uint64_t(delay) + 1, 0, 0, 0}};
        eq.scheduleIn(Cycle(delay), [this, p] { fire(p); });
        if ((fired & 7) == 3) {
            eq.cancel(pendingCancel);
            Payload q{{1, 0, 0, 0}};
            pendingCancel = eq.scheduleIn(
                Cycle(60 + unsigned(fired % 37)),
                [this, q] { fire(q); });
        }
    }
};

/** @return wall seconds; adds the number of events fired to @p fired. */
template <typename Queue>
double
eventChurn(Queue &eq, long quota, int chains, long &fired, long &sink)
{
    ChurnDriver<Queue> d{eq, quota};
    auto start = Clock::now();
    for (int i = 0; i < chains; ++i)
        d.next();
    eq.run();
    double secs = secondsSince(start);
    fired += d.fired;
    sink += d.sink;
    return secs;
}

constexpr int kChurnChains = 64; // ~ one outstanding event per core

/** Event kernel A/B in events/sec; the new queue's steady-state
 *  allocations land in @p allocs_out. */
AbResult
benchEventQueue(long quota, long long *allocs_out)
{
    EventQueue eq;
    LegacyEventQueue legacy;
    long sink = 0;
    // Warm the slabs and the heap arrays to steady-state capacity.
    long warm = 0;
    eventChurn(eq, quota / 16 + 1, kChurnChains, warm, sink);
    eventChurn(legacy, quota / 16 + 1, kChurnChains, warm, sink);
    *allocs_out = 0;
    auto trial = [&](auto &queue) {
        long fired = 0;
        double secs = eventChurn(queue, quota, kChurnChains, fired, sink);
        if (fired < quota)
            std::abort(); // callbacks must actually have run
        return double(fired) / secs;
    };
    AbResult r = interleavedPairs(
        [&] {
            long long before = g_allocCount.load();
            double rate = trial(eq);
            *allocs_out += g_allocCount.load() - before;
            return rate;
        },
        [&] { return trial(legacy); });
    if (sink == 0)
        std::abort();
    return r;
}

/** ~30 live counters, like a speculation run; hit one deep in the
 *  table, as the scan-path worst-but-typical case. */
CounterSet
populatedCounters()
{
    CounterSet c;
    const char *names[] = {
        "loads", "stores", "l1_hits", "l2_hits", "l3_hits",
        "memory_fetches", "remote_cache_fetches", "overflow_fetches",
        "mhb_fetches", "overflow_checks", "overflow_spills",
        "overflow_refetches", "overflow_stalls", "sv_stalls",
        "fmm_writebacks", "fmm_refetches", "mtid_rejected_spills",
        "vcl_displacements", "vcl_writebacks", "vcl_invalidations",
        "log_appends", "nonspec_writethroughs", "versions_created",
        "dispatches", "commits", "commit_overflow_fetches",
        "eager_writebacks", "barrier_merge_cycles", "invocations",
        "final_merge_lines"};
    for (const char *n : names)
        c.intern(n);
    return c;
}

/**
 * Per-iteration optimizer barriers: without them the compiler hoists
 * the interned `entries_[id] += 1` out of the loop and reports an
 * absurd rate. `opaque` hides a value's provenance; `clobberMemory`
 * forces each increment to actually reach memory. Applied identically
 * to both counter paths so the A/B stays fair.
 */
template <typename T>
inline void
opaque(T &v)
{
    asm volatile("" : "+r"(v));
}

inline void
clobberMemory()
{
    asm volatile("" ::: "memory");
}

/** One trial of @p iters increments by name; incs/sec. */
double
counterTrialName(long iters)
{
    CounterSet c = populatedCounters();
    auto start = Clock::now();
    for (long i = 0; i < iters; ++i) {
        const char *name = "versions_created";
        opaque(name);
        c.inc(name);
        clobberMemory();
    }
    double secs = secondsSince(start);
    if (c.get("versions_created") != std::uint64_t(iters))
        std::abort();
    return double(iters) / secs;
}

/** One trial of @p iters increments by interned id; incs/sec. The
 *  timed loop's allocations are added to @p allocs. */
double
counterTrialInterned(long iters, long long *allocs)
{
    CounterSet c = populatedCounters();
    StatId id = c.intern("versions_created");
    long long allocs_before = g_allocCount.load();
    auto start = Clock::now();
    for (long i = 0; i < iters; ++i) {
        StatId cur = id;
        opaque(cur);
        c.inc(cur);
        clobberMemory();
    }
    double secs = secondsSince(start);
    *allocs += g_allocCount.load() - allocs_before;
    if (c.get(id) != std::uint64_t(iters))
        std::abort();
    return double(iters) / secs;
}

// --------------------------------------------------------------------
// Access-path A/B: the per-access memory-state container traffic
// --------------------------------------------------------------------

constexpr std::uint32_t kAccessLines = 1024;
constexpr Addr kAccessLineBase = 0x100000;
constexpr std::uint32_t kAccessWindow = 8;
constexpr std::uint32_t kAccessOpsPerRetire = 48;
constexpr unsigned kAccessProcs = 16;

/** The post-PR memory-state containers, as the engine composes them:
 *  the global version/MTID/overflow/undo structures plus the per-task
 *  footprints (read set and read log) and the violation detector that
 *  every load and store touches. The engine counts speculative writes
 *  from version masks at commit, so stores insert into no write set. */
struct NewMemState {
    tls::VersionMap vmap;
    mem::MtidTable mtid;
    mem::OverflowArea ovf;
    mem::UndoLog undo;
    tls::ViolationDetector det;
    std::vector<tls::TaskFootprint> footprints{kAccessWindow};
};

/** The verbatim pre-PR containers from bench_hotpath_legacy. */
struct LegacyMemState {
    LegacyVersionMap vmap;
    LegacyMtidTable mtid;
    LegacyOverflowArea ovf;
    LegacyUndoLog undo;
    LegacyViolationDetector det;
    std::vector<std::unordered_set<Addr>> readWords{kAccessWindow};
    std::vector<std::unordered_set<Addr>> writtenWords{kAccessWindow};
};

/** The pre-PR recovery API returned a fresh vector by value; the arena
 *  log drains into a reusable scratch buffer. Each side pays its own
 *  native cost. */
inline void
drainUndo(mem::UndoLog &log, TaskId task,
          std::vector<mem::UndoLogEntry> &out)
{
    log.takeForRecovery(task, out);
}

inline void
drainUndo(LegacyUndoLog &log, TaskId task,
          std::vector<mem::UndoLogEntry> &out)
{
    out = log.takeForRecovery(task);
}

/** The overflow area keeps only the spilled keys; the legacy table also
 *  stores (and OR-merges) a write mask that nothing reads. */
inline void
spill(mem::OverflowArea &ovf, Addr line, mem::VersionTag tag, std::uint8_t)
{
    ovf.put(line, tag);
}

inline void
spill(LegacyOverflowArea &ovf, Addr line, mem::VersionTag tag,
      std::uint8_t mask)
{
    ovf.put(line, tag, mask);
}

/** Deterministic 64-bit LCG; both A/B sides replay the same stream. */
struct BenchRng {
    std::uint64_t s;
    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return std::uint32_t(s >> 33);
    }
    std::uint32_t below(std::uint32_t n) { return next() % n; }
};

/**
 * Per-access read-only queries, expressed through each side's native
 * API — this is the core of the A/B. The post-PR engine probes the
 * home index once per access (listOf) and answers the visibility,
 * word-writer and own-version questions over the fetched list; the
 * pre-PR API had no such handle, so every query re-probed the
 * unordered_map, which is what the legacy engine code did. The handle
 * is only valid until the next structural change, mirroring the
 * engine's use.
 */
struct NewLineRef {
    tls::VersionList *list;
};

inline NewLineRef
probeLine(tls::VersionMap &m, Addr line)
{
    return {m.listOf(line)};
}

inline tls::VersionInfo *
qLatestVisible(tls::VersionMap &, NewLineRef ref, Addr, TaskId reader)
{
    return ref.list ? tls::VersionMap::latestVisibleIn(*ref.list, reader)
                    : nullptr;
}

inline tls::VersionInfo *
qFind(tls::VersionMap &, NewLineRef ref, Addr, mem::VersionTag tag)
{
    return ref.list ? tls::VersionMap::findIn(*ref.list, tag) : nullptr;
}

inline TaskId
qWordWriter(tls::VersionMap &, NewLineRef ref, Addr, std::uint8_t bit,
            TaskId reader)
{
    return ref.list
               ? tls::VersionMap::latestWordWriterIn(*ref.list, bit, reader)
               : 0;
}

/**
 * Per-task set traffic, each side's native pattern: the first-read
 * dedup that gates a detector record, the per-store write-set insert
 * (legacy only), and the retire-time read-record drain, which walks the
 * read log on the new side and the read set on the legacy side.
 */
inline void
reserveTaskSets(NewMemState &st, std::size_t n)
{
    for (tls::TaskFootprint &fp : st.footprints) {
        fp.readWords.reserve(n);
        fp.readLog.reserve(n);
    }
}

inline bool
firstRead(NewMemState &st, std::size_t slot, Addr w)
{
    return st.footprints[slot].noteRead(w);
}

inline void
noteWrite(NewMemState &, std::size_t, Addr)
{
}

inline void
dropReads(NewMemState &st, std::size_t slot, TaskId t)
{
    st.det.dropReader(t, st.footprints[slot].readLog);
    st.footprints[slot].clear();
}

inline void
dropScratchReads(NewMemState &st, TaskId t, const std::vector<Addr> &words)
{
    st.det.dropReader(t, words);
}

inline void
reserveTaskSets(LegacyMemState &st, std::size_t n)
{
    for (auto &s : st.readWords)
        s.reserve(n);
    for (auto &s : st.writtenWords)
        s.reserve(n);
}

inline bool
firstRead(LegacyMemState &st, std::size_t slot, Addr w)
{
    return st.readWords[slot].insert(w).second;
}

inline void
noteWrite(LegacyMemState &st, std::size_t slot, Addr w)
{
    st.writtenWords[slot].insert(w);
}

inline void
dropReads(LegacyMemState &st, std::size_t slot, TaskId t)
{
    st.det.dropReader(t, st.readWords[slot]);
    st.readWords[slot].clear();
    st.writtenWords[slot].clear();
}

inline void
dropScratchReads(LegacyMemState &st, TaskId t,
                 const std::vector<Addr> &words)
{
    st.det.dropReader(t,
                      std::unordered_set<Addr>(words.begin(), words.end()));
}

struct LegacyLineRef {
};

inline LegacyLineRef
probeLine(LegacyVersionMap &, Addr)
{
    return {};
}

inline tls::VersionInfo *
qLatestVisible(LegacyVersionMap &m, LegacyLineRef, Addr line,
               TaskId reader)
{
    return m.latestVisible(line, reader);
}

inline tls::VersionInfo *
qFind(LegacyVersionMap &m, LegacyLineRef, Addr line, mem::VersionTag tag)
{
    return m.find(line, tag);
}

inline TaskId
qWordWriter(LegacyVersionMap &m, LegacyLineRef, Addr line,
            std::uint8_t bit, TaskId reader)
{
    return m.latestWordWriter(line, bit, reader);
}

/**
 * Replays the engine's per-access container traffic against one bundle
 * of memory-state structures: every access probes the version home
 * index (the specLoad visibility query); a quarter are stores that hit
 * their own version or create one (undo-log append plus sorted version
 * insert); a slice are L2 evictions that either write back through the
 * MTID check or spill to the overflow area; and a sliding window of
 * in-flight tasks retires in order, committing (group drop, overflow
 * sweep) or squashing (MHB recovery replay into the MTID table).
 *
 * The footprint is bounded by construction — at most two versions per
 * line (so VersionList stays inline) and a fixed task window — so the
 * new side must reach zero allocations once warmed; checksum equality
 * between the two sides is asserted, so the A/B also functions as a
 * differential test of the flat containers against the node-based
 * originals.
 */
template <typename State>
struct AccessDriver {
    State st;
    BenchRng rng{0x5eed5eedull};

    static constexpr std::uint32_t kLines = kAccessLines;
    static constexpr Addr kLineBase = kAccessLineBase;
    static constexpr std::uint32_t kWindow = kAccessWindow;
    static constexpr std::uint32_t kOpsPerRetire = kAccessOpsPerRetire;

    TaskId oldest = 1;
    TaskId nextTask = 1;
    std::uint32_t sinceRetire = 0;
    std::uint32_t rr = 0; // round-robin reader cursor
    std::uint64_t checksum = 0;
    std::vector<std::vector<Addr>> dirty{kWindow};
    std::vector<mem::UndoLogEntry> recovery;

    /**
     * Accesses visit the window's tasks round-robin, so each task
     * issues exactly lifetime / kWindow = kOpsPerRetire accesses — a
     * small, deterministic per-task bound on undo-group size, read/
     * write-set size, dirty lines and overflow entries. Warm every
     * per-task structure to that bound here (it all drains again, so
     * both A/B sides start from the same empty abstract state); the
     * line-keyed tables saturate during the measured loop's warmup
     * run. Keeping the bounds tight matters for fairness: flat tables
     * sweep capacity, not live entries, on clear/eraseIf, so oversized
     * prewarm would tax only the new side.
     */
    AccessDriver()
    {
        constexpr std::uint32_t kPerTask = kOpsPerRetire + 16;
        const TaskId scratchTask = TaskId(1) << 30;
        recovery.reserve(kPerTask);
        for (auto &v : dirty)
            v.reserve(kPerTask);
        reserveTaskSets(st, kPerTask);
        for (TaskId t = 1; t <= TaskId(kWindow); ++t) {
            for (std::uint32_t i = 0; i < kPerTask; ++i)
                st.undo.append(t, mem::UndoLogEntry{});
            st.undo.dropTask(t);
        }
        // Overflow area and violation-word table: warm to the hard
        // bound of concurrently live entries (kWindow tasks times
        // kPerTask each), via a throwaway word list.
        std::vector<Addr> words;
        for (std::uint32_t i = 0; i < kWindow * kPerTask; ++i) {
            const Addr line = kLineBase + Addr(i % kLines) * 64;
            spill(st.ovf, line, mem::VersionTag{scratchTask + i, 1}, 1);
            words.push_back(line + (i / kLines) % 8);
            st.det.noteRead(line + (i / kLines) % 8, scratchTask, 0);
        }
        for (std::uint32_t i = 0; i < kWindow * kPerTask; ++i) {
            const Addr line = kLineBase + Addr(i % kLines) * 64;
            st.ovf.remove(line, mem::VersionTag{scratchTask + i, 1});
        }
        dropScratchReads(st, scratchTask, words);
    }

    static std::size_t slotOf(TaskId t) { return std::size_t(t % kWindow); }

    void
    step()
    {
        if (nextTask - oldest < kWindow) {
            dirty[slotOf(nextTask)].clear();
            ++nextTask;
        }
        const Addr line = kLineBase + Addr(rng.below(kLines)) * 64;
        // Round-robin across the window: every task issues exactly
        // kOpsPerRetire accesses over its lifetime, the bound the
        // constructor warms capacities to.
        const TaskId reader =
            oldest + TaskId(rr % std::uint32_t(nextTask - oldest));
        rr = (rr + 1) % kWindow;
        const std::size_t slot = slotOf(reader);
        const std::uint32_t roll = rng.next();
        const auto bit = std::uint8_t(1u << (roll & 7u));
        const mem::VersionTag tag{reader, 1};

        // One handle per access; every read-only query below goes
        // through it (the new side fetches the list once, the legacy
        // side re-probes the home index — each side's native pattern).
        auto ref = probeLine(st.vmap, line);

        // Load path: the visibility query every access starts with,
        // then the read-set dedup insert and (for first reads) the
        // word-writer query feeding the violation detector — the
        // specLoad sequence. Reading word `line + slot` keeps readers
        // per word disjoint across the window, which bounds the
        // detector's inline record storage. Copy what the store path
        // uses before any container call that could grow the home
        // index.
        mem::VersionTag prevTag = mem::VersionTag::arch();
        std::uint8_t prevMask = 0;
        if (auto *v = qLatestVisible(st.vmap, ref, line, reader)) {
            prevTag = v->tag;
            prevMask = v->writeMask;
            checksum += v->tag.producer + v->writeMask;
        }
        if (firstRead(st, slot, line + Addr(slot))) {
            st.det.noteRead(line + Addr(slot), reader,
                            qWordWriter(st.vmap, ref, line, bit, reader));
        }

        if ((roll & 3u) == 0) { // store
            const Addr wword = line + Addr((roll >> 8) & 7u);
            noteWrite(st, slot, wword);
            const TaskId victim = st.det.checkWrite(wword, reader);
            if (victim != kNoTask)
                checksum += victim;
            if (auto *own = qFind(st.vmap, ref, line, tag)) {
                own->writeMask |= bit;
                ++checksum;
            } else if (st.vmap.versionsOf(line).size() < 2) {
                // versionsOf/create may grow the index: ref is dead,
                // and nothing uses it past this point.
                st.undo.append(reader, {line, prevTag, prevMask, reader});
                st.vmap.create(line, tag, ProcId(reader % kAccessProcs))
                    .writeMask = bit;
                dirty[slot].push_back(line);
                checksum += 2;
            }
        } else if ((roll & 15u) == 1) { // L2 eviction of own version
            if (qFind(st.vmap, ref, line, tag)) {
                if ((roll & 16u) != 0 && st.mtid.wouldAccept(line, tag)) {
                    st.mtid.writeBack(line, tag);
                    ++checksum;
                } else {
                    spill(st.ovf, line, tag, bit);
                    checksum += st.ovf.size();
                }
            }
        }

        if (++sinceRetire >= kOpsPerRetire &&
            nextTask - oldest == kWindow) {
            sinceRetire = 0;
            retire();
        }
    }

    void
    retire()
    {
        const TaskId t = oldest++;
        const std::size_t slot = slotOf(t);
        const mem::VersionTag tag{t, 1};
        if (rng.below(8) == 0) { // squash: replay the MHB group
            drainUndo(st.undo, t, recovery);
            for (const mem::UndoLogEntry &e : recovery)
                st.mtid.set(e.line, e.oldVersion);
            checksum += recovery.size();
            // Squash discards every spilled version the task produced;
            // commits retire spills line-by-line below, as the engine
            // does when written-back versions drain.
            st.ovf.dropTask(t);
        } else { // commit: free the group
            st.undo.dropTask(t);
        }
        for (Addr l : dirty[slot]) {
            st.ovf.remove(l, tag);
            st.vmap.remove(l, tag);
        }
        dirty[slot].clear();
        dropReads(st, slot, t);
        checksum += st.det.recordsLive();
        checksum += st.undo.size() + st.ovf.size();
    }

    void
    run(long ops)
    {
        for (long i = 0; i < ops; ++i)
            step();
    }
};

/**
 * Access-path A/B in accesses/sec. Both drivers replay the same access
 * stream, so their checksums (@p sum_new, @p sum_legacy) must agree;
 * the new side's steady-state allocations land in @p allocs_out.
 */
AbResult
benchAccessPath(long ops, long long *allocs_out, std::uint64_t *sum_new,
                std::uint64_t *sum_legacy)
{
    AccessDriver<NewMemState> fresh;
    AccessDriver<LegacyMemState> legacy;
    // Warm every table and slab to steady-state capacity.
    fresh.run(ops);
    legacy.run(ops);
    *allocs_out = 0;
    auto trial = [ops](auto &driver) {
        auto start = Clock::now();
        driver.run(ops);
        return double(ops) / secondsSince(start);
    };
    AbResult r = interleavedPairs(
        [&] {
            long long before = g_allocCount.load();
            double rate = trial(fresh);
            *allocs_out += g_allocCount.load() - before;
            return rate;
        },
        [&] { return trial(legacy); });
    *sum_new = fresh.checksum;
    *sum_legacy = legacy.checksum;
    if (fresh.checksum == 0)
        std::abort();
    return r;
}

/**
 * End-to-end: one Figure-9-style point. Reports simulated accesses per
 * wall second and doubles as a determinism guard: two runs of the same
 * point must agree on every observable.
 */
std::vector<BenchResult>
benchEndToEnd(bool short_mode)
{
    apps::AppParams app = apps::tree();
    app.numTasks = short_mode ? 64 : 512;
    app.instrPerTask = short_mode ? 4000 : 20000;
    tls::SchemeConfig scheme{tls::Separation::MultiTMV,
                             tls::Merging::LazyAMM, false};
    mem::MachineParams machine = mem::MachineParams::numa16();

    auto start = Clock::now();
    tls::RunResult r1 = sim::runScheme(app, scheme, machine);
    double secs = secondsSince(start);
    tls::RunResult r2 = sim::runScheme(app, scheme, machine);

    if (r1 != r2) {
        std::fprintf(stderr,
                     "bench_hotpath: end-to-end point is not "
                     "deterministic\n");
        std::exit(1);
    }

    double accesses = double(r1.counters.get("loads")) +
                      double(r1.counters.get("stores"));
    return {{"hotpath_point_accesses", accesses / secs, "accesses/sec"},
            {"hotpath_point_wall", secs, "sec"}};
}

void
writeJson(const std::vector<BenchResult> &results, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "bench_hotpath: cannot write %s\n", path);
        std::exit(1);
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::fprintf(f,
                     "  {\"bench\": \"%s\", \"metric\": %.6g, "
                     "\"unit\": \"%s\"}%s\n",
                     results[i].bench.c_str(), results[i].metric,
                     results[i].unit.c_str(),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

int
benchMain(int argc, char **argv)
{
    bool short_mode = false;
    const char *out = "BENCH_hotpath.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--short") == 0) {
            short_mode = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_hotpath [--short] [--out FILE]\n");
            return 2;
        }
    }

    const long event_quota = short_mode ? 300'000 : 4'000'000;
    const long counter_iters = short_mode ? 2'000'000 : 50'000'000;
    const long access_quota = short_mode ? 300'000 : 3'000'000;

    std::vector<BenchResult> results;
    long long sched_allocs = 0, inc_allocs = 0, access_allocs = 0;
    std::uint64_t access_sum_new = 0, access_sum_legacy = 0;

    AbResult ev = benchEventQueue(event_quota, &sched_allocs);
    results.push_back({"event_queue_new", ev.newRate, "events/sec"});
    results.push_back({"event_queue_legacy", ev.legacyRate, "events/sec"});
    results.push_back({"event_queue_speedup", ev.speedup, "x"});
    results.push_back({"event_schedule_allocs", double(sched_allocs),
                       "allocs/steady-state-run"});

    AbResult cn = interleavedPairs(
        [&] { return counterTrialInterned(counter_iters, &inc_allocs); },
        [&] { return counterTrialName(counter_iters); });
    results.push_back({"counter_inc_interned", cn.newRate, "incs/sec"});
    results.push_back({"counter_inc_name", cn.legacyRate, "incs/sec"});
    results.push_back({"counter_speedup", cn.speedup, "x"});

    AbResult ap = benchAccessPath(access_quota, &access_allocs,
                                  &access_sum_new, &access_sum_legacy);
    results.push_back({"access_path_new", ap.newRate, "accesses/sec"});
    results.push_back(
        {"access_path_legacy", ap.legacyRate, "accesses/sec"});
    results.push_back({"access_path_speedup", ap.speedup, "x"});
    results.push_back({"access_path_allocs", double(access_allocs),
                       "allocs/steady-state-run"});

    for (BenchResult &r : benchEndToEnd(short_mode))
        results.push_back(r);

    // Functional guards (CI runs these through the --short CTest
    // target): the fast paths must be allocation-free at steady state.
    if (sched_allocs != 0) {
        std::fprintf(stderr,
                     "bench_hotpath: schedule fast path allocated %lld "
                     "times at steady state\n",
                     sched_allocs);
        return 1;
    }
    if (inc_allocs != 0) {
        std::fprintf(stderr,
                     "bench_hotpath: interned counter inc allocated\n");
        return 1;
    }
    if (access_allocs != 0) {
        std::fprintf(stderr,
                     "bench_hotpath: access path allocated %lld times "
                     "at steady state\n",
                     access_allocs);
        return 1;
    }
    if (access_sum_new != access_sum_legacy) {
        std::fprintf(stderr,
                     "bench_hotpath: access-path A/B sides diverged "
                     "(new %llu vs legacy %llu)\n",
                     (unsigned long long)access_sum_new,
                     (unsigned long long)access_sum_legacy);
        return 1;
    }

    // Perf-regression guard: every tracked A/B must stay at or above
    // parity. CI runs this through the --short CTest target, so a
    // change that makes any optimized path slower than its legacy
    // counterpart fails the build.
    for (const BenchResult &r : results) {
        if (r.bench.ends_with("_speedup") && r.metric < 1.0) {
            std::fprintf(stderr,
                         "bench_hotpath: %s regressed below 1.0x "
                         "(%.3f)\n",
                         r.bench.c_str(), r.metric);
            return 1;
        }
    }

    for (const BenchResult &r : results)
        std::printf("%-28s %14.6g %s\n", r.bench.c_str(), r.metric,
                    r.unit.c_str());
    writeJson(results, out);
    std::printf("wrote %s\n", out);
    return 0;
}

} // namespace tlsim::bench

int
main(int argc, char **argv)
{
    return tlsim::bench::benchMain(argc, argv);
}
