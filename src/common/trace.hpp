/**
 * @file
 * Task-lifetime tracing and self-audit layer.
 *
 * A lock-free, per-thread ring-buffer tracer emitting typed records
 * (task lifecycle, version movement, undo-log activity, NoC messages,
 * commit-token handoffs) with simulated-cycle timestamps. The record
 * schema, binary format and audit invariants are specified in
 * docs/TRACING.md — that document is the contract for external
 * tooling; keep it in sync (tests/test_trace.cpp diffs the Kind enum
 * against its record table).
 *
 * Cost model:
 *  - Instrumentation points use the TLSIM_TRACE_EVENT macros, which
 *    compile to nothing when the TLSIM_TRACE CMake option is OFF.
 *  - When built in but not enabled at runtime, an instrumentation
 *    point costs one relaxed atomic load and one predictable branch.
 *  - When enabled, each record is one 32-byte store into a per-thread
 *    ring buffer; no locks, no allocation after the ring warms up.
 *
 * Threading: emission is safe from any thread (each thread owns its
 * ring; the registry mutex is taken once per thread per session).
 * Session control (start/stop/drain/reset) must only be called while
 * no simulation is running — the drivers call them around sweeps.
 */

#ifndef TLSIM_COMMON_TRACE_HPP
#define TLSIM_COMMON_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

#ifndef TLSIM_TRACE_ENABLED
#define TLSIM_TRACE_ENABLED 0
#endif

namespace tlsim::trace {

// --------------------------------------------------------------------
// Record schema (see docs/TRACING.md for the authoritative table)
// --------------------------------------------------------------------

/** Typed trace-record kinds. Values are part of the binary format. */
enum class Kind : std::uint8_t {
    // task lifecycle
    TaskSpawn = 0,    ///< first dispatch of a task
    TaskRestart = 1,  ///< re-dispatch after a squash
    TaskFinish = 2,   ///< task finished executing (still speculative)
    TokenHandoff = 3, ///< commit token granted to a task
    TaskCommit = 4,   ///< task became architectural
    TaskSquash = 5,   ///< task execution thrown away
    // version movement
    VersionCreate = 6,   ///< speculative version created
    VersionRemove = 7,   ///< version dropped from the version map
    VersionMerge = 8,    ///< version written back to main memory
    VersionOverflow = 9, ///< version spilled to an overflow area
    // undo log (MHB, FMM schemes)
    UndoAppend = 10,  ///< one MHB entry appended
    UndoDrop = 11,    ///< a committed task's MHB group freed
    UndoRecover = 12, ///< a squashed task's MHB group drained
    // interconnect
    NocSend = 13,    ///< message injected at its source node
    NocDeliver = 14, ///< message finished traversing the network
    // core pipeline (emitted only by the OoO core model)
    CoreIssue = 15,  ///< memory op entered the instruction window
    CoreRetire = 16, ///< memory op retired in program order
    LsqReplay = 17,  ///< in-flight load replayed after a remote store
    // value prediction (PredictValidate schemes only)
    ValuePredict = 18,   ///< read consumed a predicted value
    ValueValidate = 19,  ///< logged prediction validated at commit
    ValueMispredict = 20 ///< validation failed; consumer squashes
};

inline constexpr std::size_t kNumKinds = 21;

/** Stable lower-case name of a record kind (doc/table identity). */
const char *kindName(Kind k);

/** Bit of one kind inside a category mask. */
constexpr std::uint32_t
kindBit(Kind k)
{
    return 1u << unsigned(k);
}

/** @name Category masks (select which kinds are recorded) */
///@{
inline constexpr std::uint32_t kMaskTask =
    kindBit(Kind::TaskSpawn) | kindBit(Kind::TaskRestart) |
    kindBit(Kind::TaskFinish) | kindBit(Kind::TokenHandoff) |
    kindBit(Kind::TaskCommit) | kindBit(Kind::TaskSquash);
inline constexpr std::uint32_t kMaskVersion =
    kindBit(Kind::VersionCreate) | kindBit(Kind::VersionRemove) |
    kindBit(Kind::VersionMerge) | kindBit(Kind::VersionOverflow);
inline constexpr std::uint32_t kMaskUndo =
    kindBit(Kind::UndoAppend) | kindBit(Kind::UndoDrop) |
    kindBit(Kind::UndoRecover);
inline constexpr std::uint32_t kMaskNoc =
    kindBit(Kind::NocSend) | kindBit(Kind::NocDeliver);
/** OoO core pipeline records (docs/OOO_CORE.md). Opt-in: excluded
 * from kMaskAudit/kMaskAll so default traces (and their binary-header
 * mask bytes) are unchanged for runs that never emit them. */
inline constexpr std::uint32_t kMaskCore =
    kindBit(Kind::CoreIssue) | kindBit(Kind::CoreRetire) |
    kindBit(Kind::LsqReplay);
/** Value-prediction records (PredictValidate schemes). Opt-in like
 * kMaskCore: excluded from kMaskAudit/kMaskAll so default traces (and
 * their binary-header mask bytes) are unchanged for runs that never
 * emit them. */
inline constexpr std::uint32_t kMaskValue =
    kindBit(Kind::ValuePredict) | kindBit(Kind::ValueValidate) |
    kindBit(Kind::ValueMispredict);
/** Everything the audit invariants consume (all but the NoC firehose). */
inline constexpr std::uint32_t kMaskAudit =
    kMaskTask | kMaskVersion | kMaskUndo;
inline constexpr std::uint32_t kMaskAll = kMaskAudit | kMaskNoc;
///@}

/** @name Core-record arg packing (CoreIssue/CoreRetire/LsqReplay)
 *
 * arg = [31] store flag | [30:20] execution epoch | [19:0] memory-op
 * sequence number within the execution. The epoch increments on every
 * dispatch (including restarts) so the audit can segment a core's
 * record stream into executions without task correlation.
 */
///@{
constexpr std::uint32_t
packCoreArg(bool is_store, std::uint32_t epoch, std::uint32_t seq)
{
    return (is_store ? 0x80000000u : 0u) | ((epoch & 0x7FFu) << 20) |
           (seq & 0xFFFFFu);
}
constexpr bool
coreArgIsStore(std::uint32_t arg)
{
    return (arg & 0x80000000u) != 0;
}
constexpr std::uint32_t
coreArgEpoch(std::uint32_t arg)
{
    return (arg >> 20) & 0x7FFu;
}
constexpr std::uint32_t
coreArgSeq(std::uint32_t arg)
{
    return arg & 0xFFFFFu;
}
///@}

/**
 * Parse a comma/plus-separated category list ("task,version", "all",
 * "audit", "task+noc") into a mask. Unknown tokens are ignored;
 * returns @p fallback when nothing parses.
 */
std::uint32_t parseMask(std::string_view spec, std::uint32_t fallback);

/** @name Scheme byte */
///@{
/** The run was a sequential (non-speculative) baseline. */
inline constexpr std::uint8_t kSchemeSequential = 0xFE;
/** No engine has declared a scheme on this thread. */
inline constexpr std::uint8_t kSchemeUnknown = 0xFF;

/**
 * Pack a taxonomy point into the record's scheme byte:
 * low nibble = separation * 3 + merging (0..8), bit 4 = software log,
 * bit 5 = PredictValidate value-validation policy.
 * @p separation and @p merging are the raw enum values of
 * tls::Separation / tls::Merging (this header cannot depend on tls/).
 */
constexpr std::uint8_t
packScheme(unsigned separation, unsigned merging, bool software_log,
           bool predicts_values = false)
{
    return std::uint8_t((separation * 3 + merging) |
                        (software_log ? 0x10 : 0) |
                        (predicts_values ? 0x20 : 0));
}

/** Human-readable label, e.g. "MultiT&MV/FMM.Sw", "sequential". */
std::string schemeLabel(std::uint8_t s);
///@}

/**
 * One trace record. 32 bytes, no padding; written to the binary sink
 * verbatim (host endianness — little-endian everywhere we run).
 *
 * Field use per kind is specified in docs/TRACING.md. Conventions:
 * `task` is the TaskId (or the NoC message class for NocSend/Deliver),
 * `addr` is a line address (or the destination node), `arg` is the
 * kind-specific payload (incarnation, entry count, hop count, ...).
 * `stream`/`scheme`/`rep` identify the simulation the record belongs
 * to — required because the parallel sweep runner interleaves many
 * simulations over the same per-thread rings.
 */
struct Record {
    std::uint64_t cycle; ///< simulated cycle of the event
    std::uint64_t addr;  ///< line address / NoC destination node
    std::uint32_t task;  ///< task ID (dense, small) / NoC msg class
    std::uint32_t arg;   ///< kind-specific payload
    std::uint32_t stream; ///< sweep-point identity (see streamId)
    std::uint8_t kind;   ///< Kind
    std::uint8_t scheme; ///< packScheme / kSchemeSequential / unknown
    std::uint8_t rep;    ///< replication index within the sweep
    std::uint8_t proc;   ///< processor or NoC source node; 0xFF = n/a

    bool
    operator==(const Record &o) const
    {
        return cycle == o.cycle && addr == o.addr && task == o.task &&
               arg == o.arg && stream == o.stream && kind == o.kind &&
               scheme == o.scheme && rep == o.rep && proc == o.proc;
    }
};

static_assert(sizeof(Record) == 32, "Record is part of the binary "
                                    "format; see docs/TRACING.md");

// --------------------------------------------------------------------
// Runtime tracer
// --------------------------------------------------------------------

/** True when the tracing layer is compiled in (TLSIM_TRACE=ON). */
constexpr bool
builtIn()
{
    return TLSIM_TRACE_ENABLED != 0;
}

namespace detail {
extern std::atomic<bool> g_on;
} // namespace detail

/** True while a trace session is recording. One relaxed load. */
inline bool
enabled()
{
    return detail::g_on.load(std::memory_order_relaxed);
}

/** Session parameters. */
struct Options {
    /** Which record kinds to keep (kindBit / category masks). */
    std::uint32_t mask = kMaskAll;
    /**
     * Per-thread ring capacity in records. When a ring is full the
     * oldest records are overwritten and counted as dropped; the
     * audit refuses truncated traces, so size generously for audit
     * runs (memory is only committed as records are emitted).
     */
    std::size_t ringCapacity = std::size_t(1) << 20;
};

/** Begin a session: clears previous data, then starts recording. */
void start(const Options &opts = {});

/** Stop recording (data is kept for drain()). */
void stop();

/** Mask of the current/last session. */
std::uint32_t sessionMask();

/** Records lost to ring wrap-around so far. */
std::uint64_t droppedRecords();

/**
 * Collect every record from every thread's ring in canonical order:
 * grouped by ascending (stream, scheme, rep), emission order within a
 * group. One sweep point runs entirely on one thread, so a group's
 * emission order is well-defined and identical for every thread
 * count — drained traces are byte-for-byte deterministic.
 * Call only after the sweep finished (after parallelFor returned).
 */
std::vector<Record> drain();

/** Drop all buffered records and per-thread rings; stops recording. */
void reset();

/** @name Ambient per-thread context */
///@{
/**
 * Bind the simulated clock records are stamped with (the engine binds
 * its event queue's now-pointer for its lifetime). nullptr → cycle 0.
 */
void bindClock(const Cycle *clock);

/** Declare the scheme byte of subsequent records on this thread. */
void setScheme(std::uint8_t scheme);

/**
 * Identity of one sweep point's record stream: a 32-bit hash of
 * (application name, machine name, sweep ordinal). Pure function of
 * the point's identity, never of scheduling, so streams are stable
 * across thread counts and runs.
 */
std::uint32_t streamId(std::string_view app, std::string_view machine,
                       unsigned sweep_ordinal = 0);

/**
 * Claim the next sweep ordinal (0, 1, 2, ...). The study runner folds
 * this into streamId so repeated sweeps over the same (app, machine)
 * pair within one process get distinct streams. start()/reset() zero
 * the counter, which keeps stream identities reproducible from one
 * session to the next (the 1-thread vs 8-thread determinism check
 * compares raw records, stream ids included).
 */
unsigned nextSweepOrdinal();

/** RAII stream/replication context for one sweep-point job. */
class ScopedPoint
{
  public:
    ScopedPoint(std::uint32_t stream, std::uint8_t rep);
    ~ScopedPoint();
    ScopedPoint(const ScopedPoint &) = delete;
    ScopedPoint &operator=(const ScopedPoint &) = delete;

  private:
    std::uint32_t prevStream_;
    std::uint8_t prevRep_;
};
///@}

/** @name Record emission (prefer the TLSIM_TRACE_EVENT macros) */
///@{
/** Emit with an explicit timestamp (e.g. future NoC delivery). */
void emitAt(Cycle cycle, Kind k, unsigned proc, std::uint64_t task,
            std::uint64_t addr, std::uint64_t arg);

/** Emit stamped with the bound clock's current cycle. */
void emit(Kind k, unsigned proc, std::uint64_t task, std::uint64_t addr,
          std::uint64_t arg);
///@}

// --------------------------------------------------------------------
// Sinks
// --------------------------------------------------------------------

/** An in-memory trace plus the session metadata the sinks persist. */
struct TraceFile {
    std::uint32_t mask = kMaskAll;
    std::uint64_t dropped = 0;
    std::vector<Record> records;
};

/** drain() plus the session metadata, ready for a sink. */
TraceFile drainFile();

/**
 * Write the compact binary format (48-byte header + raw records);
 * docs/TRACING.md specifies the layout. Returns false on I/O error
 * (message in @p err if given).
 */
bool writeBinary(const std::string &path, const TraceFile &file,
                 std::string *err = nullptr);

/** Read a binary trace; validates magic, version and record size. */
bool readBinary(const std::string &path, TraceFile *out,
                std::string *err = nullptr);

/**
 * Write Chrome/Perfetto trace_event JSON (load in ui.perfetto.dev or
 * chrome://tracing). Task execution and commit become duration
 * slices; everything else becomes instant events. One simulated cycle
 * is rendered as one microsecond. Intended for small runs — the JSON
 * is ~100x the binary size.
 */
bool writeJson(const std::string &path, const TraceFile &file,
               std::string *err = nullptr);

// --------------------------------------------------------------------
// Self-audit
// --------------------------------------------------------------------

/** Result of replaying a trace against the cross-component invariants. */
struct AuditReport {
    std::size_t records = 0;
    std::size_t streams = 0;
    /** Invariant checks evaluated (counts successful checks too). */
    std::size_t checks = 0;
    std::vector<std::string> issues;

    bool ok() const { return issues.empty(); }

    /** Multi-line human-readable report. */
    std::string summary() const;
};

/**
 * Replay @p file and re-verify the cross-component invariants listed
 * in docs/TRACING.md §Audit (commit order matches token order, no
 * version survives its task's squash, every squashed task's undo
 * entries are drained, ...). Checks are gated on the categories
 * present in file.mask; a truncated trace (dropped > 0) fails.
 */
AuditReport audit(const TraceFile &file);

} // namespace tlsim::trace

/**
 * Instrumentation macros: compiled out entirely when the TLSIM_TRACE
 * CMake option is OFF (arguments are not evaluated), one branch when
 * built in but not recording.
 */
#if TLSIM_TRACE_ENABLED
#define TLSIM_TRACE_EVENT(kind, proc, task, addr, arg)                 \
    do {                                                               \
        if (::tlsim::trace::enabled())                                 \
            ::tlsim::trace::emit((kind), (proc), (task), (addr),       \
                                 (arg));                               \
    } while (0)
#define TLSIM_TRACE_EVENT_AT(cycle, kind, proc, task, addr, arg)       \
    do {                                                               \
        if (::tlsim::trace::enabled())                                 \
            ::tlsim::trace::emitAt((cycle), (kind), (proc), (task),    \
                                   (addr), (arg));                     \
    } while (0)
#else
#define TLSIM_TRACE_EVENT(kind, proc, task, addr, arg) do { } while (0)
#define TLSIM_TRACE_EVENT_AT(cycle, kind, proc, task, addr, arg)       \
    do { } while (0)
#endif

#endif // TLSIM_COMMON_TRACE_HPP
