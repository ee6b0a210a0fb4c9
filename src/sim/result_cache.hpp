/**
 * @file
 * Content-addressed, on-disk RunResult cache (DESIGN.md §10).
 *
 * Every simulation point is a pure function of its configuration:
 * derived seeds, one event queue per point and canonical sweep
 * aggregation mean the same point produces a byte-identical RunResult
 * at any thread count. That is exactly the property that makes
 * results memoizable, and this layer exploits it: each point is folded
 * into a 128-bit PointKey and its full RunResult is persisted under
 * that key, so repeat and overlapping sweeps cost only the novel
 * points.
 *
 * Key discipline (the whole correctness argument):
 *   - anything that can change a RunResult feeds the key — workload
 *     parameters (AppParams / SynthSpec, seed included), the scheme,
 *     every MachineParams timing/geometry/capacity knob, the canonical
 *     FaultSpec (when any site can fire), the sequential flag, and a
 *     build-time code-version hash of the whole src/ tree
 *     (cmake/CodeVersion.cmake), so any source change invalidates
 *     every key;
 *   - anything that provably cannot change a RunResult stays out —
 *     sweep threads, trace flags, reporting-only AppParams fields
 *     (paper* columns, Table 3 Level classes).
 *
 * Store discipline: entries are one file per key, sharded by the top
 * key byte, written via temp-file + atomic rename (concurrent writers
 * of the same key are safe — last rename wins with identical bytes).
 * Every entry carries a format version, the full key and a checksum;
 * a truncated, bit-flipped or version-mismatched entry is a *miss*
 * (counted as corrupt) and is rewritten, never trusted.
 */

#ifndef TLSIM_SIM_RESULT_CACHE_HPP
#define TLSIM_SIM_RESULT_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <string>

#include "apps/app_params.hpp"
#include "apps/synth_workload.hpp"
#include "common/fault.hpp"
#include "mem/machine_params.hpp"
#include "tls/run_result.hpp"
#include "tls/scheme.hpp"

namespace tlsim::sim {

/** 128-bit content address of one simulation point. */
struct PointKey {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const PointKey &) const = default;

    /** 32 lowercase hex digits; the store's file name. */
    std::string hex() const;
};

/**
 * Incremental 128-bit folder the key derivations stream fields into.
 *
 * Allocation-free by construction (bench_hotpath gates this): fields
 * are mixed into two lanes word-by-word with distinct odd multipliers,
 * no canonical string is ever materialized. Every fold site also mixes
 * a site tag, so field reordering or an empty-string/zero confusion
 * cannot alias two different configurations onto one key.
 */
class KeyHasher
{
  public:
    KeyHasher();

    void u64(std::uint64_t v);
    /** Doubles fold as raw bit patterns: exact, no rounding aliasing. */
    void f64(double v);
    void str(std::string_view s);

    PointKey done() const { return {hi_, lo_}; }

  private:
    std::uint64_t hi_;
    std::uint64_t lo_;
};

/** The code-version hash compiled into this binary (16 hex chars). */
const char *codeVersion();

/**
 * Key of one (app, scheme, machine, faults) point. @p sequential keys
 * the baseline run (scheme and faults are ignored by the engine there,
 * so they are excluded — a baseline shares its cache entry across
 * schemes, exactly as runStudySweep shares the simulation).
 */
PointKey appPointKey(const apps::AppParams &app,
                     const tls::SchemeConfig &scheme,
                     const mem::MachineParams &machine,
                     const fault::FaultSpec &faults, bool sequential);

/** Key of one (synth spec, scheme, machine, faults) point. */
PointKey synthPointKey(const apps::SynthSpec &spec,
                       const tls::SchemeConfig &scheme,
                       const mem::MachineParams &machine,
                       const fault::FaultSpec &faults, bool sequential);

/**
 * Canonical binary serialization of a RunResult (every field,
 * doubles as raw bits). Round-trips exactly: serialize(deserialize(b))
 * == b, which is what lets --cache-verify compare *bytes* instead of
 * fields.
 */
std::string serializeRunResult(const tls::RunResult &r);

/** Inverse of serializeRunResult. False on malformed input. */
bool deserializeRunResult(std::string_view bytes, tls::RunResult *out);

/** Monotonic tallies of one cache instance (atomics: sweeps are
 *  multi-threaded and every worker shares the cache). */
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t corrupt = 0;  ///< entries rejected, then overwritten
    std::uint64_t verified = 0; ///< hits recomputed by --cache-verify
};

/**
 * The on-disk store. Thread-safe: all members are const after
 * construction except the atomic counters, and the filesystem ops are
 * per-key-file with atomic renames.
 */
class ResultCache
{
  public:
    /** Entry format version: bump when the entry layout or the
     *  RunResult serialization changes. */
    static constexpr std::uint32_t kFormatVersion = 1;

    /** Opens (creating directories as needed) the store at @p dir. */
    explicit ResultCache(std::string dir);

    /**
     * Look @p key up. On a valid entry: deserializes into @p out,
     * optionally copies the raw stored payload into @p payload (the
     * byte-compare side of --cache-verify) and returns true. A
     * missing, truncated, checksum- or version-mismatched entry
     * returns false (corrupt ones also bump stats().corrupt).
     */
    bool fetch(const PointKey &key, tls::RunResult *out,
               std::string *payload = nullptr);

    /** Persist @p r under @p key (temp file + atomic rename). */
    void store(const PointKey &key, const tls::RunResult &r);

    /** True if a *valid* entry for @p key exists (no stats update). */
    bool contains(const PointKey &key);

    /**
     * Fraction of hits to recompute-and-byte-compare (--cache-verify).
     * The draw is a pure function of (key, fraction), so whether a
     * given point is verified does not depend on sweep order.
     */
    void setVerifyFraction(double p) { verifyFraction_ = p; }
    bool shouldVerify(const PointKey &key) const;

    /**
     * Byte-compare a freshly recomputed result against the stored
     * payload of @p key; hard-fails (message + abort) on any
     * difference — a divergence means either nondeterminism or a
     * stale key, both of which poison every figure built on the
     * cache. @p label names the point in the failure message.
     */
    void verifyAgainst(const PointKey &key, const std::string &payload,
                       const tls::RunResult &fresh,
                       const char *label);

    CacheStats stats() const;

    const std::string &dir() const { return dir_; }

    /** Render stats as a one-line JSON object (CI artifact). */
    static std::string statsJson(const CacheStats &s);

  private:
    std::string pathOf(const PointKey &key) const;
    bool readEntry(const PointKey &key, std::string *payload,
                   bool count);

    std::string dir_;
    double verifyFraction_ = 0.0;
    std::atomic<std::uint64_t> seq_{0}; ///< temp-file uniquifier
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> stores_{0};
    mutable std::atomic<std::uint64_t> corrupt_{0};
    mutable std::atomic<std::uint64_t> verified_{0};
};

/**
 * Install @p cache as the process-wide memo store consulted by
 * runScheme / runSynthScheme / runSequential / runSynthSequential
 * (nullptr disables memoization — the default). Not owned. Callers
 * install once before fanning out a sweep (bench_common.hpp's
 * CacheSession RAII); the pointer itself is not synchronized against
 * concurrent install/uninstall during a running sweep.
 */
void setResultCache(ResultCache *cache);

/** The installed store, or nullptr. */
ResultCache *resultCache();

} // namespace tlsim::sim

#endif // TLSIM_SIM_RESULT_CACHE_HPP
