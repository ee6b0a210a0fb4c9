/**
 * @file
 * Shared helpers for the figure/table bench drivers.
 */

#ifndef TLSIM_BENCH_BENCH_COMMON_HPP
#define TLSIM_BENCH_BENCH_COMMON_HPP

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/fault.hpp"
#include "common/parallel_for.hpp"
#include "common/trace.hpp"
#include "mem/machine_params.hpp"

namespace tlsim::bench {

/**
 * Parse the value of a count flag such as `--threads` or `--reps`: a
 * whole number >= 1, saturated at @p max. Exits with an error on
 * anything else.
 */
inline unsigned
parseCount(const char *flag, const char *value, unsigned max = UINT_MAX)
{
    char *end = nullptr;
    long v = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || v < 1) {
        std::fprintf(stderr, "%s wants a count >= 1, got '%s'\n", flag,
                     value);
        std::exit(1);
    }
    return v > long(max) ? max : unsigned(v);
}

/**
 * Parse a `--threads N` / `--threads=N` flag for sweep drivers.
 *
 * Returns 0 ("auto": TLSIM_THREADS env, else hardware concurrency)
 * when the flag is absent; larger counts than kMaxSweepThreads are
 * capped. The thread count only affects wall-clock time — every
 * figure table is byte-identical at any value.
 */
inline unsigned
parseThreads(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--threads") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--threads wants a count\n");
                std::exit(1);
            }
            return parseCount("--threads", argv[i + 1], kMaxSweepThreads);
        }
        if (std::strncmp(arg, "--threads=", 10) == 0)
            return parseCount("--threads", arg + 10, kMaxSweepThreads);
    }
    return 0;
}

/**
 * Parse a `--core MODEL` / `--core=MODEL` flag for the simulation
 * drivers: which processor timing model drives the cores
 * (docs/OOO_CORE.md). `inorder` — the default — is byte-identical to
 * the pre-flag drivers; `ooo` enables the bounded-window out-of-order
 * model with relaxed-order speculative loads. Exits with an error on
 * an unknown name.
 */
inline mem::CoreModelKind
parseCoreModel(int argc, char **argv)
{
    const char *value = nullptr;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--core") == 0 && i + 1 < argc)
            value = argv[++i];
        else if (std::strncmp(arg, "--core=", 7) == 0)
            value = arg + 7;
    }
    mem::CoreModelKind kind = mem::CoreModelKind::InOrder;
    if (value != nullptr && !mem::parseCoreModelName(value, &kind)) {
        std::fprintf(stderr,
                     "--core wants 'inorder' or 'ooo', got '%s'\n",
                     value);
        std::exit(1);
    }
    return kind;
}

/**
 * Parse a `--faults SPEC` / `--faults=SPEC` flag for the simulation
 * drivers (grammar: see fault::FaultSpec). Returns an inert spec when
 * the flag is absent; exits with the parse error when it is malformed.
 * Faulted figure tables are for robustness experiments — they are
 * still deterministic per spec, but they are *not* the paper's
 * numbers, so drivers print the canonical spec to stderr as a banner.
 */
inline fault::FaultSpec
parseFaults(int argc, char **argv)
{
    const char *spec = nullptr;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--faults") == 0 && i + 1 < argc)
            spec = argv[++i];
        else if (std::strncmp(arg, "--faults=", 9) == 0)
            spec = arg + 9;
    }
    fault::FaultSpec faults;
    if (spec != nullptr) {
        std::string err;
        if (!fault::FaultSpec::parse(spec, &faults, &err)) {
            std::fprintf(stderr, "--faults: %s\n", err.c_str());
            std::exit(1);
        }
        if (faults.anyEnabled())
            std::fprintf(stderr, "faults: %s\n",
                         faults.canonical().c_str());
    }
    return faults;
}

/**
 * RAII task-lifetime trace session for a figure driver
 * (docs/TRACING.md). Flags / environment:
 *
 *   --trace=FILE / --trace FILE   write the binary trace to FILE
 *   TLSIM_TRACE=FILE              same, via the environment
 *   --trace-json=FILE             also write Perfetto trace_event JSON
 *   --trace-mask=SPEC             categories to record (task, version,
 *                                 undo, noc, core, audit, all)
 *
 * Recording starts in the constructor when any sink was requested and
 * the sinks are written in the destructor, after the driver's sweeps
 * finished. All session chatter goes to stderr so the figure tables
 * on stdout stay byte-identical with and without tracing.
 */
class TraceSession
{
  public:
    TraceSession(int argc, char **argv, std::uint32_t default_mask,
                 std::size_t ring_capacity)
    {
        const char *bin = std::getenv("TLSIM_TRACE");
        const char *mask_spec = nullptr;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--trace") == 0 && i + 1 < argc)
                bin = argv[++i];
            else if (std::strncmp(arg, "--trace=", 8) == 0)
                bin = arg + 8;
            else if (std::strncmp(arg, "--trace-json=", 13) == 0)
                jsonPath_ = arg + 13;
            else if (std::strncmp(arg, "--trace-mask=", 13) == 0)
                mask_spec = arg + 13;
        }
        if (bin != nullptr && *bin != '\0')
            binPath_ = bin;
        if (binPath_.empty() && jsonPath_.empty())
            return;
        if (!trace::builtIn()) {
            std::fprintf(stderr,
                         "trace: requested but this build has "
                         "TLSIM_TRACE=OFF; ignoring\n");
            return;
        }
        trace::Options opts;
        opts.mask = mask_spec != nullptr
                        ? trace::parseMask(mask_spec, default_mask)
                        : default_mask;
        opts.ringCapacity = ring_capacity;
        trace::start(opts);
        active_ = true;
    }

    ~TraceSession()
    {
        if (!active_)
            return;
        trace::stop();
        trace::TraceFile file = trace::drainFile();
        std::string err;
        if (!binPath_.empty()) {
            if (trace::writeBinary(binPath_, file, &err))
                std::fprintf(stderr,
                             "trace: %zu records (%llu dropped) -> "
                             "%s\n",
                             file.records.size(),
                             (unsigned long long)file.dropped,
                             binPath_.c_str());
            else
                std::fprintf(stderr, "trace: %s\n", err.c_str());
        }
        if (!jsonPath_.empty()) {
            if (trace::writeJson(jsonPath_, file, &err))
                std::fprintf(stderr, "trace: Perfetto JSON -> %s\n",
                             jsonPath_.c_str());
            else
                std::fprintf(stderr, "trace: %s\n", err.c_str());
        }
        trace::reset();
    }

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    bool active() const { return active_; }

  private:
    std::string binPath_;
    std::string jsonPath_;
    bool active_ = false;
};

} // namespace tlsim::bench

#endif // TLSIM_BENCH_BENCH_COMMON_HPP
