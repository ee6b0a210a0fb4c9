/**
 * @file
 * tlsim_perfbench: one benchmark run of one workload.
 *
 *   tlsim_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                   [--spans FILE]
 *   tlsim_perfbench --list-metrics
 *
 * Untraced (--trace 0): rounds until S seconds have passed, at least 3.
 * A round builds every point's workload and engine twice (setup_s),
 * runs the per-point pass at 1 thread, and sweeps through the sweep API
 * at 1 thread and at T threads; the oracles check every round. Traced
 * (--trace 1): the same rounds, then one per-point pass that times
 * trace generation and records spans. Prints one line per metric, then
 * a JSON object with the metrics of the mode as its last line.
 * perfbench/README.md documents every metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "tls/run_result.hpp"

using namespace perfbench;

namespace {

/** Set-up-only passes per round; setup_s is their median. */
constexpr int kSetupPassesPerRound = 2;
/** Rounds per run at least, whatever --seconds says. */
constexpr std::size_t kMinRounds = 3;
/** Sweep workers: a closed loop of min(4, cores) threads. */
constexpr unsigned kMaxThreads = 4;

struct MetricDef {
    const char *name;
    const char *unit;
    /** Reported by the traced pass (per-layer) instead of untraced. */
    bool traced;
};

/** Every metric the benchmark reports; BENCHMARK.json lists the same. */
constexpr MetricDef kMetrics[] = {
    {"wall_s", "s", false},
    {"wall_1t_s", "s", false},
    {"point_ms_p50", "ms", false},
    {"point_ms_tail", "ms", false},
    {"sim_accesses_per_s", "1/s", false},
    {"setup_s", "s", false},
    {"peak_rss_mb", "MB", false},
    {"apps.ctor_s", "s", true},
    {"apps.gen_s", "s", true},
    {"apps.ops", "count", true},
    {"apps.traces", "count", true},
    {"apps.ns_per_op", "ns", true},
    {"tls.ctor_s", "s", true},
    {"tls.run_self_s", "s", true},
    {"tls.teardown_s", "s", true},
    {"tls.ns_per_access", "ns", true},
    {"tls.point_s_max", "s", true},
    {"sim.parallel_eff", "ratio", true},
    {"trace.overhead", "ratio", true},
    {"trace.unattributed_share", "ratio", true},
    {"mem.accesses", "count", true},
    {"mem.l1_hits", "count", true},
    {"mem.l2_hits", "count", true},
    {"mem.remote_cache_fetches", "count", true},
    {"mem.memory_fetches", "count", true},
    {"mem.overflow_spills", "count", true},
    {"mem.overflow_fetches", "count", true},
    {"mem.mhb_fetches", "count", true},
    {"tls.versions_created", "count", true},
    {"tls.final_merge_lines", "count", true},
    {"tls.eager_writebacks", "count", true},
    {"tls.vcl_writebacks", "count", true},
    {"tls.log_appends", "count", true},
    {"tls.recovery_entries_replayed", "count", true},
    {"tls.squash_events", "count", true},
    {"tls.tasks_squashed", "count", true},
    {"tls.useful_ratio", "ratio", true},
    {"cpu.busy_cycles", "cycles", true},
    {"cpu.mem_stall_cycles", "cycles", true},
    {"cpu.token_stall_cycles", "cycles", true},
    {"cpu.recovery_cycles", "cycles", true},
    {"cpu.end_stall_cycles", "cycles", true},
    {"model.exec_cycles", "cycles", true},
};

/** RunResult counters summed into mem.* / tls.* metrics. */
constexpr std::pair<const char *, const char *> kCounterMetrics[] = {
    {"mem.l1_hits", "l1_hits"},
    {"mem.l2_hits", "l2_hits"},
    {"mem.remote_cache_fetches", "remote_cache_fetches"},
    {"mem.memory_fetches", "memory_fetches"},
    {"mem.overflow_spills", "overflow_spills"},
    {"mem.overflow_fetches", "overflow_fetches"},
    {"mem.mhb_fetches", "mhb_fetches"},
    {"tls.versions_created", "versions_created"},
    {"tls.final_merge_lines", "final_merge_lines"},
    {"tls.eager_writebacks", "eager_writebacks"},
    {"tls.vcl_writebacks", "vcl_writebacks"},
    {"tls.log_appends", "log_appends"},
    {"tls.recovery_entries_replayed", "recovery_entries_replayed"},
};

/** Cycle kinds summed into cpu.* metrics. */
constexpr std::pair<const char *, tlsim::CycleKind> kCycleMetrics[] = {
    {"cpu.busy_cycles", tlsim::CycleKind::Busy},
    {"cpu.mem_stall_cycles", tlsim::CycleKind::MemStall},
    {"cpu.token_stall_cycles", tlsim::CycleKind::TokenStall},
    {"cpu.recovery_cycles", tlsim::CycleKind::RecoveryWork},
    {"cpu.end_stall_cycles", tlsim::CycleKind::EndStall},
};

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::string spansPath;
    bool listMetrics = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "tlsim_perfbench: %s\n"
                 "usage: tlsim_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans FILE]\n"
                 "       tlsim_perfbench --list-metrics\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list-metrics") {
            opt.listMetrics = true;
            continue;
        }
        std::string value;
        std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(("missing value for " + arg).c_str());
        }
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 0);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            opt.trace = int(std::strtol(value.c_str(), &end, 10));
        } else if (arg == "--spans") {
            opt.spansPath = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
        if (end != nullptr && (*end != '\0' || value.empty()))
            usage(("bad value for " + arg).c_str());
    }
    if (!opt.listMetrics && opt.workload.empty())
        usage("--workload is required");
    if (opt.trace != 0 && opt.trace != 1)
        usage("--trace must be 0 or 1");
    return opt;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Fastest of repeated timings of the same deterministic work: noise
 * from other tenants of a shared host only ever adds time.
 */
double
fastest(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

std::uint64_t
accessesOf(const tls::RunResult &r)
{
    return r.counters.get("loads") + r.counters.get("stores");
}

/** Rounds of the untraced measurement, folded as they complete. */
struct Rounds {
    std::vector<std::vector<double>> pointS; ///< per point, per round
    std::vector<double> setupS, passS, wall1S, wallTS;
    std::vector<tls::RunResult> results; ///< last per-point pass
    std::uint64_t digestPoint = 0, digest1 = 0, digestT = 0;
    OracleReport oracle;

    /** Host seconds of point @p i: its fastest round. */
    double pointTime(std::size_t i) const { return fastest(pointS[i]); }

    /** Per-point pass time, summed over pointTime(). */
    double
    pointSumS() const
    {
        double sum = 0;
        for (std::size_t i = 0; i < pointS.size(); ++i)
            sum += pointTime(i);
        return sum;
    }
};

void
runRound(const WorkloadDef &def, const std::vector<Point> &points,
         unsigned threads, Rounds &rounds)
{
    for (int rep = 0; rep < kSetupPassesPerRound; ++rep) {
        double sum = 0;
        for (const Point &p : points)
            sum += setupPoint(def, p);
        rounds.setupS.push_back(sum);
    }
    rounds.pointS.resize(points.size());
    rounds.results.clear();
    std::vector<std::uint64_t> digests;
    double pass = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointRun run = runPoint(def, points[i], false);
        rounds.pointS[i].push_back(run.timing.totalS());
        pass += run.timing.totalS();
        digests.push_back(pointDigest(run.result, points[i].sequential));
        rounds.results.push_back(std::move(run.result));
    }
    rounds.passS.push_back(pass);

    auto sweep = [&def](unsigned n, std::vector<double> &times) {
        double t0 = nowS();
        std::vector<std::uint64_t> digests = sweepDigests(def, n);
        times.push_back(nowS() - t0);
        return digests;
    };
    std::vector<std::uint64_t> d1 = sweep(1, rounds.wall1S);
    std::vector<std::uint64_t> dT = sweep(threads, rounds.wallTS);

    std::printf("round %zu: per-point pass %.3f s, sweep 1 thread %.3f s, "
                "sweep %u threads %.3f s\n",
                rounds.passS.size(), pass, rounds.wall1S.back(), threads,
                rounds.wallTS.back());
    rounds.digestPoint = simDigest(digests);
    rounds.digest1 = simDigest(d1);
    rounds.digestT = simDigest(dT);
    OracleReport rep = checkRound(def, rounds.results, {d1, dT});
    rounds.oracle.attempted += rep.attempted;
    rounds.oracle.failed += rep.failed;
    for (std::string &f : rep.failures)
        rounds.oracle.failures.push_back(std::move(f));
}

/** The traced pass: per-layer host time from spans, plus simulated work. */
void
tracedPass(const WorkloadDef &def, const std::vector<Point> &points,
           const Options &opt, const Rounds &rounds, unsigned threads,
           std::map<std::string, double> &m, OracleReport &oracle)
{
    SpanLog spans;
    GenStats gen;
    std::uint64_t committed = 0, squashed = 0, squash_events = 0;
    std::uint64_t accesses = 0, exec_cycles = 0;
    std::map<std::string, std::uint64_t> counts;
    tlsim::CycleBreakdown cycles;
    const double t0 = nowS();
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointRun run = runPoint(def, points[i], true);
        spans.addPoint(def.label(points[i]), run);
        gen.ns += run.gen.ns;
        gen.ops += run.gen.ops;
        gen.traces += run.gen.traces;
        const tls::RunResult &r = run.result;
        // Timing generation must not change what is simulated.
        ++oracle.attempted;
        if (pointDigest(r, points[i].sequential) !=
            pointDigest(rounds.results[i], points[i].sequential)) {
            ++oracle.failed;
            oracle.failures.push_back(def.label(points[i]) +
                                      ": traced result differs");
        }
        accesses += accessesOf(r);
        exec_cycles += r.execTime;
        committed += r.committedTasks;
        squashed += r.tasksSquashed;
        squash_events += r.squashEvents;
        for (const auto &[metric, counter] : kCounterMetrics)
            counts[metric] += r.counters.get(counter);
        cycles += r.total;
    }
    const double wall = nowS() - t0;

    std::map<std::string, double> self;
    for (const auto &[name, s] : spans.selfTimes())
        self[name] = s;
    const double total = spans.pointTotalS();
    const double untraced = rounds.pointSumS();
    m["apps.ctor_s"] = self["workload.ctor"];
    m["apps.gen_s"] = self["apps.gen"];
    m["apps.ops"] = double(gen.ops);
    m["apps.traces"] = double(gen.traces);
    m["apps.ns_per_op"] = gen.ops ? double(gen.ns) / double(gen.ops) : 0;
    m["tls.ctor_s"] = self["engine.ctor"];
    m["tls.run_self_s"] = self["engine.run"];
    m["tls.teardown_s"] = self["teardown"];
    m["tls.ns_per_access"] =
        accesses ? self["engine.run"] * 1e9 / double(accesses) : 0;
    double point_max = 0;
    for (std::size_t i = 0; i < points.size(); ++i)
        point_max = std::max(point_max, rounds.pointTime(i));
    m["tls.point_s_max"] = point_max;
    m["sim.parallel_eff"] =
        fastest(rounds.wall1S) / (threads * fastest(rounds.wallTS));
    m["trace.overhead"] = total / untraced;
    // Pass time outside every point span: the benchmark's own work.
    m["trace.unattributed_share"] = (wall - total) / wall;
    m["mem.accesses"] = double(accesses);
    for (const auto &[metric, n] : counts)
        m[metric] = double(n);
    m["tls.squash_events"] = double(squash_events);
    m["tls.tasks_squashed"] = double(squashed);
    m["tls.useful_ratio"] =
        double(committed) / double(committed + squashed);
    for (const auto &[metric, kind] : kCycleMetrics)
        m[metric] = double(cycles.get(kind));
    m["model.exec_cycles"] = double(exec_cycles);

    std::printf("traced pass: %zu points in %.3f s, %.3f s inside points "
                "(untraced %.3f s); self time apps.ctor %.3f + apps.gen "
                "%.3f + tls.ctor %.3f + tls.run_self %.3f + teardown %.3f "
                "= %.3f s\n",
                points.size(), wall, total, untraced,
                self["workload.ctor"], self["apps.gen"],
                self["engine.ctor"], self["engine.run"], self["teardown"],
                self["workload.ctor"] + self["apps.gen"] +
                    self["engine.ctor"] + self["engine.run"] +
                    self["teardown"]);
    if (!opt.spansPath.empty()) {
        if (spans.writeJson(opt.spansPath, def.name))
            std::printf("spans written to %s\n", opt.spansPath.c_str());
        else
            std::fprintf(stderr, "cannot write spans to %s\n",
                         opt.spansPath.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    if (opt.listMetrics) {
        for (const MetricDef &d : kMetrics)
            std::printf("%s %s %d\n", d.name, d.unit, d.traced ? 1 : 0);
        return 0;
    }
    WorkloadDef def;
    if (!makeWorkloadDef(opt.workload, opt.seed, &def))
        usage(("unknown workload " + opt.workload).c_str());
    const std::vector<Point> points = def.points();
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads = std::min(kMaxThreads, hw);
    const double t_start = nowS();
    std::printf("workload %s (seed %" PRIu64 "): %zu points on %s, "
                "%s core, %u sweep threads\n  why: %s\n",
                def.name.c_str(), opt.seed, points.size(),
                def.machine.name.c_str(),
                tlsim::mem::coreModelName(def.machine.coreModel), threads,
                def.why.c_str());

    std::map<std::string, double> m;
    Rounds rounds;
    do {
        runRound(def, points, threads, rounds);
    } while (rounds.passS.size() < kMinRounds ||
             nowS() - t_start < opt.seconds);

    std::vector<double> point_ms;
    std::uint64_t accesses = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        point_ms.push_back(rounds.pointTime(i) * 1e3);
        accesses += accessesOf(rounds.results[i]);
    }
    std::sort(point_ms.begin(), point_ms.end());
    // Highest percentile with at least ten points above it.
    std::size_t tail_idx = point_ms.size() > 10 ? point_ms.size() - 11
                                                 : point_ms.size() - 1;
    m["setup_s"] = median(rounds.setupS);
    m["wall_s"] = fastest(rounds.wallTS);
    m["wall_1t_s"] = fastest(rounds.wall1S);
    m["point_ms_p50"] = median(point_ms);
    m["point_ms_tail"] = point_ms[tail_idx];
    m["sim_accesses_per_s"] = double(accesses) / rounds.pointSumS();
    m["peak_rss_mb"] = peakRssMb();

    OracleReport oracle = rounds.oracle;
    if (opt.trace)
        tracedPass(def, points, opt, rounds, threads, m, oracle);

    const std::size_t rounds_n = rounds.passS.size();
    const double tail_pct = 100.0 * double(tail_idx + 1) /
                            double(point_ms.size());
    std::printf("%zu rounds in %.1f s; times are each point's or sweep's "
                "fastest round, setup_s the median set-up pass\n",
                rounds_n, nowS() - t_start);
    for (const MetricDef &d : kMetrics) {
        if (!m.count(d.name))
            continue;
        std::string note;
        std::string name = d.name;
        if (name == "wall_s")
            note = std::to_string(points.size()) + " points, " +
                   std::to_string(threads) + " threads";
        else if (name == "wall_1t_s" || name == "point_ms_p50" ||
                 name == "sim_accesses_per_s")
            note = std::to_string(points.size()) + " points, 1 thread";
        else if (name == "point_ms_tail")
            note = "p" + std::to_string(int(tail_pct)) + " of " +
                   std::to_string(points.size()) + " points, " +
                   std::to_string(points.size() - tail_idx - 1) +
                   " above it";
        else if (name == "setup_s")
            note = "median of " + std::to_string(rounds.setupS.size()) +
                   " set-up passes over " + std::to_string(points.size()) +
                   " points";
        std::printf("  %-30s %14.6g %-6s %s\n", d.name, m[d.name], d.unit,
                    note.c_str());
    }
    const double fail_ratio =
        oracle.attempted ? double(oracle.failed) / double(oracle.attempted)
                         : 1.0;
    std::printf("  %-30s %14.6g %-6s %zu of %zu point checks failed\n",
                "fail_ratio", fail_ratio, "ratio", oracle.failed,
                oracle.attempted);
    for (const std::string &f : oracle.failures)
        std::printf("  FAIL %s\n", f.c_str());
    const bool digests_agree = rounds.digestPoint == rounds.digest1 &&
                               rounds.digest1 == rounds.digestT;
    std::printf("  sim_digest %016" PRIx64 " (per-point pass), %016" PRIx64
                " (sweep, 1 thread), %016" PRIx64 " (sweep, %u threads): %s\n",
                rounds.digestPoint, rounds.digest1, rounds.digestT, threads,
                digests_agree ? "equal" : "DIFFER");

    const bool correct = oracle.failed == 0 && digests_agree;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", oracle.attempted, oracle.failed);
    const char *sep = "";
    for (const MetricDef &d : kMetrics) {
        if (d.traced != bool(opt.trace))
            continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    d.name, m.at(d.name), d.unit);
        sep = ", ";
    }
    std::printf("}}\n");
    return 0;
}
