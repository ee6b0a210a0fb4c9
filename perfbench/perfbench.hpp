/**
 * @file
 * The tlsim end-to-end benchmark: its workloads, the passes that run
 * them (per point, or through the sweep API), the correctness oracles
 * and the traced pass's in-memory spans. main.cpp turns these into the
 * metrics BENCHMARK.json declares; README.md explains each of them.
 *
 * Everything here drives the simulator only through its public API,
 * exactly the way the figure drivers do, so the benchmark measures the
 * program users run. Host time inside SpeculationEngine is not split
 * further: the event kernel, versioned caches, VersionMap, detector and
 * NoC are built inside the engine, out of reach of the benchmark. Their
 * work shows up as the simulated counts of each point's RunResult.
 */

#ifndef TLSIM_PERFBENCH_HPP
#define TLSIM_PERFBENCH_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_params.hpp"
#include "apps/synth_workload.hpp"
#include "mem/machine_params.hpp"
#include "tls/run_result.hpp"
#include "tls/scheme.hpp"
#include "tls/workload.hpp"

namespace perfbench {

namespace tls = tlsim::tls;

/** One simulation point: a draw's sequential baseline or one scheme. */
struct Point {
    /** Index into WorkloadDef::apps (or ::specs): the workload draw. */
    std::size_t draw = 0;
    bool sequential = false;
    tls::SchemeConfig scheme;
};

/**
 * A named benchmark workload: one machine, a list of workload draws and
 * the schemes each draw runs under, plus each draw's sequential
 * baseline — the shape of one figure sweep.
 */
struct WorkloadDef {
    std::string name;
    /** Why the workload is in the benchmark (which layers it loads). */
    std::string why;
    tlsim::mem::MachineParams machine;
    /** Calibrated loops (sim::runStudySweep); empty for synth draws. */
    std::vector<tlsim::apps::AppParams> apps;
    /** Generated streams (sim::runSynthSweep); empty for loop draws. */
    std::vector<tlsim::apps::SynthSpec> specs;
    std::vector<tls::SchemeConfig> schemes;

    std::size_t draws() const;
    /** Points in sweep order: per draw, its baseline, then each scheme. */
    std::vector<Point> points() const;
    /** "Bdna/MultiT&MV Lazy AMM", "synth-graph/seq". */
    std::string label(const Point &p) const;
    /** Tasks the point must commit. */
    unsigned numTasks(const Point &p) const;
    /**
     * The point's workload, seeded exactly as the sweep API seeds it:
     * derivePointSeed (replication 0) for an app's scheme points, the
     * app's own seed for its baseline, the spec's seed for synth draws.
     */
    std::unique_ptr<tls::Workload> makeWorkload(const Point &p) const;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name. @p seed is added to every draw's base seed
 * (AppParams::seed or SynthSpec::seed) and nowhere else; seed 0 gives
 * the figure drivers' points. Returns false for an unknown name.
 */
bool makeWorkloadDef(const std::string &name, std::uint64_t seed,
                     WorkloadDef *out);

/**
 * Fingerprint of one point's simulated result. A baseline contributes
 * its execTime only (all the sweep API returns for it); a scheme point
 * adds its cycle breakdowns, counters, task tallies and memStateHash.
 */
std::uint64_t pointDigest(const tls::RunResult &r, bool sequential);

/** Fold of per-point digests in sweep order: the workload's sim_digest. */
std::uint64_t simDigest(const std::vector<std::uint64_t> &digests);

/** Host seconds of one point, split at the calls the benchmark makes. */
struct PointTiming {
    double workloadCtorS = 0;
    double engineCtorS = 0;
    double runS = 0;
    /** Engine and workload destruction. */
    double teardownS = 0;

    double
    totalS() const
    {
        return workloadCtorS + engineCtorS + runS + teardownS;
    }
};

/** Generation work seen through the timing decorator (traced only). */
struct GenStats {
    /** Host ns inside Workload::makeTrace and TaskTrace::next. */
    std::uint64_t ns = 0;
    /** TaskTrace::next calls. */
    std::uint64_t ops = 0;
    /** Workload::makeTrace calls (one per task execution). */
    std::uint64_t traces = 0;
    /** nowS() at the first makeTrace; -1 before it. */
    double firstS = -1;
};

struct PointRun {
    tls::RunResult result;
    /** nowS() when the point started. */
    double startS = 0;
    PointTiming timing;
    GenStats gen;
};

/** Replaces a point's workload before it is simulated (fault tests). */
using WorkloadWrap = std::function<std::unique_ptr<tls::Workload>(
    const Point &, std::unique_ptr<tls::Workload>)>;

/**
 * Simulate one point the way sim::runScheme / runSequential /
 * runSynthScheme / runSynthSequential do with no result cache: build
 * the workload and a SpeculationEngine, run() it. With @p traced, the
 * workload is wrapped in a decorator that times makeTrace and every
 * TaskTrace::next (per-op timing: never on the untraced pass).
 */
PointRun runPoint(const WorkloadDef &def, const Point &p, bool traced,
                  const WorkloadWrap &wrap = {});

/** Host seconds to build one point's workload and engine (dropped
 *  afterwards, untimed). */
double setupPoint(const WorkloadDef &def, const Point &p);

/**
 * Run the whole workload through sim::runStudySweep / runSynthSweep at
 * @p threads and return each point's digest in points() order.
 */
std::vector<std::uint64_t> sweepDigests(const WorkloadDef &def,
                                        unsigned threads);

/** Verdicts of the correctness oracles over one round. */
struct OracleReport {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** One line per failed point. */
    std::vector<std::string> failures;
};

/**
 * Check one round of @p results (per-point pass, points() order):
 *  - every speculative point commits all of its tasks;
 *  - every scheme of one draw agrees on memStateHash and memStateLines
 *    (the majority value; baselines carry no version state);
 *  - each point's digest is the same in every pass of @p other_passes.
 * A point fails if any oracle trips for it.
 */
OracleReport checkRound(const WorkloadDef &def,
                        const std::vector<tls::RunResult> &results,
                        const std::vector<std::vector<std::uint64_t>>
                            &other_passes);

/**
 * In-memory span log of the traced pass: one "point" span per point
 * with children workload.ctor, engine.ctor, engine.run and teardown;
 * engine.run has one apps.gen child that aggregates the point's
 * generation time (its start is the first makeTrace, its count the ops).
 */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        /** Index of the parent span; -1 for a point. */
        int parent = -1;
        double startS = 0;
        double durS = 0;
        std::uint64_t count = 0;
    };

    /** Record the spans of one traced point. */
    void addPoint(const std::string &label, const PointRun &run);

    /** Self seconds per span name, summed over points. */
    std::vector<std::pair<std::string, double>> selfTimes() const;
    /** Summed duration of the "point" spans. */
    double pointTotalS() const;

    /** Write every span as JSON (one object per line inside a list). */
    bool writeJson(const std::string &path,
                   const std::string &workload) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::string> labels_;
};

/** Current host time in seconds since an arbitrary fixed epoch. */
double nowS();

} // namespace perfbench

#endif // TLSIM_PERFBENCH_HPP
