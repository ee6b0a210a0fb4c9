/**
 * @file
 * High-level drivers: run an application under one or many schemes on
 * one machine, normalize against SingleT-Eager and the sequential
 * baseline, and render paper-style figure tables.
 *
 * Sweeps are parallel: every (app, scheme, replication) point — plus
 * each app's sequential baseline — is an independent simulation, so
 * the runners fan points out over parallelFor (common/parallel_for.hpp)
 * and aggregate results in deterministic sweep order. Each point's workload seed is derived by
 * hashing the point's identity (see derivePointSeed), never from draw
 * order, so figure tables are byte-identical at any thread count
 * (including 1). Thread count: explicit argument > TLSIM_THREADS env
 * > hardware concurrency.
 */

#ifndef TLSIM_SIM_STUDY_HPP
#define TLSIM_SIM_STUDY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_suite.hpp"
#include "apps/synth_workload.hpp"
#include "common/fault.hpp"
#include "mem/machine_params.hpp"
#include "tls/engine.hpp"
#include "tls/run_result.hpp"
#include "tls/scheme.hpp"

namespace tlsim::sim {

/** One scheme's results for one application. */
struct SchemeOutcome {
    tls::SchemeConfig scheme;
    /** Result of the first replication (detailed breakdowns). */
    tls::RunResult result;
    /** Mean execution time across replications. */
    double meanExecTime = 0.0;
    /** Mean squash events across replications. */
    double meanSquashes = 0.0;
    /** Speedup over the sequential baseline (paper: numbers on bars). */
    double speedup = 0.0;
};

/** All schemes for one application on one machine. */
struct AppStudy {
    apps::AppParams app;
    mem::MachineParams machine;
    Cycle seqTime = 0;
    std::vector<SchemeOutcome> outcomes;

    /** Execution time normalized to the first outcome (SingleT Eager
     *  in the paper's figures). */
    double normalized(std::size_t idx) const;
    /** Busy share of outcome idx's machine time (0..1). */
    double busyShare(std::size_t idx) const;
};

/**
 * Simulate one (app, scheme, machine) point.
 * @param faults optional fault schedule; its seed is mixed with the
 *        app's workload seed (deriveFaultSeed), so the fault draw is a
 *        pure function of (spec, point) and a faulted run pairs with
 *        the fault-free run of the same app seed.
 */
tls::RunResult runScheme(const apps::AppParams &app,
                         const tls::SchemeConfig &scheme,
                         const mem::MachineParams &machine,
                         const fault::FaultSpec &faults = {});

/** Simulate the sequential baseline (Tseq of the loop). */
tls::RunResult runSequential(const apps::AppParams &app,
                             const mem::MachineParams &machine);

/**
 * Workload seed of one (app, scheme, replication) sweep point.
 *
 * A pure hash of the point's identity — never of the order points are
 * drawn in — so a sweep can run its points in any order, on any number
 * of threads, and every point still simulates the same workload.
 *
 * The scheme parameter is part of the point's identity but is
 * intentionally ignored by the hash: the paper compares schemes on
 * the same application run, so all schemes of one (app, replication)
 * share one workload draw (paired comparison). It stays in the
 * signature so per-scheme decorrelation is a one-line change if a
 * study ever wants it.
 */
std::uint64_t derivePointSeed(std::uint64_t base_seed,
                              const std::string &app_name,
                              const tls::SchemeConfig &scheme,
                              unsigned replication);

/**
 * Run one app under a list of schemes (plus the baseline).
 * @param replications runs per scheme with derived seeds (see
 *        derivePointSeed); results are averaged (squash timing makes
 *        single runs noisy).
 * @param threads worker threads for the sweep; 0 = TLSIM_THREADS env
 *        or hardware concurrency, 1 = sequential. Results are
 *        identical for every value.
 */
AppStudy runAppStudy(const apps::AppParams &app,
                     const std::vector<tls::SchemeConfig> &schemes,
                     const mem::MachineParams &machine,
                     unsigned replications = 1, unsigned threads = 0,
                     const fault::FaultSpec &faults = {});

/**
 * Run a whole figure sweep: every app under every scheme, plus each
 * app's sequential baseline, as one flat set of parallel jobs.
 *
 * Equivalent to calling runAppStudy per app (identical output down to
 * the byte), but exposes sweep-wide parallelism: all
 * apps x schemes x replications points fan out together instead of
 * barriers at each app.
 */
std::vector<AppStudy>
runStudySweep(const std::vector<apps::AppParams> &apps,
              const std::vector<tls::SchemeConfig> &schemes,
              const mem::MachineParams &machine,
              unsigned replications = 1, unsigned threads = 0,
              const fault::FaultSpec &faults = {});

/** One scheme's results for one synthetic workload spec. */
struct SynthOutcome {
    tls::SchemeConfig scheme;
    tls::RunResult result;
    /** Speedup over the sequential baseline of the same spec. */
    double speedup = 0.0;
    /** Dedicated buffering hardware of the scheme on this machine,
     *  in KB machine-wide (bufferingCostKb; the Pareto cost axis). */
    double bufferCostKb = 0.0;
};

/** All schemes for one synthetic spec on one machine. */
struct SynthStudy {
    apps::SynthSpec spec;
    mem::MachineParams machine;
    Cycle seqTime = 0;
    std::vector<SynthOutcome> outcomes;
};

/**
 * Simulate one (spec, scheme, machine) point. The generated stream is
 * a pure function of the spec (seed included); every scheme of one
 * spec sees the identical stream (paired comparison, like
 * derivePointSeed's scheme-blindness).
 */
tls::RunResult runSynthScheme(const apps::SynthSpec &spec,
                              const tls::SchemeConfig &scheme,
                              const mem::MachineParams &machine,
                              const fault::FaultSpec &faults = {});

/** Sequential baseline of one synthetic spec. */
tls::RunResult runSynthSequential(const apps::SynthSpec &spec,
                                  const mem::MachineParams &machine);

/** Buffering-cost sizing of a machine (feeds bufferingCostKb). */
tls::BufferSizing bufferSizingOf(const mem::MachineParams &machine);

/**
 * Sweep: every spec under every scheme plus per-spec sequential
 * baselines, one flat set of parallel jobs, deterministic at any
 * thread count (results are indexed, not draw-ordered; each point's
 * stream depends only on its spec).
 */
std::vector<SynthStudy>
runSynthSweep(const std::vector<apps::SynthSpec> &specs,
              const std::vector<tls::SchemeConfig> &schemes,
              const mem::MachineParams &machine, unsigned threads = 0,
              const fault::FaultSpec &faults = {});

/**
 * Render a figure-9/10/11-style table: one row per (app, scheme) with
 * normalized busy/stall split and speedup over sequential.
 */
std::string renderFigure(const std::string &title,
                         const std::vector<AppStudy> &studies);

/** Geometric-mean-free average row used in the paper ("Average"). */
struct FigureAverages {
    /** Mean normalized execution time per scheme (normalized to the
     *  first scheme of each study). */
    std::vector<double> normTime;
};

FigureAverages figureAverages(const std::vector<AppStudy> &studies);

} // namespace tlsim::sim

#endif // TLSIM_SIM_STUDY_HPP
