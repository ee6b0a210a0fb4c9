#include "sim/study.hpp"

#include <functional>
#include <sstream>

#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"

namespace tlsim::sim {

double
AppStudy::normalized(std::size_t idx) const
{
    if (outcomes.empty() || outcomes[0].meanExecTime == 0)
        return 0.0;
    return outcomes[idx].meanExecTime / outcomes[0].meanExecTime;
}

double
AppStudy::busyShare(std::size_t idx) const
{
    return outcomes[idx].result.busyFraction();
}

namespace {

/**
 * Run @p workload on @p machine under @p scheme, or as the sequential
 * baseline when @p scheme is null. A fault schedule's seed is mixed
 * with the workload's seed (identity-hash discipline, see
 * derivePointSeed): its streams depend only on (spec seed, workload
 * seed), never on sweep order or thread count.
 */
tls::RunResult
simulate(tls::Workload &workload, const tls::SchemeConfig *scheme,
         const mem::MachineParams &machine,
         const fault::FaultSpec &faults)
{
    tls::EngineConfig cfg;
    cfg.machine = machine;
    cfg.sequential = scheme == nullptr;
    if (scheme != nullptr) {
        cfg.scheme = *scheme;
        cfg.faults = faults;
        if (faults.anyEnabled())
            cfg.faults.seed =
                fault::deriveFaultSeed(faults.seed, workload.seed());
    }
    tls::SpeculationEngine engine(cfg, workload);
    return engine.run();
}

} // namespace

tls::RunResult
runScheme(const apps::AppParams &app, const tls::SchemeConfig &scheme,
          const mem::MachineParams &machine,
          const fault::FaultSpec &faults)
{
    apps::LoopWorkload workload(app);
    return simulate(workload, &scheme, machine, faults);
}

tls::RunResult
runSequential(const apps::AppParams &app,
              const mem::MachineParams &machine)
{
    apps::LoopWorkload workload(app);
    return simulate(workload, nullptr, machine, {});
}

std::uint64_t
derivePointSeed(std::uint64_t base_seed, const std::string &app_name,
                const tls::SchemeConfig &scheme, unsigned replication)
{
    // FNV-1a over the app name, then splitmix64 rounds folding in the
    // replication index. Nothing depends on the order points are
    // submitted or drawn. The scheme is deliberately NOT folded in:
    // the paper's figures compare schemes on the *same* application
    // run, so every scheme of a given (app, replication) must see the
    // identical workload draw — otherwise heavy-tailed apps (P3m)
    // turn normalized columns into seed noise.
    (void)scheme;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : app_name)
        h = (h ^ c) * 0x100000001b3ULL;
    std::uint64_t state = base_seed ^ h;
    state ^= splitmix64(state) + replication;
    return splitmix64(state);
}

namespace {

/** forEachPoint's point index for a draw's sequential baseline. */
constexpr std::size_t kBaseline = ~std::size_t(0);

/**
 * Fan one sweep out over parallelFor: for every draw (an app or a
 * synthetic spec), fn(draw, kBaseline) for its sequential baseline,
 * then fn(draw, p) for each of its @p per_draw points. Jobs are
 * numbered in that order, so one thread runs them exactly in it; a
 * point's result slot is draw * per_draw + p at any thread count.
 */
void
forEachPoint(std::size_t draws, std::size_t per_draw, unsigned threads,
             const std::function<void(std::size_t, std::size_t)> &fn)
{
    const std::size_t jobs_per_draw = per_draw + 1;
    parallelFor(
        draws * jobs_per_draw,
        [&](std::size_t job) {
            const std::size_t p = job % jobs_per_draw;
            fn(job / jobs_per_draw, p == 0 ? kBaseline : p - 1);
        },
        threads);
}

/** Replication 0..reps-1 of one (app, scheme) point. */
tls::RunResult
runReplication(const apps::AppParams &app, const tls::SchemeConfig &scheme,
               const mem::MachineParams &machine, unsigned rep,
               const fault::FaultSpec &faults)
{
    apps::AppParams varied = app;
    varied.seed = derivePointSeed(app.seed, app.name, scheme, rep);
    return runScheme(varied, scheme, machine, faults);
}

/**
 * Fold per-replication results into one SchemeOutcome, in replication
 * order (fixed floating-point summation order at any thread count).
 */
SchemeOutcome
aggregateOutcome(const tls::SchemeConfig &scheme, Cycle seq_time,
                 std::vector<tls::RunResult> &reps)
{
    SchemeOutcome out;
    out.scheme = scheme;
    double exec_sum = 0.0;
    double squash_sum = 0.0;
    for (const tls::RunResult &r : reps) {
        exec_sum += double(r.execTime);
        squash_sum += double(r.squashEvents);
    }
    out.meanExecTime = exec_sum / double(reps.size());
    out.meanSquashes = squash_sum / double(reps.size());
    if (out.meanExecTime > 0 && seq_time > 0)
        out.speedup = double(seq_time) / out.meanExecTime;
    out.result = std::move(reps.front());
    return out;
}

} // namespace

std::vector<AppStudy>
runStudySweep(const std::vector<apps::AppParams> &apps,
              const std::vector<tls::SchemeConfig> &schemes,
              const mem::MachineParams &machine, unsigned replications,
              unsigned threads, const fault::FaultSpec &faults)
{
    const unsigned reps = std::max(1u, replications);
    const std::size_t n_apps = apps.size();
    const std::size_t n_schemes = schemes.size();

    // Trace-stream identity of every point in this sweep. The ordinal
    // distinguishes repeated sweeps over the same (app, machine) pair
    // within one process (bench_fig10 runs two); it is claimed on the
    // calling thread before the fan-out, so it is deterministic for a
    // fixed call sequence regardless of the thread count.
    const unsigned sweep_ordinal = trace::nextSweepOrdinal();

    // One result slot per job; jobs write only their own slot, and
    // aggregation below reads slots in fixed sweep order, so output is
    // independent of scheduling.
    std::vector<Cycle> seq_times(n_apps, 0);
    std::vector<tls::RunResult> runs(n_apps * n_schemes * reps);

    forEachPoint(
        n_apps, n_schemes * reps, threads,
        [&](std::size_t a, std::size_t p) {
            // Each job declares the (stream, rep) its records belong
            // to; the scheme byte is declared by the engine itself.
            const std::uint32_t stream = trace::streamId(
                apps[a].name, machine.name, sweep_ordinal);
            if (p == kBaseline) {
                trace::ScopedPoint point(stream, 0);
                seq_times[a] = runSequential(apps[a], machine).execTime;
                return;
            }
            const unsigned rep = unsigned(p % reps);
            trace::ScopedPoint point(stream, std::uint8_t(rep));
            runs[a * n_schemes * reps + p] = runReplication(
                apps[a], schemes[p / reps], machine, rep, faults);
        });

    std::vector<AppStudy> studies;
    studies.reserve(n_apps);
    for (std::size_t a = 0; a < n_apps; ++a) {
        AppStudy study;
        study.app = apps[a];
        study.machine = machine;
        study.seqTime = seq_times[a];
        for (std::size_t s = 0; s < n_schemes; ++s) {
            std::size_t base = (a * n_schemes + s) * reps;
            std::vector<tls::RunResult> rep_results(
                std::make_move_iterator(runs.begin() + base),
                std::make_move_iterator(runs.begin() + base + reps));
            study.outcomes.push_back(
                aggregateOutcome(schemes[s], study.seqTime, rep_results));
        }
        studies.push_back(std::move(study));
    }
    return studies;
}

tls::RunResult
runSynthScheme(const apps::SynthSpec &spec,
               const tls::SchemeConfig &scheme,
               const mem::MachineParams &machine,
               const fault::FaultSpec &faults)
{
    apps::SynthWorkload workload(spec);
    return simulate(workload, &scheme, machine, faults);
}

tls::RunResult
runSynthSequential(const apps::SynthSpec &spec,
                   const mem::MachineParams &machine)
{
    apps::SynthWorkload workload(spec);
    return simulate(workload, nullptr, machine, {});
}

tls::BufferSizing
bufferSizingOf(const mem::MachineParams &machine)
{
    tls::BufferSizing sz;
    sz.numProcs = machine.numProcs;
    sz.l2LinesPerProc = machine.l2.sizeBytes / mem::kLineBytes;
    // Grow-on-demand machines (the paper's) are costed as if their
    // structures were sized like a scaled machine's per-node share, so
    // cost columns stay comparable across topologies.
    sz.mtidLines = machine.mtidCapacityLines
                       ? machine.mtidCapacityLines
                       : std::size_t(4096) * machine.numProcs;
    // Tag width: enough for the deepest in-flight window plus slack.
    sz.taskIdBits = machine.numProcs >= 64 ? 16 : 12;
    return sz;
}

std::vector<SynthStudy>
runSynthSweep(const std::vector<apps::SynthSpec> &specs,
              const std::vector<tls::SchemeConfig> &schemes,
              const mem::MachineParams &machine, unsigned threads,
              const fault::FaultSpec &faults)
{
    const std::size_t n_specs = specs.size();
    const std::size_t n_schemes = schemes.size();
    const unsigned sweep_ordinal = trace::nextSweepOrdinal();
    const tls::BufferSizing sizing = bufferSizingOf(machine);

    std::vector<Cycle> seq_times(n_specs, 0);
    std::vector<tls::RunResult> runs(n_specs * n_schemes);

    forEachPoint(
        n_specs, n_schemes, threads, [&](std::size_t i, std::size_t s) {
            trace::ScopedPoint point(
                trace::streamId(specs[i].name(), machine.name,
                                sweep_ordinal),
                0);
            if (s == kBaseline)
                seq_times[i] =
                    runSynthSequential(specs[i], machine).execTime;
            else
                runs[i * n_schemes + s] =
                    runSynthScheme(specs[i], schemes[s], machine, faults);
        });

    std::vector<SynthStudy> studies;
    studies.reserve(n_specs);
    for (std::size_t i = 0; i < n_specs; ++i) {
        SynthStudy study;
        study.spec = specs[i];
        study.machine = machine;
        study.seqTime = seq_times[i];
        for (std::size_t s = 0; s < n_schemes; ++s) {
            SynthOutcome out;
            out.scheme = schemes[s];
            out.result = std::move(runs[i * n_schemes + s]);
            if (out.result.execTime > 0 && study.seqTime > 0)
                out.speedup = double(study.seqTime) /
                              double(out.result.execTime);
            out.bufferCostKb = tls::bufferingCostKb(schemes[s], sizing);
            study.outcomes.push_back(std::move(out));
        }
        studies.push_back(std::move(study));
    }
    return studies;
}

AppStudy
runAppStudy(const apps::AppParams &app,
            const std::vector<tls::SchemeConfig> &schemes,
            const mem::MachineParams &machine, unsigned replications,
            unsigned threads, const fault::FaultSpec &faults)
{
    return runStudySweep({app}, schemes, machine, replications, threads,
                         faults)[0];
}

std::string
renderFigure(const std::string &title,
             const std::vector<AppStudy> &studies)
{
    std::ostringstream oss;
    oss << title << "\n";
    oss << "(execution time normalized to " << "the first scheme; "
        << "Busy/Stall split as in the paper's bars; number = speedup "
        << "over sequential)\n\n";

    TextTable table({"App", "Scheme", "Norm.time", "Busy", "Stall",
                     "Speedup", "Squashes"});
    for (const AppStudy &study : studies) {
        for (std::size_t i = 0; i < study.outcomes.size(); ++i) {
            const SchemeOutcome &out = study.outcomes[i];
            double norm = study.normalized(i);
            double busy = norm * out.result.busyFraction();
            table.addRow({
                i == 0 ? study.app.name : "",
                out.scheme.name(),
                TextTable::fmt(norm, 3),
                TextTable::fmt(busy, 3),
                TextTable::fmt(norm - busy, 3),
                TextTable::fmt(out.speedup, 1),
                TextTable::fmt(out.meanSquashes, 1),
            });
        }
        table.addSeparator();
    }

    FigureAverages avg = figureAverages(studies);
    if (!studies.empty()) {
        for (std::size_t i = 0; i < avg.normTime.size(); ++i) {
            table.addRow({
                i == 0 ? "Average" : "",
                studies[0].outcomes[i].scheme.name(),
                TextTable::fmt(avg.normTime[i], 3),
                "", "", "", "",
            });
        }
    }
    oss << table.render();
    return oss.str();
}

FigureAverages
figureAverages(const std::vector<AppStudy> &studies)
{
    FigureAverages avg;
    if (studies.empty())
        return avg;
    std::size_t n = studies[0].outcomes.size();
    avg.normTime.assign(n, 0.0);
    for (const AppStudy &study : studies) {
        for (std::size_t i = 0; i < n && i < study.outcomes.size(); ++i)
            avg.normTime[i] += study.normalized(i);
    }
    for (double &v : avg.normTime)
        v /= double(studies.size());
    return avg;
}

} // namespace tlsim::sim
