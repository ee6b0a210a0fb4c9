#include "perfbench.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "apps/app_suite.hpp"
#include "apps/loop_workload.hpp"
#include "common/rng.hpp"
#include "sim/study.hpp"
#include "tls/engine.hpp"

namespace perfbench {

namespace apps = tlsim::apps;
namespace mem = tlsim::mem;
namespace cpu = tlsim::cpu;
namespace sim = tlsim::sim;

using tls::Merging;
using tls::SchemeConfig;
using tls::Separation;

namespace {

/**
 * squash-mesh64 draw size: inside the regime where FMM's serialized
 * recovery cascades (squashed executions outnumber commits several
 * times over). The cascades grow superlinearly with the task count, and
 * so does how much a draw's work changes from seed to seed: 6% at 56
 * tasks, 11% at 80, while one 1-thread pass at 96 tasks takes ~9 s.
 */
constexpr unsigned kSquashTasks = 56;
constexpr unsigned kSquashFootprint = 192;
/** bench_synth_sweep's base seed. */
constexpr std::uint64_t kSynthSeed = 0x5e1f;

const char *const kWhyNuma =
    "the paper's own traffic: large tasks, few squashes, 20 KB written "
    "per Bdna/Apsi task; loads VersionMap, read sets and the Lazy final "
    "merge";
const char *const kWhyMesh =
    "adversarial synth streams where FMM recovery cascades on a 64-node "
    "mesh; loads the detector, undo-log recovery, trace re-generation "
    "and frozen-capacity engine set-up";
const char *const kWhyOoo =
    "Figure 11's corners on the CMP with the out-of-order core; the only "
    "workload that runs OooCore, the crossbar and the shared L3";

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t s = h ^ v;
    return tlsim::splitmix64(s);
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

std::uint64_t
foldBreakdown(std::uint64_t h, const tlsim::CycleBreakdown &b)
{
    for (std::size_t k = 0; k < tlsim::kNumCycleKinds; ++k)
        h = fold(h, b.get(tlsim::CycleKind(k)));
    return h;
}

std::uint64_t
nanosSince(std::chrono::steady_clock::time_point t0)
{
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
}

/** Times every op of one task execution into the point's GenStats. */
class TimedTrace final : public cpu::TaskTrace
{
  public:
    TimedTrace(std::unique_ptr<cpu::TaskTrace> inner, GenStats &stats)
        : inner_(std::move(inner)), stats_(stats)
    {}

    cpu::Op
    next() override
    {
        auto t0 = std::chrono::steady_clock::now();
        cpu::Op op = inner_->next();
        stats_.ns += nanosSince(t0);
        ++stats_.ops;
        return op;
    }

  private:
    std::unique_ptr<cpu::TaskTrace> inner_;
    GenStats &stats_;
};

/** Forwards to the point's workload, timing trace generation. */
class TimedWorkload final : public tls::Workload
{
  public:
    TimedWorkload(std::unique_ptr<tls::Workload> inner, GenStats &stats)
        : inner_(std::move(inner)), stats_(stats)
    {}

    std::string name() const override { return inner_->name(); }
    tlsim::TaskId numTasks() const override { return inner_->numTasks(); }
    tlsim::TaskId
    tasksPerInvocation() const override
    {
        return inner_->tasksPerInvocation();
    }
    bool
    isPrivAddr(tlsim::Addr addr) const override
    {
        return inner_->isPrivAddr(addr);
    }
    std::uint64_t seed() const override { return inner_->seed(); }

    std::unique_ptr<cpu::TaskTrace>
    makeTrace(tlsim::TaskId task) override
    {
        if (stats_.firstS < 0)
            stats_.firstS = nowS();
        auto t0 = std::chrono::steady_clock::now();
        auto trace = std::make_unique<TimedTrace>(inner_->makeTrace(task),
                                                  stats_);
        stats_.ns += nanosSince(t0);
        ++stats_.traces;
        return trace;
    }

  private:
    std::unique_ptr<tls::Workload> inner_;
    GenStats &stats_;
};

tls::EngineConfig
engineConfig(const WorkloadDef &def, const Point &p)
{
    tls::EngineConfig cfg;
    cfg.machine = def.machine;
    cfg.sequential = p.sequential;
    if (!p.sequential)
        cfg.scheme = p.scheme;
    return cfg;
}

} // namespace

double
nowS()
{
    static const auto kEpoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kEpoch)
        .count();
}

std::size_t
WorkloadDef::draws() const
{
    return apps.empty() ? specs.size() : apps.size();
}

std::vector<Point>
WorkloadDef::points() const
{
    std::vector<Point> out;
    for (std::size_t d = 0; d < draws(); ++d) {
        out.push_back({d, true, {}});
        for (const SchemeConfig &s : schemes)
            out.push_back({d, false, s});
    }
    return out;
}

std::string
WorkloadDef::label(const Point &p) const
{
    std::string draw = apps.empty() ? specs[p.draw].name()
                                    : apps[p.draw].name;
    return draw + "/" + (p.sequential ? "seq" : p.scheme.name());
}

unsigned
WorkloadDef::numTasks(const Point &p) const
{
    return apps.empty() ? specs[p.draw].tasks : apps[p.draw].numTasks;
}

std::unique_ptr<tls::Workload>
WorkloadDef::makeWorkload(const Point &p) const
{
    if (apps.empty())
        return std::make_unique<apps::SynthWorkload>(specs[p.draw]);
    apps::AppParams app = apps[p.draw];
    if (!p.sequential)
        app.seed = sim::derivePointSeed(app.seed, app.name, p.scheme, 0);
    return std::make_unique<apps::LoopWorkload>(app);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "paper-numa16", "squash-mesh64", "ooo-cmp8"};
    return kNames;
}

bool
makeWorkloadDef(const std::string &name, std::uint64_t seed,
                WorkloadDef *out)
{
    auto make = [](Separation s, Merging m) {
        return SchemeConfig::make(s, m);
    };
    WorkloadDef def;
    def.name = name;
    if (name == "paper-numa16") {
        def.why = kWhyNuma;
        def.machine = mem::MachineParams::numa16();
        def.apps = apps::appSuite();
        def.schemes = {make(Separation::SingleT, Merging::EagerAMM),
                       make(Separation::MultiTMV, Merging::EagerAMM),
                       make(Separation::MultiTMV, Merging::LazyAMM),
                       make(Separation::MultiTMV, Merging::FMM)};
    } else if (name == "squash-mesh64") {
        def.why = kWhyMesh;
        def.machine = mem::MachineParams::mesh(64);
        def.specs =
            apps::synthSuite(kSquashTasks, kSquashFootprint, kSynthSeed);
        def.schemes = SchemeConfig::evaluatedSchemes();
    } else if (name == "ooo-cmp8") {
        def.why = kWhyOoo;
        def.machine = mem::MachineParams::cmp8();
        def.machine.coreModel = mem::CoreModelKind::OutOfOrder;
        def.apps = apps::appSuite();
        def.schemes = {make(Separation::SingleT, Merging::EagerAMM),
                       make(Separation::SingleT, Merging::LazyAMM),
                       make(Separation::MultiTMV, Merging::EagerAMM),
                       make(Separation::MultiTMV, Merging::LazyAMM)};
    } else {
        return false;
    }
    for (apps::AppParams &app : def.apps)
        app.seed += seed;
    for (apps::SynthSpec &spec : def.specs)
        spec.seed += seed;
    *out = std::move(def);
    return true;
}

std::uint64_t
pointDigest(const tls::RunResult &r, bool sequential)
{
    std::uint64_t h = fold(0x7e57'd16e'57ULL, r.execTime);
    if (sequential)
        return h;
    for (const tlsim::CycleBreakdown &b : r.perProc)
        h = foldBreakdown(h, b);
    h = foldBreakdown(h, r.total);
    for (const auto &[name, value] : r.counters.entries())
        h = fold(fold(h, fnv1a(name)), value);
    h = fold(h, r.committedTasks);
    h = fold(h, r.squashEvents);
    h = fold(h, r.tasksSquashed);
    h = fold(h, r.memStateHash);
    return fold(h, r.memStateLines);
}

std::uint64_t
simDigest(const std::vector<std::uint64_t> &digests)
{
    std::uint64_t h = fold(0x51d1'6e57ULL, digests.size());
    for (std::uint64_t d : digests)
        h = fold(h, d);
    return h;
}

PointRun
runPoint(const WorkloadDef &def, const Point &p, bool traced,
         const WorkloadWrap &wrap)
{
    PointRun out;
    out.startS = nowS();
    double t = out.startS;
    auto lap = [&t] {
        double now = nowS();
        double d = now - t;
        t = now;
        return d;
    };
    {
        std::unique_ptr<tls::Workload> workload = def.makeWorkload(p);
        if (wrap)
            workload = wrap(p, std::move(workload));
        if (traced)
            workload = std::make_unique<TimedWorkload>(std::move(workload),
                                                       out.gen);
        out.timing.workloadCtorS = lap();
        tls::SpeculationEngine engine(engineConfig(def, p), *workload);
        out.timing.engineCtorS = lap();
        out.result = engine.run();
        out.timing.runS = lap();
    }
    out.timing.teardownS = lap();
    return out;
}

double
setupPoint(const WorkloadDef &def, const Point &p)
{
    double t0 = nowS();
    std::unique_ptr<tls::Workload> workload = def.makeWorkload(p);
    tls::SpeculationEngine engine(engineConfig(def, p), *workload);
    return nowS() - t0;
}

std::vector<std::uint64_t>
sweepDigests(const WorkloadDef &def, unsigned threads)
{
    std::vector<std::uint64_t> out;
    auto baseline = [&out](tlsim::Cycle seq_time) {
        tls::RunResult seq;
        seq.execTime = seq_time;
        out.push_back(pointDigest(seq, true));
    };
    if (!def.apps.empty()) {
        for (const sim::AppStudy &study : sim::runStudySweep(
                 def.apps, def.schemes, def.machine, 1, threads)) {
            baseline(study.seqTime);
            for (const sim::SchemeOutcome &o : study.outcomes)
                out.push_back(pointDigest(o.result, false));
        }
    } else {
        for (const sim::SynthStudy &study : sim::runSynthSweep(
                 def.specs, def.schemes, def.machine, threads)) {
            baseline(study.seqTime);
            for (const sim::SynthOutcome &o : study.outcomes)
                out.push_back(pointDigest(o.result, false));
        }
    }
    return out;
}

OracleReport
checkRound(const WorkloadDef &def,
           const std::vector<tls::RunResult> &results,
           const std::vector<std::vector<std::uint64_t>> &other_passes)
{
    const std::vector<Point> points = def.points();
    OracleReport rep;
    rep.attempted = points.size();
    std::vector<std::string> why(points.size());
    auto trip = [&why](std::size_t i, const std::string &msg) {
        why[i] += (why[i].empty() ? "" : "; ") + msg;
    };
    if (results.size() != points.size()) {
        rep.failed = points.size();
        rep.failures.push_back("per-point pass returned " +
                               std::to_string(results.size()) +
                               " results for " +
                               std::to_string(points.size()) + " points");
        return rep;
    }

    // Majority (memStateHash, memStateLines) per draw.
    using State = std::pair<std::uint64_t, std::uint64_t>;
    std::vector<std::map<State, unsigned>> votes(def.draws());
    for (std::size_t i = 0; i < points.size(); ++i)
        if (!points[i].sequential)
            ++votes[points[i].draw][{results[i].memStateHash,
                                     results[i].memStateLines}];
    std::vector<State> agreed;
    for (const auto &v : votes) {
        auto best = std::max_element(
            v.begin(), v.end(),
            [](const auto &a, const auto &b) { return a.second < b.second; });
        agreed.push_back(best == v.end() ? State{} : best->first);
    }

    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const tls::RunResult &r = results[i];
        if (!p.sequential) {
            if (r.committedTasks != def.numTasks(p))
                trip(i, "committed " + std::to_string(r.committedTasks) +
                            " of " + std::to_string(def.numTasks(p)) +
                            " tasks");
            if (std::make_pair(r.memStateHash, r.memStateLines) !=
                agreed[p.draw])
                trip(i, "memStateHash differs from the draw's other "
                        "schemes");
        }
        std::uint64_t d = pointDigest(r, p.sequential);
        for (std::size_t k = 0; k < other_passes.size(); ++k)
            if (i >= other_passes[k].size() || other_passes[k][i] != d)
                trip(i, "result differs in pass " + std::to_string(k + 1));
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (why[i].empty())
            continue;
        ++rep.failed;
        rep.failures.push_back(def.label(points[i]) + ": " + why[i]);
    }
    return rep;
}

void
SpanLog::addPoint(const std::string &label, const PointRun &run)
{
    const PointTiming &t = run.timing;
    int root = int(spans_.size());
    labels_.push_back(label);
    spans_.push_back({"point", -1, run.startS, t.totalS(), 0});
    double at = run.startS;
    auto child = [&](const char *name, double dur) {
        spans_.push_back({name, root, at, dur, 0});
        at += dur;
        return int(spans_.size()) - 1;
    };
    child("workload.ctor", t.workloadCtorS);
    child("engine.ctor", t.engineCtorS);
    int run_span = child("engine.run", t.runS);
    child("teardown", t.teardownS);
    if (run.gen.traces > 0)
        spans_.push_back({"apps.gen", run_span, run.gen.firstS,
                          double(run.gen.ns) * 1e-9, run.gen.ops});
}

std::vector<std::pair<std::string, double>>
SpanLog::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] += spans_[i].durS;
        if (spans_[i].parent >= 0)
            self[std::size_t(spans_[i].parent)] -= spans_[i].durS;
    }
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto it = std::find_if(out.begin(), out.end(), [&](const auto &e) {
            return e.first == spans_[i].name;
        });
        if (it == out.end())
            out.emplace_back(spans_[i].name, self[i]);
        else
            it->second += self[i];
    }
    return out;
}

double
SpanLog::pointTotalS() const
{
    double sum = 0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            sum += s.durS;
    return sum;
}

bool
SpanLog::writeJson(const std::string &path,
                   const std::string &workload) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [\n",
                 workload.c_str());
    std::size_t point = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                     "\"start_s\": %.9f, \"dur_s\": %.9f, \"count\": %llu",
                     i, s.parent, s.name.c_str(), s.startS, s.durS,
                     static_cast<unsigned long long>(s.count));
        if (s.parent < 0)
            std::fprintf(f, ", \"point\": \"%s\"",
                         labels_[point++].c_str());
        std::fprintf(f, "}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
