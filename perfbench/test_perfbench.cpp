/**
 * @file
 * Tests of the benchmark itself: the workloads are the figure drivers'
 * points, the per-point pass matches the sweep API, and the oracles that
 * feed fail_ratio trip on injected faults.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/app_suite.hpp"
#include "perfbench.hpp"

using namespace perfbench;
namespace cpu = tlsim::cpu;

namespace {

/** Two of the paper's apps, cut to a few tasks so a test stays fast. */
WorkloadDef
smallLoops()
{
    WorkloadDef def;
    EXPECT_TRUE(makeWorkloadDef("paper-numa16", 0, &def));
    def.apps.resize(2);
    for (tlsim::apps::AppParams &app : def.apps) {
        app.numTasks = 24;
        app.tasksPerInvocation = 0;
    }
    return def;
}

/** A trace that moves the first store, or ends the task early. */
class FaultyTrace final : public cpu::TaskTrace
{
  public:
    FaultyTrace(std::unique_ptr<cpu::TaskTrace> inner, bool truncate)
        : inner_(std::move(inner)), truncate_(truncate)
    {}

    cpu::Op
    next() override
    {
        if (truncate_ && ops_++ == 8)
            return cpu::Op::end();
        cpu::Op op = inner_->next();
        if (!truncate_ && !moved_ && op.kind == cpu::Op::Kind::Store) {
            op.addr += 1 << 20;
            moved_ = true;
        }
        return op;
    }

  private:
    std::unique_ptr<cpu::TaskTrace> inner_;
    bool truncate_;
    bool moved_ = false;
    unsigned ops_ = 0;
};

/** Decorates a workload so its last task runs a FaultyTrace. */
class FaultyWorkload final : public tls::Workload
{
  public:
    FaultyWorkload(std::unique_ptr<tls::Workload> inner, bool truncate)
        : inner_(std::move(inner)), truncate_(truncate)
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
        auto trace = inner_->makeTrace(task);
        if (task != numTasks())
            return trace;
        return std::make_unique<FaultyTrace>(std::move(trace), truncate_);
    }

  private:
    std::unique_ptr<tls::Workload> inner_;
    bool truncate_;
};

/** Per-point pass of @p def, with @p wrap applied to every point. */
std::vector<tls::RunResult>
perPointPass(const WorkloadDef &def, const WorkloadWrap &wrap = {})
{
    std::vector<tls::RunResult> out;
    for (const Point &p : def.points())
        out.push_back(runPoint(def, p, false, wrap).result);
    return out;
}

std::vector<std::uint64_t>
digestsOf(const WorkloadDef &def, const std::vector<tls::RunResult> &rs)
{
    std::vector<Point> points = def.points();
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < rs.size(); ++i)
        out.push_back(pointDigest(rs[i], points[i].sequential));
    return out;
}

/** Faults the second scheme's points only. */
WorkloadWrap
faultSecondScheme(const WorkloadDef &def, bool truncate)
{
    const tls::SchemeConfig victim = def.schemes[1];
    return [victim, truncate](const Point &p,
                              std::unique_ptr<tls::Workload> w)
               -> std::unique_ptr<tls::Workload> {
        if (p.sequential || p.scheme.name() != victim.name())
            return w;
        return std::make_unique<FaultyWorkload>(std::move(w), truncate);
    };
}

bool
mentions(const OracleReport &rep, const std::string &needle)
{
    return std::any_of(rep.failures.begin(), rep.failures.end(),
                       [&](const std::string &f) {
                           return f.find(needle) != std::string::npos;
                       });
}

} // namespace

TEST(PerfbenchWorkloads, DefaultSeedIsTheFigurePoints)
{
    const std::vector<tlsim::apps::AppParams> suite =
        tlsim::apps::appSuite();
    for (const std::string &name : workloadNames()) {
        WorkloadDef def;
        ASSERT_TRUE(makeWorkloadDef(name, 0, &def)) << name;
        EXPECT_FALSE(def.why.empty());
        EXPECT_EQ(def.points().size(), def.draws() * (def.schemes.size() + 1));
        for (std::size_t i = 0; i < def.apps.size(); ++i)
            EXPECT_EQ(def.apps[i].seed, suite[i].seed);
        for (const tlsim::apps::SynthSpec &spec : def.specs)
            EXPECT_EQ(spec.seed, 0x5e1fu);

        WorkloadDef other;
        ASSERT_TRUE(makeWorkloadDef(name, 7, &other));
        for (std::size_t i = 0; i < def.apps.size(); ++i)
            EXPECT_EQ(other.apps[i].seed, suite[i].seed + 7);
        for (const tlsim::apps::SynthSpec &spec : other.specs)
            EXPECT_EQ(spec.seed, 0x5e1fu + 7);
    }
    WorkloadDef def;
    EXPECT_FALSE(makeWorkloadDef("no-such-workload", 0, &def));
}

TEST(PerfbenchOracles, CleanPassesAgreeWithTheSweepApi)
{
    WorkloadDef def = smallLoops();
    std::vector<tls::RunResult> results = perPointPass(def);
    std::vector<std::uint64_t> one = sweepDigests(def, 1);
    std::vector<std::uint64_t> two = sweepDigests(def, 2);
    EXPECT_EQ(digestsOf(def, results), one);
    EXPECT_EQ(one, two);
    OracleReport rep = checkRound(def, results, {one, two});
    EXPECT_EQ(rep.attempted, def.points().size());
    EXPECT_EQ(rep.failed, 0u) << (rep.failures.empty() ? ""
                                                       : rep.failures[0]);
}

TEST(PerfbenchOracles, PerturbedStreamOfOneSchemeTrips)
{
    WorkloadDef def = smallLoops();
    std::vector<std::uint64_t> sweep = sweepDigests(def, 1);
    std::vector<tls::RunResult> results =
        perPointPass(def, faultSecondScheme(def, false));
    OracleReport rep = checkRound(def, results, {sweep});
    // One faulted point per app: its state and its result both differ.
    EXPECT_EQ(rep.failed, def.draws());
    EXPECT_TRUE(mentions(rep, def.schemes[1].name() +
                                  ": memStateHash differs"));
    EXPECT_TRUE(mentions(rep, "result differs in pass 1"));
}

TEST(PerfbenchOracles, TaskStoppedEarlyTrips)
{
    WorkloadDef def = smallLoops();
    std::vector<tls::RunResult> results =
        perPointPass(def, faultSecondScheme(def, true));
    OracleReport rep = checkRound(def, results, {});
    EXPECT_EQ(rep.failed, def.draws());
    EXPECT_TRUE(mentions(rep, "memStateHash differs"));
}

TEST(PerfbenchOracles, UncommittedTaskAndPassMismatchTrip)
{
    WorkloadDef def = smallLoops();
    std::vector<tls::RunResult> results = perPointPass(def);
    std::vector<std::uint64_t> digests = digestsOf(def, results);
    ASSERT_EQ(checkRound(def, results, {digests}).failed, 0u);

    std::vector<tls::RunResult> short_commit = results;
    short_commit[2].committedTasks -= 1;
    OracleReport rep = checkRound(def, short_commit, {});
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_TRUE(mentions(rep, "committed 23 of 24 tasks"));

    std::vector<std::uint64_t> other = digests;
    other[0] ^= 1; // a baseline that differs between passes
    rep = checkRound(def, results, {digests, other});
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_TRUE(mentions(rep, "/seq: result differs in pass 2"));
}

TEST(PerfbenchTrace, TracedPointSimulatesTheSameAndReconciles)
{
    WorkloadDef def = smallLoops();
    const Point p = def.points()[3];
    PointRun plain = runPoint(def, p, false);
    PointRun traced = runPoint(def, p, true);
    EXPECT_EQ(pointDigest(plain.result, false),
              pointDigest(traced.result, false));
    EXPECT_EQ(plain.gen.ops, 0u);
    EXPECT_GE(traced.gen.traces, def.numTasks(p));
    EXPECT_GT(traced.gen.ops, traced.gen.traces);

    SpanLog spans;
    spans.addPoint(def.label(p), traced);
    double self_sum = 0;
    for (const auto &[name, s] : spans.selfTimes()) {
        EXPECT_GE(s, -1e-9) << name;
        self_sum += s;
    }
    EXPECT_NEAR(self_sum, spans.pointTotalS(), 1e-9);
    EXPECT_NEAR(spans.pointTotalS(), traced.timing.totalS(), 1e-12);
}
