/**
 * @file
 * Task-lifetime tracer tests: binary-sink round trip, runtime
 * masking/ring semantics, trace determinism across pool thread
 * counts, the trace-replay audit on real runs, audit detection of
 * injected invariant violations, and the docs/TRACING.md record
 * table staying in sync with the Kind enum.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/trace.hpp"
#include "sim/study.hpp"

using namespace tlsim;

namespace {

/** Small squash-prone app so every audit invariant gets exercised. */
apps::AppParams
tinyApp()
{
    apps::AppParams app;
    app.name = "tiny";
    app.numTasks = 48;
    app.instrPerTask = 800;
    app.sizeSigma = 0.4;
    app.writtenKb = 0.5;
    app.sharedReadKb = 0.1;
    app.depProb = 0.05;
    app.depDistance = 3;
    return app;
}

/** Covers AMM merging, lazy VCL merging and the FMM undo log. */
std::vector<tls::SchemeConfig>
tinySchemes()
{
    return {
        {tls::Separation::MultiTMV, tls::Merging::EagerAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::LazyAMM, false},
        {tls::Separation::MultiTMV, tls::Merging::FMM, false},
    };
}

std::string
tmpPath(const char *name)
{
    return testing::TempDir() + name;
}

constexpr std::uint8_t kScheme =
    trace::packScheme(2, 1, false); // MultiT&MV / Lazy

/** Synthetic-record builder with an auto-advancing clock. */
struct RecordBuilder {
    std::vector<trace::Record> records;
    Cycle clock = 0;

    void
    add(trace::Kind k, std::uint32_t task, std::uint32_t arg,
        std::uint64_t addr = 0)
    {
        trace::Record r{};
        r.cycle = clock += 10;
        r.addr = addr;
        r.task = task;
        r.arg = arg;
        r.stream = 0x1234;
        r.kind = std::uint8_t(k);
        r.scheme = kScheme;
        r.rep = 0;
        r.proc = 0;
        records.push_back(r);
    }

    trace::TraceFile
    file(std::uint32_t mask = trace::kMaskAudit) const
    {
        trace::TraceFile f;
        f.mask = mask;
        f.records = records;
        return f;
    }
};

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { trace::reset(); }
    void TearDown() override { trace::reset(); }
};

} // namespace

// --------------------------------------------------------------------
// Binary sink
// --------------------------------------------------------------------

TEST(TraceBinary, RoundTripPreservesEveryField)
{
    trace::TraceFile file;
    file.mask = trace::kMaskAudit;
    file.dropped = 0;
    for (unsigned k = 0; k < trace::kNumKinds; ++k) {
        trace::Record r{};
        r.cycle = 1000 + k;
        r.addr = 0x1000 + 0x40 * k;
        r.task = k + 1;
        r.arg = 2 * k;
        r.stream = 0xdeadbeef;
        r.kind = std::uint8_t(k);
        r.scheme = k % 2 ? kScheme : trace::kSchemeSequential;
        r.rep = std::uint8_t(k % 3);
        r.proc = std::uint8_t(k);
        file.records.push_back(r);
    }

    std::string path = tmpPath("trace_roundtrip.bin");
    std::string err;
    ASSERT_TRUE(trace::writeBinary(path, file, &err)) << err;

    trace::TraceFile back;
    ASSERT_TRUE(trace::readBinary(path, &back, &err)) << err;
    EXPECT_EQ(back.mask, file.mask);
    EXPECT_EQ(back.dropped, file.dropped);
    ASSERT_EQ(back.records.size(), file.records.size());
    for (std::size_t i = 0; i < file.records.size(); ++i)
        EXPECT_TRUE(back.records[i] == file.records[i]) << "record " << i;
}

TEST(TraceBinary, RejectsForeignFile)
{
    std::string path = tmpPath("trace_bogus.bin");
    // Long enough to read a full header, but with the wrong magic.
    std::ofstream(path) << std::string(64, 'x');
    trace::TraceFile out;
    std::string err;
    EXPECT_FALSE(trace::readBinary(path, &out, &err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

// --------------------------------------------------------------------
// Runtime semantics
// --------------------------------------------------------------------

TEST_F(TraceTest, NoSessionRecordsNothing)
{
    trace::emit(trace::Kind::TaskSpawn, 0, 1, 0, 1);
    EXPECT_TRUE(trace::drain().empty());
}

TEST_F(TraceTest, MaskFiltersCategories)
{
    trace::Options opts;
    opts.mask = trace::kMaskTask;
    trace::start(opts);
    trace::emit(trace::Kind::TaskSpawn, 0, 1, 0, 1);
    trace::emit(trace::Kind::VersionCreate, 0, 1, 0x40, 1);
    trace::emit(trace::Kind::NocSend, 0, 0, 3, 1);
    trace::stop();
    std::vector<trace::Record> records = trace::drain();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(trace::Kind(records[0].kind), trace::Kind::TaskSpawn);
}

TEST_F(TraceTest, RingWrapDropsOldestAndCounts)
{
    trace::Options opts;
    opts.ringCapacity = 8;
    trace::start(opts);
    for (std::uint32_t i = 0; i < 20; ++i)
        trace::emit(trace::Kind::TaskFinish, 0, i, 0, 1);
    trace::stop();
    EXPECT_EQ(trace::droppedRecords(), 12u);
    trace::TraceFile file = trace::drainFile();
    ASSERT_EQ(file.records.size(), 8u);
    // Oldest records were overwritten; the survivors are the last 8
    // in emission order.
    EXPECT_EQ(file.records.front().task, 12u);
    EXPECT_EQ(file.records.back().task, 19u);
    // A truncated trace must not audit clean.
    trace::AuditReport report = trace::audit(file);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.summary().find("truncated"), std::string::npos);
}

// --------------------------------------------------------------------
// Determinism across pool thread counts (TSan CI runs this too)
// --------------------------------------------------------------------

namespace {

trace::TraceFile
traceTinyStudy(unsigned threads,
               const mem::MachineParams &machine =
                   mem::MachineParams::numa16(),
               std::uint32_t mask = trace::kMaskAudit)
{
    trace::reset();
    trace::Options opts;
    opts.mask = mask;
    trace::start(opts);
    sim::runAppStudy(tinyApp(), tinySchemes(), machine, 2, threads);
    trace::stop();
    trace::TraceFile file = trace::drainFile();
    trace::reset();
    return file;
}

} // namespace

TEST(TraceParallelStudy, TraceIsIdenticalAtAnyThreadCount)
{
    if (!trace::builtIn())
        GTEST_SKIP() << "built with TLSIM_TRACE=OFF";
    mem::MachineParams ooo = mem::MachineParams::numa16();
    ooo.coreModel = mem::CoreModelKind::OutOfOrder;
    const struct {
        mem::MachineParams machine;
        std::uint32_t mask;
    } inputs[] = {
        {mem::MachineParams::numa16(), trace::kMaskAudit},
        // The OoO core's per-op issue/retire/replay records are the
        // finest-grained observable of its event order.
        {ooo, trace::kMaskAudit | trace::kMaskCore},
    };
    for (const auto &in : inputs) {
        trace::TraceFile one = traceTinyStudy(1, in.machine, in.mask);
        trace::TraceFile eight = traceTinyStudy(8, in.machine, in.mask);
        ASSERT_GT(one.records.size(), 0u);
        EXPECT_EQ(one.dropped, 0u);
        EXPECT_EQ(eight.dropped, 0u);
        ASSERT_EQ(one.records.size(), eight.records.size());
        EXPECT_TRUE(std::equal(one.records.begin(), one.records.end(),
                               eight.records.begin()))
            << "drained trace depends on the sweep thread count (mask "
            << in.mask << ")";
        if (in.mask & trace::kMaskCore) {
            EXPECT_TRUE(std::any_of(
                one.records.begin(), one.records.end(),
                [](const trace::Record &r) {
                    return r.kind == std::uint8_t(trace::Kind::CoreIssue);
                }));
        }
    }
}

// --------------------------------------------------------------------
// Audit
// --------------------------------------------------------------------

TEST_F(TraceTest, AuditPassesOnRealRuns)
{
    if (!trace::builtIn())
        GTEST_SKIP() << "built with TLSIM_TRACE=OFF";
    trace::TraceFile file = traceTinyStudy(2);
    ASSERT_GT(file.records.size(), 0u);
    trace::AuditReport report = trace::audit(file);
    EXPECT_TRUE(report.ok()) << report.summary();
    // One sequential baseline + 3 schemes x 2 replications.
    EXPECT_EQ(report.streams, 7u);
    EXPECT_GT(report.checks, file.records.size() / 2);
}

TEST_F(TraceTest, AuditCatchesCommitOrderViolation)
{
    RecordBuilder b;
    b.add(trace::Kind::TaskSpawn, 1, 1);
    b.add(trace::Kind::TaskSpawn, 2, 1);
    b.add(trace::Kind::TaskFinish, 1, 1);
    b.add(trace::Kind::TaskFinish, 2, 1);
    b.add(trace::Kind::TokenHandoff, 1, 1);
    b.add(trace::Kind::TaskCommit, 2, 1); // commits before holding it
    trace::AuditReport report = trace::audit(b.file());
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.summary().find("commit"), std::string::npos)
        << report.summary();
}

TEST_F(TraceTest, AuditCatchesVersionSurvivingSquash)
{
    RecordBuilder b;
    b.add(trace::Kind::TaskSpawn, 1, 1);
    b.add(trace::Kind::VersionCreate, 1, 1, 0x80);
    b.add(trace::Kind::TaskSquash, 1, 1);
    // Deliberately no VersionRemove for (task 1, #1, 0x80).
    b.add(trace::Kind::TaskRestart, 1, 2);
    trace::AuditReport report = trace::audit(b.file());
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.summary().find("survived"), std::string::npos)
        << report.summary();
}

TEST_F(TraceTest, AuditCatchesUndrainedUndoLog)
{
    RecordBuilder b;
    b.add(trace::Kind::TaskSpawn, 1, 1);
    b.add(trace::Kind::UndoAppend, 1, 0, 0x80);
    b.add(trace::Kind::TaskSquash, 1, 1);
    // Deliberately no UndoRecover before the restart.
    b.add(trace::Kind::TaskRestart, 1, 2);
    trace::AuditReport report = trace::audit(b.file());
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.summary().find("undo"), std::string::npos)
        << report.summary();
}

TEST_F(TraceTest, AuditCatchesUnvalidatedPredictedRead)
{
    // Invariant 8: a predicted read that is neither validated nor
    // discharged by a squash of its incarnation is a protocol hole —
    // the task would have committed a guessed value unchecked.
    RecordBuilder b;
    b.add(trace::Kind::TaskSpawn, 1, 1);
    b.add(trace::Kind::ValuePredict, 1, 1, 0x80);
    b.add(trace::Kind::TaskFinish, 1, 1);
    b.add(trace::Kind::TokenHandoff, 1, 1);
    // Deliberately no ValueValidate/ValueMispredict before commit.
    b.add(trace::Kind::TaskCommit, 1, 1);
    trace::AuditReport report =
        trace::audit(b.file(trace::kMaskAudit | trace::kMaskValue));
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.summary().find("never validated"),
              std::string::npos)
        << report.summary();
}

TEST_F(TraceTest, AuditAcceptsValidatedAndSquashedPredictions)
{
    RecordBuilder b;
    // Task 1: predicted read validated cleanly at the token.
    b.add(trace::Kind::TaskSpawn, 1, 1);
    b.add(trace::Kind::ValuePredict, 1, 1, 0x80);
    b.add(trace::Kind::ValueValidate, 1, 1, 0x80);
    b.add(trace::Kind::TaskFinish, 1, 1);
    b.add(trace::Kind::TokenHandoff, 1, 1);
    b.add(trace::Kind::TaskCommit, 1, 1);
    // Task 2: first incarnation mispredicts and squashes (its other
    // predicted word is discharged by the squash), the re-execution
    // predicts the corrected value and validates.
    b.add(trace::Kind::TaskSpawn, 2, 1);
    b.add(trace::Kind::ValuePredict, 2, 1, 0x90);
    b.add(trace::Kind::ValuePredict, 2, 1, 0x98);
    b.add(trace::Kind::ValueMispredict, 2, 1, 0x90);
    b.add(trace::Kind::TaskSquash, 2, 1);
    b.add(trace::Kind::TaskRestart, 2, 2);
    b.add(trace::Kind::ValuePredict, 2, 2, 0x90);
    b.add(trace::Kind::ValueValidate, 2, 2, 0x90);
    b.add(trace::Kind::TaskFinish, 2, 2);
    b.add(trace::Kind::TokenHandoff, 2, 1);
    b.add(trace::Kind::TaskCommit, 2, 2);
    trace::AuditReport report =
        trace::audit(b.file(trace::kMaskAudit | trace::kMaskValue));
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(TraceTest, AuditCatchesValidationOfUnpredictedWord)
{
    RecordBuilder b;
    b.add(trace::Kind::TaskSpawn, 1, 1);
    b.add(trace::Kind::ValueValidate, 1, 1, 0x80);
    trace::AuditReport report =
        trace::audit(b.file(trace::kMaskAudit | trace::kMaskValue));
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.summary().find("never predicted"),
              std::string::npos)
        << report.summary();
}

TEST_F(TraceTest, AuditCatchesCorruptionInRealTrace)
{
    if (!trace::builtIn())
        GTEST_SKIP() << "built with TLSIM_TRACE=OFF";
    trace::TraceFile file = traceTinyStudy(2);
    auto it = std::find_if(
        file.records.begin(), file.records.end(), [](const auto &r) {
            return trace::Kind(r.kind) == trace::Kind::TaskCommit &&
                   r.scheme != trace::kSchemeSequential;
        });
    ASSERT_NE(it, file.records.end());
    it->task += 1; // a commit the token was never handed to
    trace::AuditReport report = trace::audit(file);
    EXPECT_FALSE(report.ok());
}

// --------------------------------------------------------------------
// docs/TRACING.md stays in sync with the enum
// --------------------------------------------------------------------

TEST(TraceDoc, RecordTableMatchesKindEnum)
{
    std::ifstream in(TLSIM_SOURCE_DIR "/docs/TRACING.md");
    ASSERT_TRUE(in.is_open()) << "docs/TRACING.md missing";
    std::stringstream buf;
    buf << in.rdbuf();
    std::string doc = buf.str();

    const std::string begin_marker = "<!-- kinds-table:begin -->";
    const std::string end_marker = "<!-- kinds-table:end -->";
    std::size_t begin = doc.find(begin_marker);
    std::size_t end = doc.find(end_marker);
    ASSERT_NE(begin, std::string::npos) << "kinds-table:begin missing";
    ASSERT_NE(end, std::string::npos) << "kinds-table:end missing";
    ASSERT_LT(begin, end);

    // Every "| `name` ..." row between the markers documents a kind.
    std::set<std::string> documented;
    std::istringstream table(doc.substr(begin, end - begin));
    std::string line;
    while (std::getline(table, line)) {
        if (line.rfind("| `", 0) != 0)
            continue;
        std::size_t close = line.find('`', 3);
        ASSERT_NE(close, std::string::npos) << line;
        documented.insert(line.substr(3, close - 3));
    }

    std::set<std::string> expected;
    for (unsigned k = 0; k < trace::kNumKinds; ++k)
        expected.insert(trace::kindName(trace::Kind(k)));

    EXPECT_EQ(documented, expected)
        << "docs/TRACING.md record table is out of sync with "
           "trace::Kind";
}
