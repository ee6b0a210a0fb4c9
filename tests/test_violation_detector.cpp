/**
 * @file
 * Tests for out-of-order RAW detection: the base protocol squashes
 * only on out-of-order RAWs to the same word.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "tls/violation_detector.hpp"

using namespace tlsim;
using namespace tlsim::tls;

TEST(ViolationDetector, NoReadersNoViolation)
{
    ViolationDetector d;
    EXPECT_EQ(d.checkWrite(10, 3), kNoTask);
}

TEST(ViolationDetector, PrematureReaderIsCaught)
{
    // Task 7 read word 10 observing the architectural state (0); then
    // task 5 writes it: out-of-order RAW, task 7 must squash.
    ViolationDetector d;
    d.noteRead(10, 7, 0);
    EXPECT_EQ(d.checkWrite(10, 5), 7u);
}

TEST(ViolationDetector, ReaderOfNewerVersionIsSafe)
{
    // Task 7 observed task 6's version; task 5's write is older than
    // what task 7 consumed: no violation.
    ViolationDetector d;
    d.noteRead(10, 7, 6);
    EXPECT_EQ(d.checkWrite(10, 5), kNoTask);
}

TEST(ViolationDetector, EarlierReadersAreNeverSquashed)
{
    // Task 3 read the word; task 5 writes it later: WAR, fine under
    // multi-version speculation.
    ViolationDetector d;
    d.noteRead(10, 3, 0);
    EXPECT_EQ(d.checkWrite(10, 5), kNoTask);
}

TEST(ViolationDetector, OwnWriteAfterOwnReadIsSafe)
{
    ViolationDetector d;
    d.noteRead(10, 5, 0);
    EXPECT_EQ(d.checkWrite(10, 5), kNoTask);
}

TEST(ViolationDetector, LowestViolatingReaderIsReturned)
{
    ViolationDetector d;
    d.noteRead(10, 9, 0);
    d.noteRead(10, 7, 0);
    d.noteRead(10, 8, 0);
    EXPECT_EQ(d.checkWrite(10, 5), 7u);
}

TEST(ViolationDetector, DifferentWordsDoNotConflict)
{
    // Same line, different word: the protocol is word-granular.
    ViolationDetector d;
    d.noteRead(10, 7, 0);
    EXPECT_EQ(d.checkWrite(11, 5), kNoTask);
}

TEST(ViolationDetector, DropReaderForgetsRecords)
{
    ViolationDetector d;
    d.noteRead(10, 7, 0);
    d.noteRead(11, 7, 0);
    d.noteRead(10, 8, 0);
    // A read log may list words without a record (predicted reads).
    d.dropReader(7, std::vector<Addr>{10, 11, 12});
    EXPECT_EQ(d.checkWrite(10, 5), 8u); // 8's record remains
    EXPECT_EQ(d.checkWrite(11, 5), kNoTask);
    EXPECT_EQ(d.recordsLive(), 1u);
}

TEST(ViolationDetector, MixedObservationsResolvePerReader)
{
    ViolationDetector d;
    d.noteRead(10, 6, 5); // observed the writer's own version: safe
    d.noteRead(10, 9, 0); // observed arch: premature
    EXPECT_EQ(d.checkWrite(10, 5), 9u);
}

TEST(ViolationDetector, ObservedOlderThanWriterViolates)
{
    ViolationDetector d;
    d.noteRead(10, 6, 4);
    EXPECT_EQ(d.checkWrite(10, 5), 6u);
}

TEST(ViolationDetector, ClearResets)
{
    ViolationDetector d;
    d.noteRead(10, 7, 0);
    d.clear();
    EXPECT_EQ(d.checkWrite(10, 5), kNoTask);
    EXPECT_EQ(d.recordsLive(), 0u);
}

namespace {

/**
 * Drive two detectors with one random stream of reads, writes and
 * read-set drops over 8 tasks and 12 words. A read by task r observes
 * r itself exactly when r wrote the word earlier in its current
 * execution (the engine's invariant: a running task's own version
 * outlives its later reads), and otherwise a random earlier producer.
 * The full detector records every task's first read of a word; the
 * filtered one records the first read for which @p skip is false.
 * @return how many checkWrite answers differed.
 */
template <typename Skip>
unsigned
differentialMismatches(std::uint64_t seed, Skip skip)
{
    constexpr TaskId kTasks = 8;
    constexpr Addr kWords = 12;
    struct Side {
        ViolationDetector det;
        std::vector<std::vector<Addr>> log{kTasks + 1};

        void
        read(Addr w, TaskId r, TaskId observed)
        {
            auto &l = log[r];
            if (std::find(l.begin(), l.end(), w) != l.end())
                return;
            l.push_back(w);
            det.noteRead(w, r, observed);
        }

        void
        drop(TaskId r)
        {
            det.dropReader(r, log[r]);
            log[r].clear();
        }
    };
    Side full, filtered;
    std::vector<std::vector<bool>> wrote(kTasks + 1,
                                         std::vector<bool>(kWords));
    Rng rng(seed);
    unsigned mismatches = 0;
    for (int step = 0; step < 4000; ++step) {
        TaskId t = 1 + rng.below(kTasks);
        Addr w = rng.below(kWords);
        std::uint64_t op = rng.below(20);
        if (op < 10) {
            TaskId observed = wrote[t][w] ? t : rng.below(t);
            full.read(w, t, observed);
            if (!skip(t, observed))
                filtered.read(w, t, observed);
        } else if (op < 18) {
            if (full.det.checkWrite(w, t) != filtered.det.checkWrite(w, t))
                ++mismatches;
            wrote[t][w] = true;
        } else {
            full.drop(t);
            filtered.drop(t);
            wrote[t].assign(kWords, false);
        }
    }
    return mismatches;
}

} // namespace

TEST(ViolationDetectorProperty, ReadsOfTheReadersOwnWriteNeverFire)
{
    // The engine leaves no record for a read that returned the reading
    // task's own write; every checkWrite answer must be unchanged.
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        EXPECT_EQ(differentialMismatches(seed,
                                         [](TaskId reader, TaskId observed) {
                                             return observed == reader;
                                         }),
                  0u)
            << "seed " << seed;
}

TEST(ViolationDetectorProperty, SkippingOtherReadsIsCaught)
{
    // The stream has teeth: also skipping reads of an earlier
    // producer's version changes answers on every seed.
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        EXPECT_GT(differentialMismatches(seed,
                                         [](TaskId reader, TaskId observed) {
                                             return observed <= reader;
                                         }),
                  0u)
            << "seed " << seed;
}
