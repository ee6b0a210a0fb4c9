/**
 * @file
 * Tests for out-of-order RAW detection: the base protocol squashes
 * only on out-of-order RAWs to the same word.
 */

#include <gtest/gtest.h>

#include <vector>

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
