/**
 * @file
 * The supervised-execution contract (fuzzer/supervisor):
 *
 *  - the worker result frame round-trips exactly and decode rejects
 *    every truncation prefix, every single-byte corruption, trailing
 *    garbage, and another unit's frame;
 *  - a worker killed at *any* byte offset of its frame is classified
 *    as a crash, retried, and never folds a partial delta (the IPC
 *    mirror of test_store's torn-tail grid);
 *  - crash/hang injection retries deterministically, a deadline SIGKILL
 *    counts as a timeout, exhaustion quarantines, and a supervised
 *    crash-free unit is bit-identical to the in-process run;
 *  - a stop request aborts supervision (killing a hung live worker)
 *    without fabricating a result.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "campaign/store.h"
#include "fuzzer/supervisor.h"
#include "support/serialize.h"

namespace ubfuzz {
namespace {

using fuzzer::CampaignConfig;
using fuzzer::CampaignStats;
using fuzzer::CorpusMemo;
using fuzzer::FailureInjection;
using fuzzer::SuperviseOutcome;
using fuzzer::detail::UnitOutput;

/** A cheap deterministic unit body: grids over the retry/IPC machinery
 *  re-run the unit hundreds of times, so it must cost microseconds,
 *  not the milliseconds of a real campaign unit. */
UnitOutput
cheapUnit(const CampaignConfig &, int unit, CorpusMemo *)
{
    UnitOutput out;
    out.stats.seeds = 1;
    out.stats.ubPrograms = static_cast<size_t>(10 + unit);
    out.stats.exec.executions = 5;
    out.stats.exec.machinesBuilt = static_cast<size_t>(unit + 1);
    return out;
}

/** Same, plus corpus-memo contributions, for codec coverage. */
UnitOutput
cheapUnitWithMemo(const CampaignConfig &cfg, int unit, CorpusMemo *memo)
{
    UnitOutput out = cheapUnit(cfg, unit, memo);
    for (uint64_t i = 0; i < 2; i++) {
        fuzzer::CorpusKey key;
        key.textHash = 0xabc0 + i;
        key.textLen = 40 + i;
        key.ubLoc = {unit, static_cast<int>(i)};
        CampaignStats delta;
        delta.ubPrograms = 1 + i;
        out.memoAdds.emplace_back(
            key, std::make_shared<const CampaignStats>(delta));
    }
    return out;
}

void
expectSameOutput(const UnitOutput &a, const UnitOutput &b)
{
    EXPECT_EQ(a.stats, b.stats);
    ASSERT_EQ(a.memoAdds.size(), b.memoAdds.size());
    for (size_t i = 0; i < a.memoAdds.size(); i++) {
        EXPECT_EQ(a.memoAdds[i].first, b.memoAdds[i].first);
        EXPECT_EQ(*a.memoAdds[i].second, *b.memoAdds[i].second);
    }
}

CampaignConfig
tinyConfig()
{
    CampaignConfig cfg;
    cfg.seed = 9;
    cfg.numSeeds = 3;
    cfg.capPerKind = 2;
    return cfg;
}

TEST(UnitFrame, RoundTripsExactly)
{
    UnitOutput out = cheapUnitWithMemo(CampaignConfig{}, 5, nullptr);
    std::string frame = fuzzer::encodeUnitFrame(5, out);
    UnitOutput back;
    ASSERT_TRUE(fuzzer::decodeUnitFrame(frame, 5, back));
    expectSameOutput(back, out);
    // Another unit's complete, well-checksummed frame is still not
    // *this* unit's result.
    EXPECT_FALSE(fuzzer::decodeUnitFrame(frame, 4, back));
}

TEST(UnitFrame, EveryTruncationAndCorruptionIsRejected)
{
    UnitOutput out = cheapUnitWithMemo(CampaignConfig{}, 2, nullptr);
    const std::string frame = fuzzer::encodeUnitFrame(2, out);
    UnitOutput sink;
    for (size_t len = 0; len < frame.size(); len++) {
        EXPECT_FALSE(fuzzer::decodeUnitFrame(
            std::string_view(frame).substr(0, len), 2, sink))
            << "prefix of " << len << " bytes decoded as complete";
    }
    // Trailing garbage: a worker writes exactly one frame and exits,
    // so extra bytes mean a protocol bug, not a second result.
    EXPECT_FALSE(fuzzer::decodeUnitFrame(frame + "x", 2, sink));
    // Any single corrupted byte fails the length check or the
    // checksum — no flip may decode.
    for (size_t i = 0; i < frame.size(); i++) {
        std::string bad = frame;
        bad[i] = static_cast<char>(bad[i] ^ 0x20);
        EXPECT_FALSE(fuzzer::decodeUnitFrame(bad, 2, sink))
            << "flip at byte " << i << " decoded";
    }
}

TEST(UnitFrame, IsTheJournalRecordOfItsUnit)
{
    // One wire form for a unit's result: the frame a worker sends for
    // a real unit is byte for byte the record the journal appends for
    // the same unit.
    CampaignConfig cfg = tinyConfig();
    CorpusMemo memo(cfg.corpusMemoCap);
    UnitOutput out =
        fuzzer::detail::runCampaignUnitRecorded(cfg, 1, &memo);
    ASSERT_FALSE(out.memoAdds.empty());
    const std::string frame = fuzzer::encodeUnitFrame(1, out);

    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("ubfuzz_unit_frame_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    const campaign::Manifest m =
        campaign::manifestFor(cfg, campaign::ShardSpec{});
    std::string error;
    auto store = campaign::CampaignStore::open(dir.string(), m, false,
                                               &error);
    ASSERT_TRUE(store) << error;
    const fs::path journal =
        dir / campaign::CampaignStore::journalFileName(m.shard);
    const size_t manifestBytes = fs::file_size(journal);
    campaign::UnitRecord rec;
    rec.unit = 1;
    rec.stats = out.stats;
    for (const auto &[key, delta] : out.memoAdds)
        rec.memoAdds.emplace_back(key, *delta);
    store->append(rec);
    store.reset();
    std::ifstream in(journal, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    fs::remove_all(dir);
    EXPECT_EQ(bytes.substr(manifestBytes), frame);
}

TEST(UnitFrame, RejectsAQuarantineRecord)
{
    // A quarantine record (kind 1) is a well-formed journal record, but
    // no worker result: a worker that completes sends kind 0.
    campaign::UnitRecord q;
    q.unit = 3;
    q.quarantined = true;
    q.stats.quarantined = 1;
    const std::string bytes = support::encodeRecord(q);
    size_t end = 0;
    std::optional<std::string_view> payload =
        support::readRecord(bytes, end);
    ASSERT_TRUE(payload);
    campaign::UnitRecord back;
    ASSERT_TRUE(support::decodeRecord(*payload, back));
    EXPECT_TRUE(back.quarantined);
    UnitOutput sink;
    EXPECT_FALSE(fuzzer::decodeUnitFrame(bytes, 3, sink));
}

TEST(Supervisor, CompletesACrashFreeUnit)
{
    CampaignConfig cfg = tinyConfig();
    SuperviseOutcome res =
        fuzzer::superviseUnit(cfg, 1, nullptr, nullptr, cheapUnit);
    EXPECT_EQ(res.kind, SuperviseOutcome::Kind::Completed);
    expectSameOutput(res.out, cheapUnit(cfg, 1, nullptr));
    EXPECT_EQ(res.workerCrashes, 0u);
    EXPECT_EQ(res.workerTimeouts, 0u);
    EXPECT_EQ(res.retried, 0u);
}

TEST(Supervisor, TornPipeAtEveryByteOffsetIsACrashThenRetries)
{
    // The IPC mirror of the store's torn-tail grid: kill the worker
    // after it wrote exactly K bytes of its frame, for every K. The
    // supervisor must classify each tear as a crash (never fold the
    // partial delta) and succeed on the retry, whose attempt index
    // the injection no longer matches.
    CampaignConfig cfg = tinyConfig();
    cfg.retries = 1;
    const UnitOutput expected = cheapUnit(cfg, 2, nullptr);
    const size_t frameSize = fuzzer::encodeUnitFrame(2, expected).size();
    for (size_t k = 0; k < frameSize; k++) {
        cfg.failureInjection =
            FailureInjection{FailureInjection::Kind::TornPipe, 2, 1, k};
        SuperviseOutcome res =
            fuzzer::superviseUnit(cfg, 2, nullptr, nullptr, cheapUnit);
        ASSERT_EQ(res.kind, SuperviseOutcome::Kind::Completed)
            << "torn at byte " << k;
        ASSERT_EQ(res.workerCrashes, 1u) << "torn at byte " << k;
        ASSERT_EQ(res.retried, 1u) << "torn at byte " << k;
        ASSERT_EQ(res.workerTimeouts, 0u) << "torn at byte " << k;
        expectSameOutput(res.out, expected);
    }
}

TEST(Supervisor, CrashInjectionRetriesThenSucceeds)
{
    CampaignConfig cfg = tinyConfig();
    cfg.retries = 3;
    cfg.failureInjection =
        FailureInjection{FailureInjection::Kind::Crash, 0, 2, 0};
    SuperviseOutcome res =
        fuzzer::superviseUnit(cfg, 0, nullptr, nullptr, cheapUnit);
    EXPECT_EQ(res.kind, SuperviseOutcome::Kind::Completed);
    EXPECT_EQ(res.workerCrashes, 2u);
    EXPECT_EQ(res.retried, 2u);
    expectSameOutput(res.out, cheapUnit(cfg, 0, nullptr));
}

TEST(Supervisor, HungWorkerIsKilledAtTheDeadline)
{
    CampaignConfig cfg = tinyConfig();
    cfg.retries = 2;
    cfg.unitTimeoutMs = 150;
    cfg.failureInjection =
        FailureInjection{FailureInjection::Kind::Hang, 1, 1, 0};
    SuperviseOutcome res =
        fuzzer::superviseUnit(cfg, 1, nullptr, nullptr, cheapUnit);
    EXPECT_EQ(res.kind, SuperviseOutcome::Kind::Completed);
    EXPECT_EQ(res.workerTimeouts, 1u);
    EXPECT_EQ(res.workerCrashes, 0u);
    EXPECT_EQ(res.retried, 1u);
    expectSameOutput(res.out, cheapUnit(cfg, 1, nullptr));
}

TEST(Supervisor, ExhaustedRetriesQuarantine)
{
    CampaignConfig cfg = tinyConfig();
    cfg.retries = 2;
    cfg.failureInjection =
        FailureInjection{FailureInjection::Kind::Crash, 1, -1, 0};
    SuperviseOutcome res =
        fuzzer::superviseUnit(cfg, 1, nullptr, nullptr, cheapUnit);
    EXPECT_EQ(res.kind, SuperviseOutcome::Kind::Quarantined);
    // Counter identity: every failed attempt is one crash or timeout;
    // quarantine means retries + the final attempt all failed.
    EXPECT_EQ(res.workerCrashes, 3u);
    EXPECT_EQ(res.retried, 2u);
    EXPECT_EQ(res.workerCrashes + res.workerTimeouts,
              res.retried + 1);
}

TEST(Supervisor, StopRequestAbortsBeforeRunning)
{
    CampaignConfig cfg = tinyConfig();
    std::atomic<bool> stop{true};
    SuperviseOutcome res =
        fuzzer::superviseUnit(cfg, 0, nullptr, &stop, cheapUnit);
    EXPECT_EQ(res.kind, SuperviseOutcome::Kind::Aborted);
    EXPECT_EQ(res.retried, 0u);
}

TEST(Supervisor, StopRequestKillsAHungLiveWorker)
{
    // No deadline at all: only the stop flag can end this hang, by
    // SIGKILLing the live worker — exactly what the CLI does for
    // SIGINT under --isolate.
    CampaignConfig cfg = tinyConfig();
    cfg.failureInjection =
        FailureInjection{FailureInjection::Kind::Hang, 0, -1, 0};
    std::atomic<bool> stop{false};
    std::thread flipper([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        stop.store(true);
    });
    SuperviseOutcome res =
        fuzzer::superviseUnit(cfg, 0, nullptr, &stop, cheapUnit);
    flipper.join();
    EXPECT_EQ(res.kind, SuperviseOutcome::Kind::Aborted);
}

TEST(Supervisor, SupervisedRealUnitMatchesInProcessRun)
{
    // The determinism anchor at unit granularity: a forked worker
    // computing a *real* campaign unit (default work fn) returns the
    // same stats delta and memo contributions as running it on this
    // thread — including after an injected crash forces a retry.
    CampaignConfig cfg = tinyConfig();
    CorpusMemo direct(cfg.corpusMemoCap);
    UnitOutput expected =
        fuzzer::detail::runCampaignUnitRecorded(cfg, 0, &direct);

    CorpusMemo supervised(cfg.corpusMemoCap);
    SuperviseOutcome clean =
        fuzzer::superviseUnit(cfg, 0, &supervised, nullptr, {});
    ASSERT_EQ(clean.kind, SuperviseOutcome::Kind::Completed);
    expectSameOutput(clean.out, expected);

    CorpusMemo retried(cfg.corpusMemoCap);
    cfg.failureInjection =
        FailureInjection{FailureInjection::Kind::Crash, 0, 1, 0};
    SuperviseOutcome after =
        fuzzer::superviseUnit(cfg, 0, &retried, nullptr, {});
    ASSERT_EQ(after.kind, SuperviseOutcome::Kind::Completed);
    EXPECT_EQ(after.workerCrashes, 1u);
    expectSameOutput(after.out, expected);
}

} // namespace
} // namespace ubfuzz
