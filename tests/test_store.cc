/**
 * @file
 * The campaign store's contract: journals round-trip their records
 * exactly, a torn final record is recovered at every byte offset,
 * resume refuses journals from a different campaign, and shard
 * journals merge into the same totals as one sequential fold —
 * including under arbitrary regrouping (merge associativity).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "campaign/store.h"
#include "fuzzer/orchestrator.h"

namespace ubfuzz::campaign {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory per test, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const char *tag)
    {
        path = fs::temp_directory_path() /
               (std::string("ubfuzz_store_") + tag + "_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "_" + std::to_string(reinterpret_cast<uintptr_t>(this)));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

std::string
readFileBytes(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const fs::path &p, const std::string &bytes)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A small synthetic unit delta, distinguishable by @p unit. */
UnitRecord
sampleRecord(int unit)
{
    UnitRecord rec;
    rec.unit = unit;
    rec.stats.seeds = 1;
    rec.stats.ubPrograms = static_cast<size_t>(10 + unit);
    rec.stats.perKind[static_cast<size_t>(unit) %
                      static_cast<size_t>(ubgen::kNumUBKinds)] = 1;
    rec.stats.exec.executions = static_cast<size_t>(100 * (unit + 1));
    fuzzer::CorpusKey key;
    key.textHash = 0x1000 + static_cast<uint64_t>(unit);
    key.textLen = 50;
    key.ubLoc = {unit, 0};
    rec.stats.corpusSeen[key] = 1;
    fuzzer::CampaignStats delta;
    delta.ubPrograms = 1;
    rec.memoAdds.emplace_back(key, delta);
    return rec;
}

/** For a death-test child: cap the files this process writes at
 *  @p bytes, and turn the SIGXFSZ an over-limit write raises into a
 *  plain EFBIG write error (what a full disk looks like to stdio).
 *  Aborts if the cap cannot be set, which fails either test. */
void
capFileSize(rlim_t bytes)
{
    std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit rl;
    if (getrlimit(RLIMIT_FSIZE, &rl) != 0)
        std::abort();
    rl.rlim_cur = bytes;
    if (setrlimit(RLIMIT_FSIZE, &rl) != 0)
        std::abort();
}

fuzzer::CampaignConfig
smallConfig()
{
    fuzzer::CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 6;
    cfg.capPerKind = 2;
    return cfg;
}

TEST(ConfigHash, CoversLogicalFieldsOnly)
{
    fuzzer::CampaignConfig a = smallConfig();
    fuzzer::CampaignConfig b = a;
    EXPECT_EQ(configHash(a), configHash(b));
    // jobs and the cache caps redistribute or bound work without
    // changing results, so a journal legally resumes across them.
    b.jobs = 8;
    b.corpusMemoCap = 4;
    b.codeCacheCap = 4;
    EXPECT_EQ(configHash(a), configHash(b));
    // Supervision settings likewise: crash-free results are identical
    // with or without isolation, so a journal written under --isolate
    // resumes in-process (and vice versa) — and retuning the watchdog
    // or retry budget must not orphan a half-finished campaign.
    b.isolate = true;
    b.unitTimeoutMs = 5000;
    b.retries = 7;
    b.failureInjection = *fuzzer::parseFailureInjection("crash:3:-1");
    EXPECT_EQ(configHash(a), configHash(b));
    // Everything that changes logical results changes the hash.
    b = a;
    b.seed = 12;
    EXPECT_NE(configHash(a), configHash(b));
    b = a;
    b.numSeeds = 7;
    EXPECT_NE(configHash(a), configHash(b));
    b = a;
    b.capPerKind = 3;
    EXPECT_NE(configHash(a), configHash(b));
    b = a;
    b.source = fuzzer::SourceMode::Music;
    EXPECT_NE(configHash(a), configHash(b));
    b = a;
    b.useOracle = false;
    EXPECT_NE(configHash(a), configHash(b));
    b = a;
    b.onlyO0 = true;
    EXPECT_NE(configHash(a), configHash(b));
    b = a;
    b.stepLimit = 12345;
    EXPECT_NE(configHash(a), configHash(b));
    b = a;
    b.corpusDedup = false;
    EXPECT_NE(configHash(a), configHash(b));
}

TEST(ShardSpec, PartitionsUnits)
{
    ShardSpec whole;
    for (int u = 0; u < 10; u++)
        EXPECT_TRUE(whole.owns(u));
    // Every unit is owned by exactly one of N shards.
    for (int count : {2, 3, 4}) {
        for (int u = 0; u < 24; u++) {
            int owners = 0;
            for (int i = 1; i <= count; i++)
                owners += ShardSpec{i, count}.owns(u) ? 1 : 0;
            EXPECT_EQ(owners, 1) << "unit " << u << " of " << count;
        }
    }
}

TEST(Store, AppendThenResumeRoundTripsRecords)
{
    TempDir dir("roundtrip");
    Manifest m = manifestFor(smallConfig(), ShardSpec{});
    std::string error;
    auto store = CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    for (int u : {0, 3, 1})
        store->append(sampleRecord(u));
    store.reset(); // close

    auto resumed = CampaignStore::open(dir.str(), m, true, &error);
    ASSERT_TRUE(resumed) << error;
    EXPECT_EQ(resumed->droppedTailBytes(), 0u);
    std::map<int, UnitRecord> records = resumed->takeReplayed();
    ASSERT_EQ(records.size(), 3u);
    for (int u : {0, 1, 3}) {
        ASSERT_TRUE(records.count(u));
        UnitRecord expected = sampleRecord(u);
        EXPECT_EQ(records[u].unit, expected.unit);
        EXPECT_EQ(records[u].stats, expected.stats);
        ASSERT_EQ(records[u].memoAdds.size(), 1u);
        EXPECT_EQ(records[u].memoAdds[0].first,
                  expected.memoAdds[0].first);
        EXPECT_EQ(records[u].memoAdds[0].second,
                  expected.memoAdds[0].second);
    }
    // The resumed store accepts further appends.
    resumed->append(sampleRecord(5));
    resumed.reset();
    auto again = CampaignStore::open(dir.str(), m, true, &error);
    ASSERT_TRUE(again) << error;
    EXPECT_EQ(again->takeReplayed().size(), 4u);
}

TEST(Store, QuarantineRecordsRoundTripAndUnknownKindsAreRejected)
{
    TempDir dir("quarantine");
    Manifest m = manifestFor(smallConfig(), ShardSpec{});
    std::string error;
    auto store = CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    store->append(sampleRecord(0));
    // A quarantined unit journals only its supervision counters — no
    // findings, no memo adds — so replay can fold it without either
    // re-running the unit or double-counting anything.
    UnitRecord q;
    q.unit = 1;
    q.quarantined = true;
    q.stats.quarantined = 1;
    q.stats.workerCrashes = 2;
    q.stats.workerTimeouts = 1;
    q.stats.retried = 2;
    store->append(q);
    store.reset();

    auto resumed = CampaignStore::open(dir.str(), m, true, &error);
    ASSERT_TRUE(resumed) << error;
    std::map<int, UnitRecord> records = resumed->takeReplayed();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].quarantined);
    EXPECT_TRUE(records[1].quarantined);
    EXPECT_EQ(records[1].stats, q.stats);
    EXPECT_TRUE(records[1].memoAdds.empty());
    resumed.reset();

    // The record-kind byte sits right after the unit index (u32) in
    // the first record's payload; any value above 1 must fail the
    // record like a checksum miss would — but since the payload is
    // checksummed, flip the byte *and* observe the checksum catches
    // it first (kind enforcement is belt for future format bumps).
    const fs::path path =
        fs::path(dir.str()) / CampaignStore::journalFileName(m.shard);
    std::string bytes = readFileBytes(path);
    // manifest is 8 (magic) + 4+4+8+8+4+4+4 = 44 bytes; then frame
    // header (12) + unit u32 (4) puts the kind byte at offset 60.
    ASSERT_GT(bytes.size(), 61u);
    bytes[60] = 7;
    writeFileBytes(path, bytes);
    Manifest got;
    std::map<int, UnitRecord> recovered;
    size_t dropped = 0;
    ASSERT_TRUE(readJournal(path.string(), got, recovered, &dropped,
                            &error))
        << error;
    // The corrupted first record (and everything after it, per the
    // torn-tail discipline) is dropped.
    EXPECT_TRUE(recovered.empty());
    EXPECT_GT(dropped, 0u);
}

TEST(Store, FreshOpenRefusesExistingJournal)
{
    TempDir dir("noclobber");
    Manifest m = manifestFor(smallConfig(), ShardSpec{});
    std::string error;
    auto store = CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    store.reset();
    auto clobber = CampaignStore::open(dir.str(), m, false, &error);
    EXPECT_FALSE(clobber);
    EXPECT_NE(error.find("--resume"), std::string::npos) << error;
}

TEST(StoreDeathTest, AppendDiesWhenTheJournalFlushFails)
{
    // The record fits the stdio buffer, so fwrite reports a full count
    // and the write error only surfaces at fflush. Reporting the unit
    // as journaled after that would silently lose it on resume.
    TempDir dir("flushfail");
    Manifest m = manifestFor(smallConfig(), ShardSpec{});
    const fs::path journal =
        fs::path(dir.str()) / CampaignStore::journalFileName(m.shard);
    EXPECT_DEATH(
        {
            std::string error;
            auto store = CampaignStore::open(dir.str(), m, false, &error);
            if (!store)
                std::abort();
            store->append(sampleRecord(0));
            // The cap also bounds the captured stderr, so leave it at
            // the journal's current size: room for the panic message,
            // none for another record.
            capFileSize(fs::file_size(journal));
            store->append(sampleRecord(1));
        },
        "journal flush failed");
}

TEST(StoreDeathTest, OpenFailsWhenTheManifestWriteFails)
{
    TempDir dir("manifestfail");
    Manifest m = manifestFor(smallConfig(), ShardSpec{});
    EXPECT_EXIT(
        {
            capFileSize(16);
            std::string error;
            auto store = CampaignStore::open(dir.str(), m, false, &error);
            const bool refused =
                !store && error.find("manifest") != std::string::npos;
            std::exit(refused ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(Store, ResumeRefusesDifferentCampaign)
{
    TempDir dir("mismatch");
    fuzzer::CampaignConfig cfg = smallConfig();
    Manifest m = manifestFor(cfg, ShardSpec{});
    std::string error;
    auto store = CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    store.reset();

    fuzzer::CampaignConfig other = cfg;
    other.seed = 999;
    auto resumed = CampaignStore::open(
        dir.str(), manifestFor(other, ShardSpec{}), true, &error);
    EXPECT_FALSE(resumed);
    EXPECT_NE(error.find("different campaign"), std::string::npos)
        << error;

    // Resuming a store that was never created fails cleanly too.
    TempDir empty("absent");
    auto missing = CampaignStore::open(empty.str(), m, true, &error);
    EXPECT_FALSE(missing);
}

TEST(Store, TornFinalRecordRecoveredAtEveryByteOffset)
{
    TempDir dir("torn");
    Manifest m = manifestFor(smallConfig(), ShardSpec{});
    std::string error;
    auto store = CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    store->append(sampleRecord(0));
    store->append(sampleRecord(1));
    const fs::path journal =
        dir.path / CampaignStore::journalFileName(m.shard);
    const std::string twoRecords = readFileBytes(journal);
    store->append(sampleRecord(2));
    store.reset();
    const std::string full = readFileBytes(journal);
    ASSERT_GT(full.size(), twoRecords.size());

    // Truncate the journal inside the final record, at every byte
    // offset from "record entirely missing" to "one byte short", and
    // prove recovery keeps exactly the first two records and drops the
    // tail — on disk as well as in memory.
    for (size_t len = twoRecords.size(); len < full.size(); len++) {
        writeFileBytes(journal, full.substr(0, len));
        auto resumed = CampaignStore::open(dir.str(), m, true, &error);
        ASSERT_TRUE(resumed) << "offset " << len << ": " << error;
        EXPECT_EQ(resumed->droppedTailBytes(), len - twoRecords.size())
            << "offset " << len;
        std::map<int, UnitRecord> records = resumed->takeReplayed();
        ASSERT_EQ(records.size(), 2u) << "offset " << len;
        EXPECT_TRUE(records.count(0));
        EXPECT_TRUE(records.count(1));
        // The torn unit re-runs and re-journals on the truncated file.
        resumed->append(sampleRecord(2));
        resumed.reset();
        EXPECT_EQ(readFileBytes(journal), full) << "offset " << len;
    }
}

TEST(Store, CorruptedChecksumDropsRecord)
{
    TempDir dir("corrupt");
    Manifest m = manifestFor(smallConfig(), ShardSpec{});
    std::string error;
    auto store = CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    store->append(sampleRecord(0));
    const fs::path journal =
        dir.path / CampaignStore::journalFileName(m.shard);
    const std::string oneRecord = readFileBytes(journal);
    store->append(sampleRecord(1));
    store.reset();

    // Flip one payload byte of the last record: the checksum fails, so
    // recovery treats it like a tear and keeps only the first record.
    std::string bytes = readFileBytes(journal);
    bytes[oneRecord.size() + 20] ^= 0x40;
    writeFileBytes(journal, bytes);
    auto resumed = CampaignStore::open(dir.str(), m, true, &error);
    ASSERT_TRUE(resumed) << error;
    std::map<int, UnitRecord> records = resumed->takeReplayed();
    EXPECT_EQ(records.size(), 1u);
    EXPECT_TRUE(records.count(0));
}

TEST(Store, CheckedRecordWithOutOfRangeBugIdIsATornTail)
{
    // A record whose checksum holds but whose delta names a bug past
    // the catalog: the decoder, not the checksum, must catch it. Resume
    // drops it and every record after it (those units re-run), and
    // merge refuses the store instead of handing the id to
    // san::bugInfo.
    TempDir dir("badenum");
    fuzzer::CampaignConfig cfg = smallConfig();
    Manifest m = manifestFor(cfg, ShardSpec{});
    std::string error;
    auto store = CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    const fs::path journal =
        dir.path / CampaignStore::journalFileName(m.shard);
    size_t intact = 0;
    for (int u = 0; u < cfg.numSeeds; u++) {
        UnitRecord rec = sampleRecord(u);
        if (u == 2) {
            intact = fs::file_size(journal);
            rec.stats.bugFindingCounts[static_cast<san::BugId>(
                san::kNumBugs)] = 1;
        }
        store->append(rec);
    }
    store.reset();
    const size_t full = fs::file_size(journal);

    MergeResult merged = mergeStore(dir.str());
    EXPECT_FALSE(merged.ok);
    EXPECT_NE(merged.error.find("unit 2"), std::string::npos)
        << merged.error;

    auto resumed = CampaignStore::open(dir.str(), m, true, &error);
    ASSERT_TRUE(resumed) << error;
    EXPECT_EQ(resumed->droppedTailBytes(), full - intact);
    std::map<int, UnitRecord> records = resumed->takeReplayed();
    EXPECT_EQ(records.size(), 2u);
    EXPECT_TRUE(records.count(0));
    EXPECT_TRUE(records.count(1));
    resumed.reset();
    EXPECT_EQ(fs::file_size(journal), intact);
}

TEST(Store, DuplicateUnitIsStructuralCorruption)
{
    TempDir dir("dup");
    Manifest m = manifestFor(smallConfig(), ShardSpec{});
    std::string error;
    auto store = CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    store->append(sampleRecord(2));
    store->append(sampleRecord(2)); // a tear cannot explain this
    store.reset();
    auto resumed = CampaignStore::open(dir.str(), m, true, &error);
    EXPECT_FALSE(resumed);
    EXPECT_NE(error.find("twice"), std::string::npos) << error;
}

TEST(Store, OutOfShardUnitIsStructuralCorruption)
{
    TempDir dir("foreign");
    Manifest m = manifestFor(smallConfig(), ShardSpec{1, 2});
    std::string error;
    auto store = CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    store->append(sampleRecord(0)); // owned (0 % 2 == 0)
    store->append(sampleRecord(1)); // shard 2's unit
    store.reset();
    auto resumed = CampaignStore::open(dir.str(), m, true, &error);
    EXPECT_FALSE(resumed);
    EXPECT_NE(error.find("outside"), std::string::npos) << error;
}

TEST(Merge, ShardJournalsFoldToSequentialCampaign)
{
    fuzzer::CampaignConfig cfg = smallConfig();
    cfg.jobs = 1;
    fuzzer::CampaignStats whole = fuzzer::runCampaign(cfg);
    ASSERT_GT(whole.ubPrograms, 0u);

    TempDir dir("merge");
    for (int i = 1; i <= 2; i++) {
        ShardSpec shard{i, 2};
        std::string error;
        auto store = CampaignStore::open(
            dir.str(), manifestFor(cfg, shard), false, &error);
        ASSERT_TRUE(store) << error;
        fuzzer::ServiceOptions opts;
        opts.shard = shard;
        opts.store = store.get();
        fuzzer::ServiceResult res =
            fuzzer::runCampaignService(cfg, opts);
        EXPECT_TRUE(res.complete);
        EXPECT_EQ(res.unitsReplayed, 0);
    }

    MergeResult merged = mergeStore(dir.str());
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_EQ(merged.shardCount, 2);
    EXPECT_EQ(merged.unitsMerged, static_cast<size_t>(cfg.numSeeds));
    EXPECT_EQ(merged.campaignSeed, cfg.seed);
    EXPECT_EQ(merged.configHash, configHash(cfg));
    // Logical results are bit-identical to one process running every
    // unit (the work counters may differ: shards do not share a corpus
    // memo, so a cross-shard duplicate is recomputed, not replayed).
    EXPECT_EQ(fuzzer::findingsDigest(merged.stats),
              fuzzer::findingsDigest(whole));
    EXPECT_EQ(merged.stats.ubPrograms, whole.ubPrograms);
    EXPECT_EQ(merged.stats.corpusSeen, whole.corpusSeen);
    EXPECT_EQ(merged.stats.corpusDuplicates, whole.corpusDuplicates);
    EXPECT_EQ(merged.stats.bugFindingCounts, whole.bugFindingCounts);
    EXPECT_EQ(merged.stats.findings, whole.findings);
}

TEST(Merge, RefusesIncompleteCampaign)
{
    fuzzer::CampaignConfig cfg = smallConfig();
    TempDir dir("partial");
    // Only shard 1 of 2 ran: merging must fail, not fabricate totals.
    ShardSpec shard{1, 2};
    std::string error;
    auto store = CampaignStore::open(dir.str(), manifestFor(cfg, shard),
                                     false, &error);
    ASSERT_TRUE(store) << error;
    fuzzer::ServiceOptions opts;
    opts.shard = shard;
    opts.store = store.get();
    fuzzer::runCampaignService(cfg, opts);
    store.reset();

    MergeResult merged = mergeStore(dir.str());
    EXPECT_FALSE(merged.ok);
    EXPECT_NE(merged.error.find("shard"), std::string::npos)
        << merged.error;

    TempDir empty("nothing");
    EXPECT_FALSE(mergeStore(empty.str()).ok);
}

TEST(Merge, RefusesPausedShard)
{
    fuzzer::CampaignConfig cfg = smallConfig();
    TempDir dir("paused");
    std::string error;
    auto store = CampaignStore::open(
        dir.str(), manifestFor(cfg, ShardSpec{}), false, &error);
    ASSERT_TRUE(store) << error;
    fuzzer::ServiceOptions opts;
    opts.store = store.get();
    opts.maxFreshUnits = 2; // pause mid-campaign
    fuzzer::ServiceResult res = fuzzer::runCampaignService(cfg, opts);
    EXPECT_FALSE(res.complete);
    store.reset();

    MergeResult merged = mergeStore(dir.str());
    EXPECT_FALSE(merged.ok);
    EXPECT_NE(merged.error.find("incomplete"), std::string::npos)
        << merged.error;
}

TEST(Merge, FoldIsAssociativeOverContiguousGroups)
{
    // The cross-process merge rests on fold associativity: folding
    // per-unit deltas group by group, then folding the group totals,
    // must equal one sequential fold — for *any* contiguous grouping.
    // This is what lets shard journals (and journal replay) reproduce
    // a monolithic campaign exactly.
    fuzzer::CampaignConfig cfg;
    cfg.seed = 20240427;
    cfg.numSeeds = 20;
    cfg.capPerKind = 2;

    std::vector<fuzzer::CampaignStats> deltas;
    for (int u = 0; u < cfg.numSeeds; u++)
        deltas.push_back(
            fuzzer::detail::runCampaignUnit(cfg, u, nullptr));

    fuzzer::CampaignStats sequential;
    for (const auto &d : deltas)
        fuzzer::detail::mergeCampaignStats(
            sequential, fuzzer::CampaignStats(d));

    std::mt19937 rng(7);
    for (int trial = 0; trial < 12; trial++) {
        // Random contiguous grouping: each unit starts a new group
        // with probability 1/3 (trial 0 degenerates to one group).
        std::vector<fuzzer::CampaignStats> groups;
        for (size_t u = 0; u < deltas.size(); u++) {
            if (groups.empty() || (trial > 0 && rng() % 3 == 0))
                groups.emplace_back();
            fuzzer::detail::mergeCampaignStats(
                groups.back(), fuzzer::CampaignStats(deltas[u]));
        }
        fuzzer::CampaignStats regrouped;
        for (auto &g : groups)
            fuzzer::detail::mergeCampaignStats(regrouped,
                                               std::move(g));
        // Exact equality, every field — associativity holds for the
        // work counters too when the deltas themselves are fixed.
        EXPECT_EQ(regrouped, sequential)
            << "trial " << trial << " with " << groups.size()
            << " groups";
    }
}

} // namespace
} // namespace ubfuzz::campaign
