/**
 * @file
 * The campaign serializer's contract: round trips are exact (the
 * deserialized struct equals the original, every field), the byte
 * format is pinned (golden bytes — a layout change must bump
 * kSerializeFormatVersion and these tests together), and torn input is
 * detected at every truncation offset instead of read out of bounds.
 */

#include <functional>

#include <gtest/gtest.h>

#include "fuzzer/fuzzer.h"
#include "harden/harden.h"
#include "support/serialize.h"

namespace ubfuzz {
namespace {

using support::ByteReader;
using support::ByteWriter;

/** A CampaignStats with every field populated, so round-trip equality
 *  exercises every serializer branch (maps, sets, nested records). */
fuzzer::CampaignStats
sampleStats()
{
    fuzzer::CampaignStats s;
    s.seeds = 7;
    s.unprofiledSeeds = 1;
    s.ubPrograms = 41;
    s.perKind[0] = 5;
    s.perKind[3] = 9;
    s.perKind[static_cast<size_t>(ubgen::kNumUBKinds) - 1] = 2;
    s.nonTriggering = 4;
    s.noUB = 3;
    s.discrepantPrograms = 11;
    s.oracleSelectedPrograms = 8;
    s.verdictPairs = 30;
    s.selectedPairs = 12;
    s.selectedTrueBug = 10;
    s.selectedOptimization = 2;
    s.droppedPairs = 18;
    s.droppedTrueBug = 1;
    s.bugFindingCounts[san::BugId::GccAsanStructCopyNoCheck] = 6;
    s.bugFindingCounts[san::BugId::GccUbsanNarrowedDividendNoCheck] = 2;
    s.bugFirstKind[san::BugId::GccAsanStructCopyNoCheck] =
        ubgen::UBKind::BufferOverflowArray;
    s.bugLevels[san::BugId::GccAsanStructCopyNoCheck] = {
        OptLevel::O0, OptLevel::O2};
    s.wrongReports = 1;
    s.wrongReportBugs.insert(san::BugId::GccAsanMemCopyCheckWrongLoc);
    s.invalidFindings = 2;

    fuzzer::FindingRecord f;
    f.kind = ubgen::UBKind::UseAfterFree;
    f.crashing = {Vendor::GCC, 13, OptLevel::O0, SanitizerKind::ASan,
                  harden::kDuplicateCompare};
    f.missing = {Vendor::LLVM, 0, OptLevel::O2, SanitizerKind::ASan};
    f.ubLoc = {12, 3};
    f.groundTruthBug = true;
    f.attributedBug =
        static_cast<int>(san::BugId::GccAsanStructCopyNoCheck);
    s.findings.push_back(f);
    f.kind = ubgen::UBKind::DivideByZero;
    f.groundTruthBug = false;
    f.attributedBug = -1;
    s.findings.push_back(f);

    s.compile.lowerings = 40;
    s.compile.deltaLowerings = 100;
    s.compile.deltaFallbacks = 2;
    s.compile.earlyOptRuns = 38;
    s.compile.earlyOptCacheHits = 60;
    s.compile.specializations = 200;
    s.compile.traceExecutions = 9;
    s.exec.machinesBuilt = 39;
    s.exec.resets = 500;
    s.exec.executions = 700;
    s.exec.translations = 650;
    s.exec.translationHits = 50;
    s.exec.dedupSkips = 7;
    s.exec.corpusSkips = 2;
    s.exec.corpusCapRejects = 1;
    s.exec.translationCapRejects = 3;
    s.exec.quickenedTranslations = 4;
    s.exec.fusedRecords = 90;
    s.exec.faultInjections = 16;
    s.execTimeouts = 5;
    s.timeoutExcluded = 4;
    s.harden.programs = 6;
    s.harden.faultsInjected = 16;
    s.harden.faultsDetected = 13;
    s.harden.faultsMasked = 2;
    s.harden.faultsSdc = 1;
    s.harden.driftComparisons = 120;
    s.harden.driftReports = 0;
    s.workerCrashes = 3;
    s.workerTimeouts = 1;
    s.retried = 4;
    s.quarantined = 1;

    fuzzer::CorpusKey key;
    key.textHash = 0xdeadbeefcafef00dULL;
    key.textLen = 321;
    key.kind = ubgen::UBKind::ShiftOverflow;
    key.ubLoc = {44, 7};
    s.corpusSeen[key] = 2;
    key.textHash = 1;
    key.textLen = 9;
    s.corpusSeen[key] = 1;
    s.corpusDuplicates = 1;
    return s;
}

TEST(Serialize, CorpusKeyGoldenBytes)
{
    // Hand-computed little-endian layout: u64 hash, u64 len, u8 kind,
    // i32 line, i32 offset. If this fails, the on-disk format changed
    // — bump kSerializeFormatVersion, do not repin silently.
    fuzzer::CorpusKey key;
    key.textHash = 0x1122334455667788ULL;
    key.textLen = 5;
    key.kind = ubgen::UBKind::UseAfterFree;
    key.ubLoc = {7, -1};
    ByteWriter w;
    support::serialize(w, key);
    const uint8_t expected[] = {
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // hash
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // len
        0x02,                                           // UseAfterFree
        0x07, 0x00, 0x00, 0x00,                         // line 7
        0xff, 0xff, 0xff, 0xff,                         // offset -1
    };
    ASSERT_EQ(w.size(), sizeof(expected));
    for (size_t i = 0; i < sizeof(expected); i++)
        EXPECT_EQ(static_cast<uint8_t>(w.data()[i]), expected[i])
            << "byte " << i;
}

TEST(Serialize, Fnv1aKnownVectors)
{
    // Standard 64-bit FNV-1a test vectors: the journal checksum must
    // be *this* function, not a lookalike.
    EXPECT_EQ(support::fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(support::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(support::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Serialize, CampaignStatsGoldenDigest)
{
    // Golden pin of the full CampaignStats byte layout: exact size and
    // FNV-1a of the serialized sample. Any layout change (field order,
    // widths, new fields) lands here before it lands in a stored
    // campaign — bump kSerializeFormatVersion when repinning.
    ByteWriter w;
    support::serialize(w, sampleStats());
    // Version 4 appended the four supervision counters (worker
    // crashes/timeouts, retried, quarantined) after the harden block.
    EXPECT_EQ(support::kSerializeFormatVersion, 4u);
    EXPECT_EQ(w.size(), 650u);
    EXPECT_EQ(support::fnv1a(w.data()), 0xd84be5ff79ef3021ULL);
}

TEST(Serialize, FindingRecordRoundTrip)
{
    fuzzer::FindingRecord rec;
    rec.kind = ubgen::UBKind::IntegerOverflow;
    rec.crashing = {Vendor::LLVM, 17, OptLevel::O3, SanitizerKind::UBSan};
    rec.missing = {Vendor::GCC, 0, OptLevel::Os, SanitizerKind::UBSan};
    rec.ubLoc = {99, -3};
    rec.groundTruthBug = true;
    rec.attributedBug = 12;
    ByteWriter w;
    support::serialize(w, rec);
    ByteReader r(w.data());
    fuzzer::FindingRecord back;
    ASSERT_TRUE(support::deserialize(r, back));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(back, rec);
}

TEST(Serialize, CampaignStatsRoundTripIsExact)
{
    fuzzer::CampaignStats original = sampleStats();
    ByteWriter w;
    support::serialize(w, original);
    ByteReader r(w.data());
    fuzzer::CampaignStats back;
    ASSERT_TRUE(support::deserialize(r, back));
    EXPECT_EQ(r.remaining(), 0u);
    // Structural equality over every field (defaulted operator==) —
    // the store's replay guarantee rests on this being exact.
    EXPECT_EQ(back, original);
}

TEST(Serialize, EmptyStatsRoundTrip)
{
    fuzzer::CampaignStats original;
    ByteWriter w;
    support::serialize(w, original);
    ByteReader r(w.data());
    fuzzer::CampaignStats back;
    ASSERT_TRUE(support::deserialize(r, back));
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(back, original);
}

TEST(Serialize, DeserializeOverwritesPreviousContents)
{
    // Deserializing into a dirty struct must reset it, not merge.
    ByteWriter w;
    support::serialize(w, fuzzer::CampaignStats{});
    fuzzer::CampaignStats dirty = sampleStats();
    ByteReader r(w.data());
    ASSERT_TRUE(support::deserialize(r, dirty));
    EXPECT_EQ(dirty, fuzzer::CampaignStats{});
}

TEST(Serialize, TruncationDetectedAtEveryOffset)
{
    ByteWriter w;
    support::serialize(w, sampleStats());
    const std::string &bytes = w.data();
    for (size_t len = 0; len < bytes.size(); len++) {
        ByteReader r(std::string_view(bytes).substr(0, len));
        fuzzer::CampaignStats out;
        EXPECT_FALSE(support::deserialize(r, out))
            << "prefix of " << len << " bytes parsed as complete";
    }
}

TEST(Serialize, RejectsWrongKindCount)
{
    // A stats blob written with a different UB-kind taxonomy must not
    // replay into this build's fixed-size perKind array.
    ByteWriter w;
    support::serialize(w, sampleStats());
    std::string bytes = w.data();
    // The kind count is the u32 after three u64 fields.
    bytes[24] = static_cast<char>(ubgen::kNumUBKinds + 1);
    ByteReader r(bytes);
    fuzzer::CampaignStats out;
    EXPECT_FALSE(support::deserialize(r, out));
}

TEST(Serialize, RejectsOutOfRangeEnumBytes)
{
    // A checksum proves only that the bytes arrived as written, not
    // that the writer was sound. One row per enum the codec reads: the
    // type's last value round-trips, one past it fails deserialize —
    // before it can reach a table indexed by it (san::bugInfo).
    const auto lastBug = static_cast<san::BugId>(san::kNumBugs - 1);
    const auto pastBug = static_cast<san::BugId>(san::kNumBugs);
    const auto lastKind = static_cast<ubgen::UBKind>(ubgen::kNumUBKinds - 1);
    const auto pastKind = static_cast<ubgen::UBKind>(ubgen::kNumUBKinds);
    const auto pastVendor =
        static_cast<Vendor>(static_cast<int>(Vendor::LLVM) + 1);
    const auto pastLevel =
        static_cast<OptLevel>(static_cast<int>(OptLevel::O3) + 1);
    const auto pastSanitizer = static_cast<SanitizerKind>(
        static_cast<int>(SanitizerKind::MSan) + 1);
    using Set = std::function<void(fuzzer::CampaignStats &, bool past)>;
    const std::vector<std::pair<const char *, Set>> rows = {
        {"bugFindingCounts id",
         [&](auto &s, bool past) {
             s.bugFindingCounts[past ? pastBug : lastBug] = 1;
         }},
        {"bugFirstKind id",
         [&](auto &s, bool past) {
             s.bugFirstKind[past ? pastBug : lastBug] = lastKind;
         }},
        {"bugFirstKind kind",
         [&](auto &s, bool past) {
             s.bugFirstKind[lastBug] = past ? pastKind : lastKind;
         }},
        {"bugLevels id",
         [&](auto &s, bool past) {
             s.bugLevels[past ? pastBug : lastBug] = {OptLevel::O1};
         }},
        {"bugLevels level",
         [&](auto &s, bool past) {
             s.bugLevels[lastBug] = {past ? pastLevel : OptLevel::O3};
         }},
        {"wrongReportBugs id",
         [&](auto &s, bool past) {
             s.wrongReportBugs.insert(past ? pastBug : lastBug);
         }},
        {"finding kind",
         [&](auto &s, bool past) {
             s.findings[0].kind = past ? pastKind : lastKind;
         }},
        {"finding vendor",
         [&](auto &s, bool past) {
             s.findings[0].missing.vendor =
                 past ? pastVendor : Vendor::LLVM;
         }},
        {"finding level",
         [&](auto &s, bool past) {
             s.findings[1].crashing.level =
                 past ? pastLevel : OptLevel::O3;
         }},
        {"finding sanitizer",
         [&](auto &s, bool past) {
             s.findings[1].missing.sanitizer =
                 past ? pastSanitizer : SanitizerKind::MSan;
         }},
        {"corpus key kind",
         [&](auto &s, bool past) {
             fuzzer::CorpusKey key;
             key.kind = past ? pastKind : lastKind;
             s.corpusSeen[key] = 1;
         }},
    };
    for (const auto &[name, set] : rows) {
        for (bool past : {false, true}) {
            fuzzer::CampaignStats s = sampleStats();
            set(s, past);
            ByteWriter w;
            support::serialize(w, s);
            ByteReader r(w.data());
            fuzzer::CampaignStats back;
            EXPECT_EQ(support::deserialize(r, back), !past)
                << name << (past ? " one past the last value" : " last");
            if (!past)
                EXPECT_EQ(back, s) << name;
        }
    }

    // A CorpusKey on its own (the memo adds of a journal record).
    fuzzer::CorpusKey key;
    key.kind = pastKind;
    ByteWriter w;
    support::serialize(w, key);
    ByteReader r(w.data());
    fuzzer::CorpusKey back;
    EXPECT_FALSE(support::deserialize(r, back));
}

TEST(Serialize, RejectsRepeatedMapKeys)
{
    // The writer never repeats a map or set key, so a repeated one is
    // corrupt input, not a value to merge or overwrite. The sample's
    // bugFindingCounts holds ids 1 and 8: its count is the u32 at byte
    // 180 (three u64s, the kind count, nine per-kind u64s, ten u64s),
    // then (id u8, count u64) pairs.
    ByteWriter w;
    support::serialize(w, sampleStats());
    std::string bytes = w.data();
    ASSERT_EQ(bytes[184], 1);
    ASSERT_EQ(bytes[193], 8);
    bytes[193] = 1;
    ByteReader r(bytes);
    fuzzer::CampaignStats out;
    EXPECT_FALSE(support::deserialize(r, out));
}

TEST(Serialize, ReaderIsBoundsCheckedAndSticky)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.data());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.u64(), 0u); // past the end: zero, flag set
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0u); // stays failed
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, StringsRoundTripWithLengthPrefix)
{
    ByteWriter w;
    w.str("hello");
    w.str("");
    w.str(std::string_view("a\0b", 3)); // embedded NUL survives
    ByteReader r(w.data());
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.str(), std::string("a\0b", 3));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

} // namespace
} // namespace ubfuzz
