#include "campaign/store.h"

#include <filesystem>
#include <fstream>

#include "support/diagnostics.h"
#include "support/serialize.h"

namespace ubfuzz::campaign {

namespace fs = std::filesystem;
using support::ByteReader;
using support::ByteWriter;

namespace {

/** 8-byte journal magic "UBFJRNL1" as the little-endian u64 it is
 *  stored as; the trailing '1' is a coarse format marker on top of the
 *  explicit version field. */
constexpr uint64_t kMagic = 0x314C4E524A464255ULL;

/** Frame header: payload length (u32) + FNV-1a checksum (u64). */
constexpr size_t kFrameHeaderSize = 12;

void
putManifest(ByteWriter &w, const Manifest &m)
{
    w.u64(kMagic);
    w.u32(m.formatVersion);
    w.u32(m.codeVersion);
    w.u64(m.campaignSeed);
    w.u64(m.configHash);
    w.u32(static_cast<uint32_t>(m.shard.index));
    w.u32(static_cast<uint32_t>(m.shard.count));
    w.u32(m.unitCount);
}

bool
getManifest(ByteReader &r, Manifest &m)
{
    r.expectU64(kMagic);
    if (!r.ok())
        return false;
    m.formatVersion = r.u32();
    m.codeVersion = r.u32();
    m.campaignSeed = r.u64();
    m.configHash = r.u64();
    m.shard.index = static_cast<int>(r.u32());
    m.shard.count = static_cast<int>(r.u32());
    m.unitCount = r.u32();
    return r.ok();
}

std::string
encodeRecord(const UnitRecord &rec)
{
    ByteWriter payload;
    payload.u32(static_cast<uint32_t>(rec.unit));
    payload.u8(rec.quarantined ? 1 : 0);
    support::serialize(payload, rec.stats);
    payload.u32(static_cast<uint32_t>(rec.memoAdds.size()));
    for (const auto &[key, delta] : rec.memoAdds) {
        support::serialize(payload, key);
        support::serialize(payload, delta);
    }
    ByteWriter frame;
    frame.u32(static_cast<uint32_t>(payload.size()));
    frame.u64(support::fnv1a(payload.data()));
    return frame.data() + payload.data();
}

bool
decodePayload(std::string_view payload, UnitRecord &rec)
{
    ByteReader r(payload);
    rec.unit = static_cast<int>(r.u32());
    uint8_t kind = r.u8();
    if (kind > 1)
        return false; // unknown record kind, as fatal as a checksum miss
    rec.quarantined = kind == 1;
    if (!support::deserialize(r, rec.stats))
        return false;
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n && r.ok(); i++) {
        fuzzer::CorpusKey key;
        fuzzer::CampaignStats delta;
        if (!support::deserialize(r, key) ||
            !support::deserialize(r, delta))
            return false;
        rec.memoAdds.emplace_back(std::move(key), std::move(delta));
    }
    // A record must consume its payload exactly; trailing garbage
    // means a framing bug, not a tear, but both are grounds to stop.
    return r.ok() && r.remaining() == 0;
}

/**
 * Parse everything after the manifest. Returns the byte offset just
 * past the last intact record; anything beyond it is a torn tail.
 * Sets @p error (and returns SIZE_MAX) only for structural corruption
 * that a tear cannot explain: duplicate or out-of-shard units.
 */
size_t
parseRecords(std::string_view bytes, size_t start, const Manifest &m,
             std::map<int, UnitRecord> &records, std::string *error)
{
    size_t good = start;
    while (good < bytes.size()) {
        std::string_view rest = bytes.substr(good);
        if (rest.size() < kFrameHeaderSize)
            break; // torn frame header
        ByteReader header(rest.substr(0, kFrameHeaderSize));
        uint32_t len = header.u32();
        uint64_t sum = header.u64();
        if (rest.size() < kFrameHeaderSize + len)
            break; // torn payload
        std::string_view payload = rest.substr(kFrameHeaderSize, len);
        if (support::fnv1a(payload) != sum)
            break; // corrupt payload (mid-frame overwrite ≅ tear)
        UnitRecord rec;
        if (!decodePayload(payload, rec))
            break;
        if (rec.unit < 0 ||
            static_cast<uint32_t>(rec.unit) >= m.unitCount ||
            !m.shard.owns(rec.unit)) {
            if (error)
                *error = "journal record for unit " +
                         std::to_string(rec.unit) +
                         " outside this shard's slice";
            return SIZE_MAX;
        }
        if (!records.emplace(rec.unit, std::move(rec)).second) {
            if (error)
                *error = "journal contains unit " +
                         std::to_string(rec.unit) + " twice";
            return SIZE_MAX;
        }
        good += kFrameHeaderSize + len;
    }
    return good;
}

bool
readFile(const std::string &path, std::string &out, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    out = std::move(bytes);
    return true;
}

std::string
manifestSummary(const Manifest &m)
{
    return "seed=" + std::to_string(m.campaignSeed) +
           " configHash=" + std::to_string(m.configHash) +
           " shard=" + std::to_string(m.shard.index) + "/" +
           std::to_string(m.shard.count) +
           " units=" + std::to_string(m.unitCount) +
           " format=" + std::to_string(m.formatVersion) + "." +
           std::to_string(m.codeVersion);
}

} // namespace

uint64_t
configHash(const fuzzer::CampaignConfig &config)
{
    ByteWriter w;
    w.u64(config.seed);
    w.i32(config.numSeeds);
    w.u64(config.capPerKind);
    w.i32(config.mutantsPerSeed);
    w.u8(static_cast<uint8_t>(config.source));
    w.b(config.useOracle);
    w.b(config.onlyO0);
    w.u64(config.stepLimit);
    w.b(config.corpusDedup);
    w.i32(config.faultsPerProgram);
    w.u32(config.hardenPasses);
    return support::fnv1a(w.data());
}

Manifest
manifestFor(const fuzzer::CampaignConfig &config, ShardSpec shard)
{
    Manifest m;
    m.codeVersion = support::kSerializeFormatVersion;
    m.campaignSeed = config.seed;
    m.configHash = configHash(config);
    m.shard = shard;
    m.unitCount = static_cast<uint32_t>(
        fuzzer::detail::campaignUnitCount(config));
    return m;
}

std::string
CampaignStore::journalFileName(const ShardSpec &shard)
{
    return "shard-" + std::to_string(shard.index) + "-of-" +
           std::to_string(shard.count) + ".journal";
}

std::unique_ptr<CampaignStore>
CampaignStore::open(const std::string &dir, const Manifest &expected,
                    bool resume, std::string *error)
{
    const fs::path path = fs::path(dir) / journalFileName(expected.shard);
    std::error_code ec;

    auto store = std::unique_ptr<CampaignStore>(new CampaignStore);
    store->manifest_ = expected;

    if (!resume) {
        fs::create_directories(dir, ec);
        if (fs::exists(path)) {
            if (error)
                *error = path.string() +
                         " already exists (pass --resume to continue "
                         "that campaign, or remove the store)";
            return nullptr;
        }
        store->file_ = std::fopen(path.c_str(), "wb");
        if (!store->file_) {
            if (error)
                *error = "cannot create " + path.string();
            return nullptr;
        }
        ByteWriter w;
        putManifest(w, expected);
        // A buffered fwrite reports the full count even on a full
        // disk; the write error only surfaces at fflush.
        if (std::fwrite(w.data().data(), 1, w.size(), store->file_) !=
                w.size() ||
            std::fflush(store->file_) != 0) {
            if (error)
                *error = "cannot write manifest to " + path.string();
            return nullptr;
        }
        return store;
    }

    std::string bytes;
    if (!readFile(path.string(), bytes, error))
        return nullptr;
    ByteReader r(bytes);
    Manifest stored;
    if (!getManifest(r, stored)) {
        if (error)
            *error = path.string() + ": corrupt or truncated manifest";
        return nullptr;
    }
    if (!(stored == expected)) {
        if (error)
            *error = path.string() +
                     ": journal belongs to a different campaign "
                     "(stored " +
                     manifestSummary(stored) + "; expected " +
                     manifestSummary(expected) + ")";
        return nullptr;
    }
    size_t good =
        parseRecords(bytes, r.pos(), stored, store->replayed_, error);
    if (good == SIZE_MAX)
        return nullptr;
    store->droppedTail_ = bytes.size() - good;
    if (store->droppedTail_ > 0) {
        // Drop the torn tail on disk too, so the appends below land on
        // a well-formed journal.
        fs::resize_file(path, good, ec);
        if (ec) {
            if (error)
                *error = "cannot truncate torn tail of " + path.string();
            return nullptr;
        }
    }
    store->file_ = std::fopen(path.c_str(), "ab");
    if (!store->file_) {
        if (error)
            *error = "cannot reopen " + path.string() + " for append";
        return nullptr;
    }
    return store;
}

CampaignStore::~CampaignStore()
{
    if (file_)
        std::fclose(file_);
}

std::map<int, UnitRecord>
CampaignStore::takeReplayed()
{
    return std::move(replayed_);
}

void
CampaignStore::append(const UnitRecord &rec)
{
    std::string bytes = encodeRecord(rec);
    std::lock_guard<std::mutex> lock(appendMu_);
    UBF_ASSERT(file_, "append on a closed store");
    size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file_);
    UBF_ASSERT(written == bytes.size(),
               "short journal write (disk full?)");
    // Flush per record: a killed process can then only lose the unit
    // it was still computing, never one it reported complete. A
    // buffered fwrite returns the full count even when the disk is
    // full; the write error shows up here.
    const int flushed = std::fflush(file_);
    UBF_ASSERT(flushed == 0, "journal flush failed (disk full?)");
}

bool
readJournal(const std::string &path, Manifest &manifest,
            std::map<int, UnitRecord> &records,
            size_t *droppedTailBytes, std::string *error)
{
    std::string bytes;
    if (!readFile(path, bytes, error))
        return false;
    ByteReader r(bytes);
    if (!getManifest(r, manifest)) {
        if (error)
            *error = path + ": corrupt or truncated manifest";
        return false;
    }
    size_t good = parseRecords(bytes, r.pos(), manifest, records, error);
    if (good == SIZE_MAX)
        return false;
    if (droppedTailBytes)
        *droppedTailBytes = bytes.size() - good;
    return true;
}

MergeResult
mergeStore(const std::string &dir)
{
    MergeResult res;
    std::error_code ec;
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".journal")
            paths.push_back(entry.path().string());
    }
    if (ec) {
        res.error = "cannot list " + dir;
        return res;
    }
    if (paths.empty()) {
        res.error = "no shard journals in " + dir;
        return res;
    }

    // Read every shard journal; all manifests must describe the same
    // campaign, and together the shards must be exactly 1..N.
    std::map<int, UnitRecord> all;
    std::map<int, bool> shardsSeen;
    Manifest first;
    for (size_t p = 0; p < paths.size(); p++) {
        Manifest m;
        std::map<int, UnitRecord> records;
        size_t dropped = 0;
        if (!readJournal(paths[p], m, records, &dropped, &res.error))
            return res;
        if (p == 0) {
            first = m;
        } else if (m.formatVersion != first.formatVersion ||
                   m.codeVersion != first.codeVersion ||
                   m.campaignSeed != first.campaignSeed ||
                   m.configHash != first.configHash ||
                   m.unitCount != first.unitCount ||
                   m.shard.count != first.shard.count) {
            res.error = paths[p] + ": shard of a different campaign (" +
                        manifestSummary(m) + " vs " +
                        manifestSummary(first) + ")";
            return res;
        }
        if (!shardsSeen.emplace(m.shard.index, true).second) {
            res.error = "duplicate journal for shard " +
                        std::to_string(m.shard.index);
            return res;
        }
        for (auto &[unit, rec] : records) {
            if (!all.emplace(unit, std::move(rec)).second) {
                res.error = "unit " + std::to_string(unit) +
                            " recorded by more than one shard";
                return res;
            }
        }
    }
    if (static_cast<int>(shardsSeen.size()) != first.shard.count) {
        res.error = "store has " + std::to_string(shardsSeen.size()) +
                    " shard journals, campaign expects " +
                    std::to_string(first.shard.count);
        return res;
    }
    for (uint32_t u = 0; u < first.unitCount; u++) {
        if (!all.count(static_cast<int>(u))) {
            res.error = "campaign incomplete: unit " +
                        std::to_string(u) +
                        " has no journal record (resume its shard "
                        "before merging)";
            return res;
        }
    }

    // Fold in global unit order — bit-identical to one process having
    // run every unit itself (std::map iterates in increasing order).
    for (auto &[unit, rec] : all)
        fuzzer::detail::mergeCampaignStats(res.stats,
                                           std::move(rec.stats));

    std::string violation = fuzzer::statsInvariantViolation(res.stats);
    if (!violation.empty()) {
        res.error = "merged totals violate accounting: " + violation;
        return res;
    }

    res.ok = true;
    res.campaignSeed = first.campaignSeed;
    res.configHash = first.configHash;
    res.unitCount = first.unitCount;
    res.shardCount = first.shard.count;
    res.unitsMerged = all.size();
    return res;
}

} // namespace ubfuzz::campaign
