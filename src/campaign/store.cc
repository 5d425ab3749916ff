#include "campaign/store.h"

#include <filesystem>
#include <fstream>

#include "support/diagnostics.h"
#include "support/serialize.h"

namespace ubfuzz::campaign {

namespace fs = std::filesystem;
using support::ByteReader;
using support::ByteWriter;

/** The manifest's fields after the file's magic. Outside the anonymous
 *  namespace: the ByteWriter and ByteReader find it by argument-
 *  dependent lookup. */
template <class IO, support::MaybeConst<Manifest> S>
void
walk(IO &io, S &m)
{
    io(m.formatVersion, m.codeVersion, m.campaignSeed, m.configHash,
       m.shard.index, m.shard.count, m.unitCount);
}

namespace {

/** 8-byte journal magic "UBFJRNL1" as the little-endian u64 it is
 *  stored as; the trailing '1' is a coarse format marker on top of the
 *  explicit version field. */
constexpr uint64_t kMagic = 0x314C4E524A464255ULL;

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
    for (size_t next = start;;) {
        // A short, corrupt (mid-frame overwrite ≅ tear) or undecodable
        // record ends the intact prefix: it and everything after re-run.
        std::optional<std::string_view> payload =
            support::readRecord(bytes, next);
        UnitRecord rec;
        if (!payload || !support::decodeRecord(*payload, rec))
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
        good = next;
    }
    return good;
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
    w(config.seed, config.numSeeds, config.capPerKind, config.mutantsPerSeed,
      config.source, config.useOracle, config.onlyO0, config.stepLimit,
      config.corpusDedup, config.faultsPerProgram, config.hardenPasses);
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
        w.u64(kMagic);
        w(expected);
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

    Manifest stored;
    if (!readJournal(path.string(), stored, store->replayed_,
                     &store->droppedTail_, error))
        return nullptr;
    if (!(stored == expected)) {
        if (error)
            *error = path.string() +
                     ": journal belongs to a different campaign "
                     "(stored " +
                     manifestSummary(stored) + "; expected " +
                     manifestSummary(expected) + ")";
        return nullptr;
    }
    if (store->droppedTail_ > 0) {
        // Drop the torn tail on disk too, so the appends below land on
        // a well-formed journal.
        const auto size = fs::file_size(path, ec);
        if (!ec)
            fs::resize_file(path, size - store->droppedTail_, ec);
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
    std::string bytes = support::encodeRecord(rec);
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
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ByteReader r(bytes);
    r.expectU64(kMagic);
    r(manifest);
    if (!r.ok()) {
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
