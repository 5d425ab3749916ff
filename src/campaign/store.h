/**
 * @file
 * The persistent campaign store: an append-only on-disk journal that
 * makes campaigns survive their process.
 *
 * A campaign is a sequence of independent units whose stats deltas
 * fold in unit order (the PR 1 merge contract). The store extends
 * that contract across process and restart boundaries by journaling
 * one record per *completed* unit; a later process replays the journal,
 * folds the recorded deltas in unit order exactly as a live run would,
 * and runs only the remaining units — so kill + `--resume` reproduces
 * the uninterrupted result bit for bit, and N shard processes each
 * journaling their own unit subset merge into the same bytes as one
 * process running everything.
 *
 * On-disk layout: one file per shard, `shard-<i>-of-<N>.journal` in
 * the store directory, holding a manifest and then one unit record
 * per journaled unit. The unit record is the one wire form of a unit's
 * result, the same bytes an isolated worker sends its supervisor; its
 * layout is stated once, at support::encodeRecord. All integers are
 * little-endian:
 *
 *   journal:   manifest | unit record*
 *   manifest:  magic "UBFJRNL1" | format version u32 | code version u32
 *              | campaign seed u64 | config hash u64
 *              | shard index u32 | shard count u32 | unit count u32
 *
 * A quarantine record (kind 1) marks a supervised unit that exhausted
 * its retries: its delta carries only the supervision counters, so
 * replay neither re-runs nor double-counts the unit and the campaign
 * still merges as complete.
 *
 * Crash safety: records are framed with a length and checksum and the
 * file is flushed after every append, so a crash can only tear the
 * *final* record. Recovery parses records until the first one that is
 * short, fails its checksum, or fails to decode (the decoder checks
 * every value, enum bytes included, rather than trust the checksum);
 * everything from there on is dropped (the file is truncated back to
 * the last good byte) and the torn unit simply re-runs. test_store
 * truncates a journal at every byte offset of its last record to
 * prove this.
 */

#ifndef UBFUZZ_CAMPAIGN_STORE_H
#define UBFUZZ_CAMPAIGN_STORE_H

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fuzzer/fuzzer.h"

namespace ubfuzz::campaign {

/** Journal format version (the manifest also embeds the serializer
 *  version, support::kSerializeFormatVersion, as its code version). */
inline constexpr uint32_t kJournalFormatVersion = 2;

/**
 * One process's slice of a campaign: shard `index` of `count` owns
 * every unit whose seed index is ≡ index-1 (mod count). Shards are
 * 1-based on the CLI (`--shard 2/4`); `1/1` is the whole campaign.
 */
struct ShardSpec
{
    int index = 1;
    int count = 1;

    bool
    owns(int unit) const
    {
        return unit % count == index - 1;
    }

    friend bool operator==(const ShardSpec &, const ShardSpec &) =
        default;
};

/** The journal header: everything a later process must agree on
 *  before replaying records. */
struct Manifest
{
    uint32_t formatVersion = kJournalFormatVersion;
    /** Version of the record serializer the journal was written by. */
    uint32_t codeVersion = 0;
    uint64_t campaignSeed = 0;
    /** Hash of every logical-result-relevant CampaignConfig field
     *  (configHash below); `--jobs` and the cache caps are excluded —
     *  a campaign may legally resume with a different worker count. */
    uint64_t configHash = 0;
    ShardSpec shard;
    uint32_t unitCount = 0;

    friend bool operator==(const Manifest &, const Manifest &) = default;
};

/** One journaled unit: its index, its complete stats delta, and the
 *  corpus-memo entries it contributed. */
struct UnitRecord
{
    int unit = 0;
    /** True for a quarantine record: the unit never completed; `stats`
     *  holds only supervision counters and `memoAdds` is empty. */
    bool quarantined = false;
    fuzzer::CampaignStats stats;
    std::vector<std::pair<fuzzer::CorpusKey, fuzzer::CampaignStats>>
        memoAdds;
};

/**
 * Hash of the CampaignConfig fields that determine logical results
 * (seed, unit counts, source, oracle/O0 toggles, step limit, dedup).
 * `jobs` and the cache caps only redistribute or bound work, so they
 * are deliberately excluded: a journal written with `--jobs 4` resumes
 * under `--jobs 1` and still folds to identical bytes.
 */
uint64_t configHash(const fuzzer::CampaignConfig &config);

/** The manifest a fresh journal for (@p config, @p shard) would carry. */
Manifest manifestFor(const fuzzer::CampaignConfig &config,
                     ShardSpec shard);

class CampaignStore
{
  public:
    /** Journal file name for @p shard within a store directory. */
    static std::string journalFileName(const ShardSpec &shard);

    /**
     * Open the journal for @p expected.shard under @p dir.
     *
     * `resume == false`: the journal must not already exist (refusing
     * to clobber a previous campaign is the safe default); the
     * directory is created as needed and the manifest written.
     *
     * `resume == true`: the journal must exist, its manifest must
     * equal @p expected field for field, and its records are recovered
     * — a torn tail is dropped and the file truncated back to the last
     * intact record, ready for appends.
     *
     * Returns nullptr and sets @p error on any failure.
     */
    static std::unique_ptr<CampaignStore> open(const std::string &dir,
                                               const Manifest &expected,
                                               bool resume,
                                               std::string *error);

    ~CampaignStore();
    CampaignStore(const CampaignStore &) = delete;
    CampaignStore &operator=(const CampaignStore &) = delete;

    const Manifest &manifest() const { return manifest_; }

    /** Records recovered at open (empty unless resuming); ownership
     *  moves to the caller — the orchestrator folds them in unit
     *  order and pre-populates the corpus memo from their memoAdds. */
    std::map<int, UnitRecord> takeReplayed();

    /** Bytes dropped from a torn tail during recovery (0 = clean). */
    size_t droppedTailBytes() const { return droppedTail_; }

    /** Append one completed unit and flush — thread-safe, so workers
     *  journal at completion time (journal order is irrelevant: each
     *  record carries its unit index and replay folds by index). */
    void append(const UnitRecord &rec);

  private:
    CampaignStore() = default;

    Manifest manifest_;
    std::map<int, UnitRecord> replayed_;
    size_t droppedTail_ = 0;
    std::FILE *file_ = nullptr;
    std::mutex appendMu_;
};

/**
 * Parse one journal file: manifest plus every intact record (a torn
 * tail is reported via @p droppedTailBytes, not an error; the file is
 * not modified). Returns false and sets @p error on a missing file,
 * bad magic, or corrupt manifest.
 */
bool readJournal(const std::string &path, Manifest &manifest,
                 std::map<int, UnitRecord> &records,
                 size_t *droppedTailBytes, std::string *error);

struct MergeResult
{
    bool ok = false;
    std::string error;
    fuzzer::CampaignStats stats;
    /** Agreed-on campaign identity of the merged shards. */
    uint64_t campaignSeed = 0;
    uint64_t configHash = 0;
    uint32_t unitCount = 0;
    int shardCount = 0;
    size_t unitsMerged = 0;
};

/**
 * Fold the shard journals of a completed campaign under @p dir into
 * one CampaignStats, in global unit order — the cross-process half of
 * the merge contract. Requires all N shard journals of one campaign
 * (matching seed/config hash/versions/unit count), with every unit
 * 0..unitCount-1 present exactly once; anything else is an error, so
 * a partial or mixed-up store cannot silently masquerade as a full
 * campaign.
 */
MergeResult mergeStore(const std::string &dir);

} // namespace ubfuzz::campaign

#endif // UBFUZZ_CAMPAIGN_STORE_H
