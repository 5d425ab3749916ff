#include "fuzzer/orchestrator.h"

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "fuzzer/supervisor.h"
#include "support/diagnostics.h"

namespace ubfuzz::fuzzer {

int
resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

namespace {

/** One unit's outcome waiting at the fold frontier. */
struct Slot
{
    CampaignStats stats;
    bool replayed = false;
};

} // namespace

ServiceResult
runCampaignService(const CampaignConfig &config,
                   const ServiceOptions &opts)
{
    const int units = detail::campaignUnitCount(config);
    ServiceResult res;
    UBF_ASSERT(opts.shard.count >= 1 && opts.shard.index >= 1 &&
                   opts.shard.index <= opts.shard.count,
               "invalid shard ", opts.shard.index, "/",
               opts.shard.count);
    if (opts.store) {
        // The store was opened against some (config, shard); a caller
        // handing us a journal for a different slice is a bug, not a
        // recoverable condition.
        UBF_ASSERT(opts.store->manifest().shard == opts.shard,
                   "store shard does not match service shard");
        UBF_ASSERT(opts.store->manifest().unitCount ==
                       static_cast<uint32_t>(units < 0 ? 0 : units),
                   "store unit count does not match campaign");
    }
    if (units <= 0) {
        res.complete = true;
        return res;
    }

    // The unit indices this shard owns, in increasing order. All
    // folding below is positional within this list; `owned[p]` maps a
    // position back to its campaign-wide unit index.
    std::vector<int> owned;
    for (int i = 0; i < units; i++)
        if (opts.shard.owns(i))
            owned.push_back(i);
    res.unitsOwned = static_cast<int>(owned.size());
    if (owned.empty()) {
        res.complete = true;
        return res;
    }

    // One corpus memo per campaign process: identical UB programs
    // derived from different seeds replay the first test's recorded
    // stats instead of re-running the matrix (bit-identical results
    // either way — see CorpusMemo). A resumed run re-populates it from
    // the journaled memo contributions of the replayed units, in unit
    // order, so fresh units keep deduping against work this process
    // never re-ran.
    CorpusMemo memo(config.corpusMemoCap);
    std::map<int, campaign::UnitRecord> replayed;
    if (opts.store) {
        replayed = opts.store->takeReplayed();
        for (auto &[unit, rec] : replayed) {
            for (auto &[key, delta] : rec.memoAdds) {
                memo.insert(key, std::make_shared<const CampaignStats>(
                                     std::move(delta)));
            }
        }
    }
    res.unitsReplayed = static_cast<int>(replayed.size());

    // Completed units buffered until the fold frontier reaches them.
    // Replayed units are pre-seeded (their deltas are already in
    // memory from journal recovery, so peak memory is O(jobs +
    // replayed), not O(units)); fresh units land as workers finish.
    // Folding in strict position order is what keeps every resume /
    // shard / jobs combination bit-identical to one sequential run.
    std::map<size_t, Slot> pending;
    size_t frontier = 0;
    for (size_t p = 0; p < owned.size(); p++) {
        auto it = replayed.find(owned[p]);
        if (it != replayed.end())
            pending.emplace(p, Slot{std::move(it->second.stats), true});
    }

    auto fold = [&] {
        while (!pending.empty() && pending.begin()->first == frontier) {
            Slot &slot = pending.begin()->second;
            if (opts.onUnitFolded)
                opts.onUnitFolded(owned[frontier], slot.stats,
                                  slot.replayed);
            detail::mergeCampaignStats(res.stats,
                                       std::move(slot.stats));
            pending.erase(pending.begin());
            frontier++;
        }
    };

    // Positions still to compute, in order, clipped to the fresh-unit
    // budget (maxFreshUnits pauses the campaign deterministically: the
    // first `toRun` fresh positions run, everything after stays for
    // the next resume).
    std::vector<size_t> fresh;
    for (size_t p = 0; p < owned.size(); p++)
        if (!pending.count(p))
            fresh.push_back(p);
    const size_t budget = opts.maxFreshUnits < 0
                              ? fresh.size()
                              : static_cast<size_t>(opts.maxFreshUnits);
    const size_t toRun = std::min(budget, fresh.size());

    auto stopped = [&] {
        return opts.stopRequested &&
               opts.stopRequested->load(std::memory_order_relaxed);
    };

    // Run one fresh unit and journal it. Journaling happens at
    // completion time (the store serializes appends internally), so a
    // kill loses at most the units still computing — never a completed
    // one — and the journal's record order is irrelevant: each record
    // carries its unit index and replay folds by index. Under
    // `--isolate` the unit runs in a forked, deadline-watched worker
    // (fuzzer/supervisor); a unit that exhausts its retries journals a
    // quarantine record instead, so the campaign still completes.
    // Returns nullopt only for a stop-aborted unit, which is neither
    // journaled nor folded and re-runs on resume.
    auto runOne = [&](size_t p) -> std::optional<CampaignStats> {
        campaign::UnitRecord rec;
        rec.unit = owned[p];
        detail::UnitOutput out;
        if (config.isolate) {
            SuperviseOutcome sup = superviseUnit(
                config, rec.unit, &memo, opts.stopRequested);
            if (sup.kind == SuperviseOutcome::Kind::Aborted)
                return std::nullopt;
            rec.quarantined =
                sup.kind == SuperviseOutcome::Kind::Quarantined;
            if (rec.quarantined) {
                out.stats.quarantined = 1;
            } else {
                out = std::move(sup.out);
                // The supervisor, not the worker, owns the memo: fold
                // the worker's adds in exactly as journal replay would.
                for (auto &[key, delta] : out.memoAdds)
                    memo.insert(key, delta);
            }
            // Attempt accounting merges into the unit's own journaled
            // delta, so a replay reproduces the live stats field for
            // field even for injected-failure runs.
            out.stats.workerCrashes += sup.workerCrashes;
            out.stats.workerTimeouts += sup.workerTimeouts;
            out.stats.retried += sup.retried;
        } else {
            out = detail::runCampaignUnitRecorded(config, rec.unit, &memo);
        }
        rec.stats = std::move(out.stats);
        if (opts.store) {
            rec.memoAdds.reserve(out.memoAdds.size());
            for (auto &[key, delta] : out.memoAdds)
                rec.memoAdds.emplace_back(key, *delta);
            opts.store->append(rec);
        }
        return std::move(rec.stats);
    };

    int jobs = resolveJobs(config.jobs);
    if (jobs > static_cast<int>(toRun))
        jobs = static_cast<int>(toRun);

    // Workers steal fresh positions from a shared cursor and run each
    // unit on a private accumulator — no locks on the hot path. A
    // completed unit is folded into the total in strict position order
    // under the fold mutex. The calling thread is the first worker, so
    // `--jobs 1` claims the positions in order without starting a
    // thread.
    std::atomic<size_t> cursor{0};
    std::atomic<int> ran{0};
    std::mutex foldMutex;
    auto work = [&] {
        for (;;) {
            if (stopped())
                return;
            size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
            if (k >= toRun)
                return;
            size_t p = fresh[k];
            std::optional<CampaignStats> stats = runOne(p);
            if (!stats)
                return; // stop request aborted the unit mid-run
            ran.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(foldMutex);
            pending.emplace(p, Slot{std::move(*stats), false});
            fold();
        }
    };
    std::vector<std::thread> pool;
    for (int w = 1; w < jobs; w++)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();
    // Drain any replayed tail (and handle the all-replayed case, where
    // no worker ever folds).
    fold();
    res.unitsRun = ran.load();

    res.complete = frontier == owned.size();
    // Each quarantined unit folded a delta whose only nonzero field
    // pack is the supervision counters (quarantined == 1), so the
    // merged count *is* the unit count — for fresh and replayed alike.
    res.unitsQuarantined = static_cast<int>(res.stats.quarantined);
    if (res.complete) {
        // Accounting drift fails loudly: every complete run's totals
        // (live, replayed, isolated or a shard's) must satisfy the
        // per-unit accounting identities.
        std::string violation = statsInvariantViolation(res.stats);
        UBF_ASSERT(violation.empty(), "campaign accounting drifted: ",
                   violation);
    }
    return res;
}

} // namespace ubfuzz::fuzzer
