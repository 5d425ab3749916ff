/**
 * @file
 * Multi-threaded, store-backed campaign orchestration. A campaign is a
 * set of independent units (seed programs, or Juliet cases); the
 * orchestrator shards them across a worker pool — and, through the
 * campaign service entry point, across *processes* and *restarts*.
 * Determinism contract:
 *
 *  - every unit draws from an RNG stream split from the campaign seed,
 *    so its behavior is independent of scheduling;
 *  - each unit writes its stats into its own accumulator slot (no
 *    mutex, no sharing between workers);
 *  - slots are folded in unit order after the pool drains, so the
 *    merged result is bit-identical to a sequential run.
 *
 * The campaign service extends the same fold-in-unit-order contract
 * across process boundaries: completed units are journaled to a
 * CampaignStore, a resumed run folds the journaled deltas in unit
 * order exactly as a live run would and computes only the remaining
 * units, and `--shard i/N` runs disjoint unit slices in N independent
 * processes whose journals campaign::mergeStore folds back into the
 * same bytes as one uninterrupted process.
 */

#ifndef UBFUZZ_FUZZER_ORCHESTRATOR_H
#define UBFUZZ_FUZZER_ORCHESTRATOR_H

#include <atomic>
#include <functional>

#include "campaign/store.h"
#include "fuzzer/fuzzer.h"

namespace ubfuzz::fuzzer {

/** How the campaign service runs a campaign beyond one in-memory
 *  process: which shard slice, which journal, when to pause, and who
 *  watches units fold. */
struct ServiceOptions
{
    /** This process's slice of the unit space (default: all of it). */
    campaign::ShardSpec shard;

    /**
     * Journal of completed units, or null for a purely in-memory run.
     * Units recovered by the store (resume) are folded without being
     * re-run; fresh units are appended as they complete. The store's
     * manifest must describe (config, shard) — campaign::manifestFor.
     */
    campaign::CampaignStore *store = nullptr;

    /**
     * Stop *scheduling* new units after this many fresh (non-replayed)
     * units have been claimed; negative means no cap. Used by the CLI's
     * `--max-units` to checkpoint-pause a campaign deterministically
     * (the crash/resume CI smoke kills at half the units this way), and
     * handy for time-boxed shards. In-flight units still complete and
     * journal; the run then reports `complete == false`.
     */
    int maxFreshUnits = -1;

    /**
     * Streaming front end: called once per unit as it folds into the
     * total, in strict unit order, with the unit's stats delta.
     * `replayed` distinguishes journal replays from freshly computed
     * units. Called under the fold lock — keep it cheap (the `--serve`
     * mode prints findings as they dedup).
     */
    std::function<void(int unit, const CampaignStats &delta,
                       bool replayed)>
        onUnitFolded;

    /**
     * Graceful-pause flag, or null. When it flips (the CLI sets it from
     * SIGINT/SIGTERM), no new units are claimed, live isolated workers
     * are SIGKILLed, and the run returns with everything already folded
     * and journaled — `complete == false`, resumable exactly like a
     * maxFreshUnits pause. Aborted units are neither journaled nor
     * folded; they re-run on resume.
     */
    const std::atomic<bool> *stopRequested = nullptr;
};

/** What a service run did, beyond the folded stats. */
struct ServiceResult
{
    CampaignStats stats;
    /** Units this shard owns / replayed from the journal / ran. */
    int unitsOwned = 0;
    int unitsReplayed = 0;
    int unitsRun = 0;
    /** Units (replayed or fresh) that folded as quarantine records —
     *  every retry was exhausted; the campaign completed without them.
     *  Always 0 outside `--isolate`. */
    int unitsQuarantined = 0;
    /** Every owned unit folded (false after a maxFreshUnits pause —
     *  `stats` is then a prefix, not a campaign result). */
    bool complete = false;
};

/**
 * Run a campaign (or one shard of it) as a checkpointable service:
 * replay the store's journal, fold completed units in unit order, run
 * and journal only the remaining ones. Kill + resume reproduces the
 * uninterrupted result bit for bit, for any `--jobs` value. After a
 * complete run that replayed journal records, the merged accounting
 * invariants are re-asserted (statsInvariantViolation) so resume drift
 * fails loudly.
 */
ServiceResult runCampaignService(const CampaignConfig &config,
                                 const ServiceOptions &options);

/** Resolve a --jobs request: 0 or negative means "all hardware threads". */
int resolveJobs(int requested);

} // namespace ubfuzz::fuzzer

#endif // UBFUZZ_FUZZER_ORCHESTRATOR_H
