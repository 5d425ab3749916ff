/**
 * @file
 * Supervised (fork-isolated) execution of campaign units.
 *
 * The campaign service's `--isolate` mode runs every unit in a forked
 * worker process. The worker computes the unit exactly as the
 * in-process path would (same RNG stream, same corpus-memo snapshot)
 * and streams its result — the CampaignStats delta plus the corpus
 * memo entries it was the first to record — back over a pipe as one
 * checksummed frame. The frame is the unit's journal record, kind 0
 * (completed): the same bytes campaign/store appends for the unit, in
 * the one layout stated at support::encodeRecord, read back by the
 * same record reader and decoder.
 *
 * So the journal's record discipline applies to IPC unchanged: the
 * supervisor folds a worker's delta only after the whole frame
 * arrived and its checksum and decode both passed, so a worker
 * that dies mid-write — at any byte offset — contributes nothing, the
 * same way a torn journal tail replays nothing. A dead, hung (past the
 * `--unit-timeout` deadline, enforced by SIGKILL), or torn worker is
 * retried with exponential backoff up to `--retries` times; a unit
 * that exhausts its retries is quarantined — the campaign completes
 * without it and records why.
 *
 * Determinism: a worker is a fork of the supervisor, so a crash-free
 * unit computes bit-identically to the in-process path, and the
 * supervisor folds results behind the same unit-order frontier — the
 * standard digest is invariant across `--isolate` on/off and any
 * `--jobs` value.
 */

#ifndef UBFUZZ_FUZZER_SUPERVISOR_H
#define UBFUZZ_FUZZER_SUPERVISOR_H

#include <atomic>
#include <functional>
#include <string>
#include <string_view>

#include "fuzzer/fuzzer.h"

namespace ubfuzz::fuzzer {

/** @{ Worker result-frame codec, shared by the supervisor, the worker,
 *  and the torn-IPC test grid: the unit record codec of
 *  support/serialize.h. Decode accepts exactly one complete,
 *  checksummed, completed-unit record for the expected unit and
 *  rejects everything else — a truncation at any byte offset, a
 *  flipped byte, trailing garbage, a quarantine record, or another
 *  unit's frame. */
std::string encodeUnitFrame(int unit, const detail::UnitOutput &out);
bool decodeUnitFrame(std::string_view bytes, int expectedUnit,
                     detail::UnitOutput &out);
/** @} */

/** What supervising one unit produced. */
struct SuperviseOutcome
{
    enum class Kind : uint8_t {
        /** A worker attempt returned a complete frame; `out` is its
         *  result (bit-identical to an in-process run of the unit). */
        Completed,
        /** Every attempt crashed, hung, or tore its frame; the unit
         *  contributes only a quarantine record. */
        Quarantined,
        /** A stop request arrived mid-supervision; the live worker was
         *  killed and the unit is simply not run (it re-runs on
         *  resume). Counters still report the attempts made. */
        Aborted,
    };

    Kind kind = Kind::Completed;
    detail::UnitOutput out; ///< valid only for Completed

    /** Attempt accounting: every failed attempt is exactly one crash
     *  or one timeout, and every re-attempt after a failure is one
     *  retry — `workerCrashes + workerTimeouts == retried` for a
     *  Completed outcome and `retried + 1` for a Quarantined one. */
    size_t workerCrashes = 0;
    size_t workerTimeouts = 0;
    size_t retried = 0;
};

/**
 * The unit body a worker runs; tests substitute a cheap deterministic
 * one to grid-test the IPC/retry machinery without recomputing real
 * units. Defaults to detail::runCampaignUnitRecorded.
 */
using UnitWorkFn = std::function<detail::UnitOutput(
    const CampaignConfig &, int unit, CorpusMemo *)>;

/**
 * Run unit @p unit in a forked, deadline-watched worker and return its
 * result, retrying per @p config (unitTimeoutMs, retries,
 * failureInjection). @p memo is the supervisor's corpus memo: the
 * worker inherits a consistent snapshot across fork (CorpusMemo's fork
 * lock), and the supervisor — not the worker — owns re-inserting the
 * returned memo adds. @p stop may be null; when it flips, the live
 * worker is SIGKILLed and the outcome is Aborted.
 */
SuperviseOutcome superviseUnit(const CampaignConfig &config, int unit,
                               CorpusMemo *memo,
                               const std::atomic<bool> *stop = nullptr,
                               const UnitWorkFn &work = {});

} // namespace ubfuzz::fuzzer

#endif // UBFUZZ_FUZZER_SUPERVISOR_H
