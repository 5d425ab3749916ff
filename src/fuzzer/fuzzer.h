/**
 * @file
 * The UBfuzz campaign driver (§4.1 "Testing process"): generate seeds,
 * derive UB programs, differentially test the sanitizer matrix, apply
 * crash-site mapping, and attribute findings against the injected-bug
 * ground truth.
 *
 * The same driver also runs the paper's baselines by swapping the UB
 * program source (MUSIC mutants, Csmith-NoSafe, the Juliet-like
 * corpus) — the §4.3 comparison — and the ablations (oracle off;
 * -O0-only testing).
 */

#ifndef UBFUZZ_FUZZER_FUZZER_H
#define UBFUZZ_FUZZER_FUZZER_H

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include "compiler/compiler.h"
#include "generator/generator.h"
#include "harden/harden.h"
#include "sanitizer/bug_catalog.h"
#include "ubgen/ubgen.h"
#include "vm/bytecode.h"
#include "vm/vm.h"

namespace ubfuzz::fuzzer {

/**
 * Where UB programs come from (Table 4's generator column). Harden is
 * UBFuzz plus the hardening differential oracle: the same seeds, UB
 * programs, and testing matrix (the finding digest is identical), with
 * two extra phases per unit — a hardened-twin drift comparison of every
 * matrix outcome, and a deterministic fault-injection campaign on the
 * hardened clean seed.
 */
enum class SourceMode : uint8_t {
    UBFuzz,
    Music,
    CsmithNoSafe,
    Juliet,
    Harden,
};

const char *sourceModeName(SourceMode m);

/**
 * Strict inverse of sourceModeName for the CLI (`--mode`): exactly
 * "ubfuzz", "music", "nosafe", "juliet", or "harden"; anything else —
 * including prefixes and trailing junk — is std::nullopt.
 */
std::optional<SourceMode> parseSourceMode(std::string_view text);

/**
 * Deterministic in-tree fault hook for the supervised (`--isolate`)
 * execution layer — the supervisor's analogue of vm::FaultPlan. It
 * makes a chosen unit's worker misbehave on its first `attempts`
 * supervised attempts (crash before producing a result, hang past the
 * deadline, or die mid-write leaving a torn result frame), after which
 * the unit succeeds normally. Tests and the CI smoke drive the
 * retry/backoff/quarantine machinery through this instead of relying
 * on real nondeterministic failures.
 */
struct FailureInjection
{
    enum class Kind : uint8_t {
        None,     ///< no injected failure
        Crash,    ///< worker _exits before writing any result bytes
        Hang,     ///< worker blocks forever (deadline watchdog food)
        TornPipe, ///< worker writes only `tornBytes` of its frame
    };

    Kind kind = Kind::None;
    /** Campaign unit whose worker misbehaves. */
    int unit = -1;
    /** Fail the first `attempts` supervised attempts, then succeed;
     *  negative means every attempt (forces quarantine). */
    int attempts = 1;
    /** TornPipe only: result-frame bytes written before the worker
     *  dies (0 = dies before writing anything). */
    uint64_t tornBytes = 0;

    bool
    firesOn(int forUnit, int attempt) const
    {
        return kind != Kind::None && forUnit == unit &&
               (attempts < 0 || attempt < attempts);
    }

    friend bool operator==(const FailureInjection &,
                           const FailureInjection &) = default;
};

/**
 * Strict CLI parser for `--inject`: `crash:UNIT:ATTEMPTS`,
 * `hang:UNIT:ATTEMPTS`, or `torn:UNIT:ATTEMPTS:BYTES`, with UNIT >= 0
 * and ATTEMPTS >= 1 or exactly -1 ("every attempt"). Anything else —
 * unknown kinds, missing or extra fields, junk numbers — is
 * std::nullopt.
 */
std::optional<FailureInjection>
parseFailureInjection(std::string_view text);

struct CampaignConfig
{
    uint64_t seed = 1;
    /** Seed programs to process (ignored for Juliet). */
    int numSeeds = 40;
    /** UB programs per (seed, kind) for UBFuzz mode. */
    size_t capPerKind = 3;
    /** Mutants per seed for Music mode (paper: ~14). */
    int mutantsPerSeed = 14;
    SourceMode source = SourceMode::UBFuzz;
    /** Crash-site mapping on/off (ablation: accept every discrepancy). */
    bool useOracle = true;
    /** Ablation: test only at -O0 (§1: misses higher-level bugs). */
    bool onlyO0 = false;
    /** Step budget of every differential execution, plumbed end to end
     *  (runDifferential -> ExecOptions); `--step-limit` on the CLI. */
    uint64_t stepLimit = 1'000'000;
    /**
     * Worker threads sharding the seeds. Results are identical for any
     * value: every seed owns an RNG stream split from `seed`, and
     * per-seed results merge in seed order. 1 runs on the caller.
     */
    int jobs = 1;
    /**
     * Cross-seed corpus dedup: identical UB programs (same printed
     * text, kind, and UB site) replay the recorded stats of their
     * first test instead of re-running the matrix. Never changes any
     * logical statistic or the finding digest — only the work counters
     * (ExecStats) — because identical text compiles and executes
     * identically.
     */
    bool corpusDedup = true;
    /**
     * Entry cap of the campaign-wide corpus memo (default mirrors
     * CorpusMemo::kDefaultMaxEntries). A full memo stops admitting and
     * recomputes duplicates instead.
     */
    size_t corpusMemoCap = 16384;
    /**
     * Window of the per-unit bytecode cache: it keeps this many
     * translations, least recent out first. The default is one
     * testing-matrix row plus its hardened twins, the span in which a
     * translation is reused (see vm::CodeCache::kDefaultMaxEntries).
     * Neither cap changes any logical result: tests shrink both to 4
     * and assert the digest and stats are bit-identical, with only the
     * ExecStats cap-reject counters knowing the difference, and assert
     * that the default window loses no translation hit an unbounded
     * one gets.
     */
    size_t codeCacheCap = vm::CodeCache::kDefaultMaxEntries;
    /**
     * Harden mode: deterministic single-bit faults injected per
     * hardened clean-seed program (`--fault-rate` on the CLI). Each
     * fault's plan (step, target, bit) is drawn from the unit's RNG
     * *after* all UBFuzz draws, so the finding digest matches the
     * standard mode for any value.
     */
    int faultsPerProgram = 8;
    /** Hardening families compiled into the twins (harden::k* bits;
     *  `--harden-passes` on the CLI). */
    uint32_t hardenPasses = harden::kAllFamilies;
    /**
     * Supervised execution (`--isolate`): run every campaign unit in a
     * forked worker process that streams its stats delta and corpus
     * memo adds back over a pipe, so a crashing, hanging, or aborting
     * unit costs one retry (and eventually one quarantine record), not
     * the whole campaign. Crash-free runs are bit-identical with this
     * on or off, for any `jobs` value — the supervisor folds worker
     * results behind the same unit-order frontier the in-process path
     * uses. Like `jobs`, none of the fields below enter the journal's
     * configHash: a campaign may legally resume with different
     * supervision settings.
     */
    bool isolate = false;
    /** Per-unit wall-clock deadline in milliseconds, enforced by
     *  SIGKILL (`--unit-timeout`); 0 disables the watchdog. */
    uint64_t unitTimeoutMs = 0;
    /** Supervised re-attempts after a worker crash or timeout before
     *  the unit is quarantined (`--retries`; 0 = no retries). */
    int retries = 2;
    /** Deterministic worker-failure hook (`--inject`; tests/CI). */
    FailureInjection failureInjection;
};

/**
 * Identity of one tested (program, UB) item for corpus dedup. The
 * printed text is the compiler's entire input, so (text hash, text
 * length, kind, UB site) pin down the whole testing matrix's behavior;
 * length and site make an accidental 64-bit hash collision practically
 * impossible.
 */
struct CorpusKey
{
    uint64_t textHash = 0;
    uint64_t textLen = 0;
    ubgen::UBKind kind = ubgen::UBKind::BufferOverflowArray;
    SourceLoc ubLoc;

    auto
    tie() const
    {
        return std::make_tuple(textHash, textLen,
                               static_cast<int>(kind), ubLoc.line,
                               ubLoc.offset);
    }

    friend bool
    operator<(const CorpusKey &a, const CorpusKey &b)
    {
        return a.tie() < b.tie();
    }

    friend bool
    operator==(const CorpusKey &a, const CorpusKey &b)
    {
        return a.tie() == b.tie();
    }
};

/** One oracle-selected (program, missing-config) finding. */
struct FindingRecord
{
    ubgen::UBKind kind;
    compiler::CompilerConfig crashing;
    compiler::CompilerConfig missing;
    SourceLoc ubLoc;
    /** Ground truth: an injected bug influenced the missing binary. */
    bool groundTruthBug = false;
    int attributedBug = -1; ///< san::BugId when groundTruthBug

    /** Total order so finding sets are comparable across runs. */
    auto
    key() const
    {
        auto cc = [](const compiler::CompilerConfig &c) {
            return std::make_tuple(static_cast<int>(c.vendor), c.version,
                                   static_cast<int>(c.level),
                                   static_cast<int>(c.sanitizer));
        };
        return std::make_tuple(static_cast<int>(kind), cc(crashing),
                               cc(missing), ubLoc.line, ubLoc.offset,
                               groundTruthBug, attributedBug);
    }

    friend bool
    operator<(const FindingRecord &a, const FindingRecord &b)
    {
        return a.key() < b.key();
    }

    friend bool
    operator==(const FindingRecord &a, const FindingRecord &b)
    {
        return a.key() == b.key();
    }
};

/**
 * Hardening differential-oracle counters (Harden mode only; all zero
 * elsewhere). The CI smoke asserts `driftReports == 0` (hardening must
 * not change any observable behavior without a fault) and a detection
 * rate `faultsDetected / (faultsDetected + faultsSdc) >= 0.9` (at
 * least 90% of the observable-result-altering faults are turned into
 * HardeningFault reports).
 */
struct HardenStats
{
    /** Hardened clean-seed programs put through the fault oracle. */
    size_t programs = 0;
    size_t faultsInjected = 0;
    /** Fault runs ending in a HardeningFault report. */
    size_t faultsDetected = 0;
    /** Fault runs whose observable result equals the fault-free run. */
    size_t faultsMasked = 0;
    /** Silent data corruption: result altered, no detection. */
    size_t faultsSdc = 0;
    /** Hardened-twin vs plain outcome comparisons (drift phase). */
    size_t driftComparisons = 0;
    /** Comparisons where the hardened twin behaved differently. */
    size_t driftReports = 0;

    /** Every counter once, in wire order: merge and the serializer
     *  (support/serialize.h) both walk this list. */
    static constexpr size_t HardenStats::*kCounters[] = {
        &HardenStats::programs,         &HardenStats::faultsInjected,
        &HardenStats::faultsDetected,   &HardenStats::faultsMasked,
        &HardenStats::faultsSdc,        &HardenStats::driftComparisons,
        &HardenStats::driftReports,
    };

    void
    merge(const HardenStats &o)
    {
        for (auto counter : kCounters)
            this->*counter += o.*counter;
    }

    friend bool operator==(const HardenStats &, const HardenStats &) =
        default;
};

struct CampaignStats
{
    /** Seed programs attempted (including unprofiled ones). */
    size_t seeds = 0;
    /**
     * Seeds whose UBGen profiling failed, so no UB program was derived
     * from them. Kept separate from `seeds` so generator-yield
     * denominators (Table 4) divide by productive seeds, not attempts.
     */
    size_t unprofiledSeeds = 0;
    /** UB programs actually tested (validated / classified). */
    size_t ubPrograms = 0;
    size_t perKind[ubgen::kNumUBKinds] = {};
    /** Generated programs that did not trigger UB (skipped). */
    size_t nonTriggering = 0;
    /** Baseline programs with no UB at all (Table 4 "No UB"). */
    size_t noUB = 0;

    size_t discrepantPrograms = 0;
    size_t oracleSelectedPrograms = 0;
    /** Individual (crash, silent) pairs examined / selected. */
    size_t verdictPairs = 0;
    size_t selectedPairs = 0;
    /** Ground-truth classification of selected pairs (RQ3 precision). */
    size_t selectedTrueBug = 0;
    size_t selectedOptimization = 0;
    /** Ground-truth classification of dropped pairs (RQ3 recall). */
    size_t droppedPairs = 0;
    size_t droppedTrueBug = 0;

    /** Distinct injected bugs found, with per-bug details. */
    std::map<san::BugId, size_t> bugFindingCounts;
    std::map<san::BugId, ubgen::UBKind> bugFirstKind;
    std::map<san::BugId, std::set<OptLevel>> bugLevels;

    /** Wrong-report findings (report produced at a wrong location). */
    size_t wrongReports = 0;
    std::set<san::BugId> wrongReportBugs;

    /** Oracle-selected discrepancies not explained by any injected
     *  bug — candidate invalid reports (the paper's Figure 8 case). */
    size_t invalidFindings = 0;

    std::vector<FindingRecord> findings; ///< capped sample

    /**
     * Staged-compiler execution counters: how many lowerings, early-opt
     * runs, and specializations the campaign actually performed. The
     * compile-once/specialize-many win is `earlyOptCacheHits` high and
     * `lowerings` equal to the number of tested programs.
     */
    compiler::CompileStats compile;

    /**
     * Execution-engine work counters (vm::ExecStats): machines built
     * (one per tested program, not one per run), resets between runs,
     * dedup skips. Like `compile`, these count work actually performed
     * — a rebuild-per-execution regression shows up here first.
     */
    vm::ExecStats exec;

    /** Differential executions that hit the step limit. */
    size_t execTimeouts = 0;
    /** Timed-out binaries excluded from discrepancy pairing. */
    size_t timeoutExcluded = 0;

    /**
     * Supervised-execution counters (`--isolate`; all zero otherwise,
     * which bench_throughput's CI smoke asserts). Crash-free runs keep
     * all four at zero, so they never perturb the digest grid; with
     * failures (real or injected) every failed attempt lands in
     * exactly one of crashes/timeouts, every re-attempt in `retried`,
     * and every abandoned unit in `quarantined` — no silent loss.
     * A quarantined unit contributes nothing else, so the accounting
     * identities (statsInvariantViolation) hold with both sides simply
     * missing its share. The counters are journaled with their unit's
     * record (quarantine records carry the failing unit's attempt
     * tally), so a resumed campaign reproduces them without re-running
     * anything.
     */
    size_t workerCrashes = 0;  ///< attempts dead before a complete frame
    size_t workerTimeouts = 0; ///< attempts SIGKILLed at the deadline
    size_t retried = 0;        ///< re-attempts after a crash/timeout
    size_t quarantined = 0;    ///< units abandoned after retry exhaustion

    /** Hardening-oracle counters (Harden mode; zero elsewhere). */
    HardenStats harden;

    /**
     * Corpus identity multiset of this campaign (unit): every tested
     * item's CorpusKey with its occurrence count. Units carry their own
     * seen-sets; mergeCampaignStats folds them in seed order, counting
     * occurrences of already-seen keys into `corpusDuplicates` — which
     * keeps the cross-seed accounting bit-identical for any `--jobs`.
     */
    std::map<CorpusKey, size_t> corpusSeen;
    /** Tested items whose key was already seen by an earlier item. */
    size_t corpusDuplicates = 0;

    size_t distinctBugsFound() const { return bugFindingCounts.size(); }

    /** Distinct (text, kind, site) identities tested this campaign. */
    size_t uniquePrograms() const { return corpusSeen.size(); }

    /** Seeds that produced at least a profile (Table 4 denominator). */
    size_t
    productiveSeeds() const
    {
        return seeds - unprofiledSeeds;
    }

    /** Exact structural equality, every field — what the campaign
     *  store's replay tests compare (a journaled campaign must
     *  reproduce the live struct, not just the digest). */
    friend bool operator==(const CampaignStats &, const CampaignStats &) =
        default;
};

/**
 * The campaign-wide corpus memo: CorpusKey -> the complete CampaignStats
 * delta recorded when that item was first tested. A hit replays the
 * delta instead of re-running the matrix.
 *
 * Determinism: a stored delta is a pure function of its key (identical
 * printed text compiles and executes identically), so replaying is
 * bit-identical to recomputing — which is why sharing the memo across
 * concurrently running units cannot perturb any logical statistic or
 * the finding digest, regardless of scheduling. Under `--jobs 1` every
 * cross-seed duplicate hits; under `--jobs N` a duplicate being
 * computed concurrently may be recomputed (identical result, slightly
 * less work saved). Only the work counters (ExecStats) reflect that
 * difference.
 */
class CorpusMemo
{
  public:
    /** What CorpusMemo::insert did with the entry. */
    enum class Insert : uint8_t {
        Inserted,       ///< new key admitted
        AlreadyPresent, ///< first insertion won earlier
        CapFull,        ///< memo stopped admitting at its cap
    };

    /** Default memory bound: ~16k retained per-item deltas at most. */
    static constexpr size_t kDefaultMaxEntries = 16384;

    explicit CorpusMemo(size_t maxEntries = kDefaultMaxEntries)
        : maxEntries_(maxEntries)
    {
    }

    /** The recorded delta for @p key, or nullptr. */
    std::shared_ptr<const CampaignStats>
    find(const CorpusKey &key) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : it->second;
    }

    /**
     * Record @p delta for @p key; the first insertion wins, and the
     * memo stops admitting new keys at its cap so a huge campaign
     * cannot grow it without bound (a refused-by-cap duplicate is
     * simply recomputed — identical results, a little less work
     * saved; the O(jobs) peak of the orchestrator's fold is intact).
     * The return value tells the caller which case happened, so the
     * campaign can journal its own contributions and count cap
     * rejections.
     */
    Insert
    insert(const CorpusKey &key,
           std::shared_ptr<const CampaignStats> delta)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (map_.count(key))
            return Insert::AlreadyPresent;
        if (map_.size() >= maxEntries_)
            return Insert::CapFull;
        map_.emplace(key, std::move(delta));
        return Insert::Inserted;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return map_.size();
    }

    /**
     * Lock to hold across fork(). A worker child inherits the memo by
     * copy-on-write; if another campaign thread held `mu_` at the fork
     * moment, the child's copy of the mutex would be locked forever
     * (its owner does not exist there) and the map possibly mid-update.
     * The supervisor takes this lock, forks, and releases it on both
     * sides — the forking thread continues in the child, so the child
     * releases a lock it legitimately owns and sees a consistent map.
     */
    std::unique_lock<std::mutex>
    forkLock()
    {
        return std::unique_lock<std::mutex>(mu_);
    }

  private:
    size_t maxEntries_;
    mutable std::mutex mu_;
    std::map<CorpusKey, std::shared_ptr<const CampaignStats>> map_;
};

/**
 * Run one campaign, sharded across `config.jobs` workers. Deterministic
 * in the config; `jobs` never changes the result, only the wall clock.
 */
CampaignStats runCampaign(const CampaignConfig &config);

/** Map a ground-truth report to the UB kind taxonomy. */
ubgen::UBKind kindOfReport(vm::ReportKind r);

/**
 * Order-independent digest of a campaign's findings (FNV-1a over the
 * sorted records). The cross-PR invariant: the digest is identical for
 * every `--jobs` value and unchanged by corpus dedup; bench_throughput
 * prints it and CI asserts it.
 */
uint64_t findingsDigest(const CampaignStats &stats);

/**
 * Check the cross-layer accounting invariants that must survive any
 * combination of journal replay, resume, and shard merge (they are
 * per-unit identities, so any in-order fold of unit deltas preserves
 * them): `lowerings == productive seeds`,
 * `early-opt runs + early-opt cache hits == specializations`,
 * `executions == translations + translation hits`, and
 * `machines built + corpus replays == ub programs + hardened fault
 * programs`. Returns an empty
 * string when all hold, else a description of the first violation —
 * the campaign service panics on it after every replay-involved run,
 * so stats-accounting drift on resume fails loudly instead of
 * corrupting merged totals silently.
 */
std::string statsInvariantViolation(const CampaignStats &stats);

namespace detail {

/** Independent units a campaign shards over (seeds or Juliet cases). */
int campaignUnitCount(const CampaignConfig &config);

/** Run unit @p index on its own RNG stream split from `config.seed`.
 *  @p memo is the campaign's shared corpus memo (may be null). */
CampaignStats runCampaignUnit(const CampaignConfig &config, int index,
                              CorpusMemo *memo = nullptr);

/**
 * Everything one completed unit contributes, in journalable form: its
 * stats delta plus the corpus-memo entries it was the first to record
 * (so a resumed campaign can re-populate the memo and keep deduping
 * against units it never re-ran).
 */
struct UnitOutput
{
    CampaignStats stats;
    std::vector<std::pair<CorpusKey, std::shared_ptr<const CampaignStats>>>
        memoAdds;
};

/** runCampaignUnit, additionally recording the unit's memo
 *  contributions — the journaling entry point. */
UnitOutput runCampaignUnitRecorded(const CampaignConfig &config,
                                   int index, CorpusMemo *memo);

/**
 * Fold @p from into @p into. Folding unit stats in increasing index
 * order reproduces a sequential run exactly (findings cap, first-kind
 * attribution), which is what makes sharding merge-order-independent.
 */
void mergeCampaignStats(CampaignStats &into, CampaignStats &&from);

} // namespace detail

} // namespace ubfuzz::fuzzer

#endif // UBFUZZ_FUZZER_FUZZER_H
