/**
 * @file
 * The parallel orchestrator's determinism contract: sharding a
 * campaign across a worker pool never changes the result — the same
 * findings, the same ground-truth attribution, the same counters,
 * regardless of `jobs`. The campaign service extends the contract
 * across processes: kill + resume and shard + merge must reproduce an
 * uninterrupted run bit for bit, for any jobs value.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>

#include <gtest/gtest.h>

#include "fuzzer/orchestrator.h"

namespace ubfuzz::fuzzer {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch store directory per test, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const char *tag)
    {
        path = fs::temp_directory_path() /
               (std::string("ubfuzz_service_") + tag + "_" +
                std::to_string(reinterpret_cast<uintptr_t>(this)));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

std::vector<FindingRecord>
sortedFindings(const CampaignStats &stats)
{
    std::vector<FindingRecord> f = stats.findings;
    std::sort(f.begin(), f.end());
    return f;
}

void
expectIdentical(const CampaignStats &a, const CampaignStats &b)
{
    EXPECT_EQ(a.seeds, b.seeds);
    EXPECT_EQ(a.ubPrograms, b.ubPrograms);
    EXPECT_EQ(a.nonTriggering, b.nonTriggering);
    EXPECT_EQ(a.noUB, b.noUB);
    for (size_t k = 0; k < ubgen::kNumUBKinds; k++)
        EXPECT_EQ(a.perKind[k], b.perKind[k]) << "kind " << k;
    EXPECT_EQ(a.discrepantPrograms, b.discrepantPrograms);
    EXPECT_EQ(a.oracleSelectedPrograms, b.oracleSelectedPrograms);
    EXPECT_EQ(a.verdictPairs, b.verdictPairs);
    EXPECT_EQ(a.selectedPairs, b.selectedPairs);
    EXPECT_EQ(a.selectedTrueBug, b.selectedTrueBug);
    EXPECT_EQ(a.selectedOptimization, b.selectedOptimization);
    EXPECT_EQ(a.droppedPairs, b.droppedPairs);
    EXPECT_EQ(a.droppedTrueBug, b.droppedTrueBug);
    EXPECT_EQ(a.bugFindingCounts, b.bugFindingCounts);
    EXPECT_EQ(a.bugFirstKind, b.bugFirstKind);
    EXPECT_EQ(a.bugLevels, b.bugLevels);
    EXPECT_EQ(a.wrongReports, b.wrongReports);
    EXPECT_EQ(a.wrongReportBugs, b.wrongReportBugs);
    EXPECT_EQ(a.invalidFindings, b.invalidFindings);
    // Timeout accounting and the corpus seen-set fold in unit order,
    // so they are part of the determinism contract too. (The ExecStats
    // work counters are deliberately not: under jobs > 1 a cross-seed
    // duplicate being computed concurrently may be recomputed instead
    // of replayed — identical results, slightly different work.)
    EXPECT_EQ(a.execTimeouts, b.execTimeouts);
    EXPECT_EQ(a.timeoutExcluded, b.timeoutExcluded);
    EXPECT_EQ(a.corpusSeen, b.corpusSeen);
    EXPECT_EQ(a.corpusDuplicates, b.corpusDuplicates);
    EXPECT_EQ(sortedFindings(a), sortedFindings(b));
}

TEST(Orchestrator, ShardingIsDeterministic)
{
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 12;
    cfg.capPerKind = 2;

    cfg.jobs = 1;
    CampaignStats sequential = runCampaign(cfg);
    cfg.jobs = 4;
    CampaignStats sharded = runCampaign(cfg);

    // The campaign actually found things (the comparison is not 0==0).
    ASSERT_GT(sequential.ubPrograms, 0u);
    ASSERT_GT(sequential.findings.size(), 0u);
    expectIdentical(sequential, sharded);
}

TEST(Orchestrator, MoreJobsThanUnits)
{
    CampaignConfig cfg;
    cfg.seed = 3;
    cfg.numSeeds = 3;
    cfg.capPerKind = 2;

    cfg.jobs = 1;
    CampaignStats sequential = runCampaign(cfg);
    cfg.jobs = 16;
    CampaignStats sharded = runCampaign(cfg);
    expectIdentical(sequential, sharded);
}

TEST(Orchestrator, JulietShardsDeterministically)
{
    CampaignConfig cfg;
    cfg.source = SourceMode::Juliet;

    cfg.jobs = 1;
    CampaignStats sequential = runCampaign(cfg);
    cfg.jobs = 4;
    CampaignStats sharded = runCampaign(cfg);
    ASSERT_GT(sequential.ubPrograms, 0u);
    expectIdentical(sequential, sharded);
}

TEST(Orchestrator, ResolveJobs)
{
    EXPECT_EQ(resolveJobs(3), 3);
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_GE(resolveJobs(-2), 1);
}

TEST(Orchestrator, EmptyCampaign)
{
    CampaignConfig cfg;
    cfg.numSeeds = 0;
    cfg.jobs = 8;
    CampaignStats stats = runCampaign(cfg);
    EXPECT_EQ(stats.seeds, 0u);
    EXPECT_EQ(stats.ubPrograms, 0u);
}

TEST(Service, StreamsUnitsInOrder)
{
    CampaignConfig cfg;
    cfg.seed = 5;
    cfg.numSeeds = 6;
    cfg.capPerKind = 2;
    cfg.jobs = 4;

    std::vector<int> folded;
    CampaignStats prefix;
    ServiceOptions opts;
    opts.onUnitFolded = [&](int unit, const CampaignStats &delta,
                            bool replayed) {
        EXPECT_FALSE(replayed);
        folded.push_back(unit);
        if (unit < 3) {
            CampaignStats copy = delta;
            detail::mergeCampaignStats(prefix, std::move(copy));
        }
    };
    ServiceResult res = runCampaignService(cfg, opts);
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.unitsOwned, 6);
    EXPECT_EQ(res.unitsRun, 6);
    EXPECT_EQ(res.unitsReplayed, 0);
    // Strict unit order even with a racing pool: the fold frontier is
    // what makes `--serve` output identical run to run.
    EXPECT_EQ(folded, (std::vector<int>{0, 1, 2, 3, 4, 5}));

    // A unit's delta does not depend on the campaign's size: the first
    // three streamed deltas fold into the 3-seed campaign exactly
    // (bench_paper serves its 60- and 120-seed artifacts from one run
    // on this property).
    cfg.numSeeds = 3;
    CampaignStats small = runCampaign(cfg);
    ASSERT_GT(small.findings.size(), 0u);
    expectIdentical(small, prefix);
    EXPECT_EQ(findingsDigest(prefix), findingsDigest(small));
}

TEST(Service, KillAndResumeIsBitIdentical)
{
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 10;
    cfg.capPerKind = 2;
    cfg.jobs = 1;
    CampaignStats uninterrupted = runCampaign(cfg);
    ASSERT_GT(uninterrupted.findings.size(), 0u);

    for (int jobs : {1, 4}) {
        SCOPED_TRACE(jobs);
        cfg.jobs = jobs;
        TempDir dir("resume");
        campaign::Manifest m =
            campaign::manifestFor(cfg, campaign::ShardSpec{});
        std::string error;

        // First process: pause after half the units — the
        // deterministic stand-in for `kill` (a real kill additionally
        // tears the final record, which test_store covers byte by
        // byte).
        auto store =
            campaign::CampaignStore::open(dir.str(), m, false, &error);
        ASSERT_TRUE(store) << error;
        ServiceOptions opts;
        opts.store = store.get();
        opts.maxFreshUnits = 5;
        ServiceResult first = runCampaignService(cfg, opts);
        EXPECT_FALSE(first.complete);
        EXPECT_EQ(first.unitsRun, 5);
        store.reset();

        // Second process: replay the journal, run the rest.
        store =
            campaign::CampaignStore::open(dir.str(), m, true, &error);
        ASSERT_TRUE(store) << error;
        std::vector<bool> replayedFlags;
        ServiceOptions resumeOpts;
        resumeOpts.store = store.get();
        resumeOpts.onUnitFolded = [&replayedFlags](
                                      int, const CampaignStats &,
                                      bool replayed) {
            replayedFlags.push_back(replayed);
        };
        ServiceResult second = runCampaignService(cfg, resumeOpts);
        EXPECT_TRUE(second.complete);
        EXPECT_EQ(second.unitsReplayed, 5);
        EXPECT_EQ(second.unitsRun, 5);
        ASSERT_EQ(replayedFlags.size(), 10u);
        for (size_t i = 0; i < replayedFlags.size(); i++)
            EXPECT_EQ(replayedFlags[i], i < 5) << "unit " << i;

        expectIdentical(uninterrupted, second.stats);
        EXPECT_EQ(findingsDigest(second.stats),
                  findingsDigest(uninterrupted));
        if (jobs == 1) {
            // Sequentially, even the work counters are reproduced:
            // the journal carries the paused run's exact deltas and
            // memo contributions, so the resumed process does exactly
            // the work the uninterrupted one would have.
            EXPECT_EQ(second.stats, uninterrupted);
        }
    }
}

TEST(Service, ReplayOfCompletedCampaignReproducesEveryField)
{
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 8;
    cfg.capPerKind = 2;
    cfg.jobs = 1;

    TempDir dir("replay");
    campaign::Manifest m =
        campaign::manifestFor(cfg, campaign::ShardSpec{});
    std::string error;
    auto store =
        campaign::CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    ServiceOptions opts;
    opts.store = store.get();
    ServiceResult live = runCampaignService(cfg, opts);
    ASSERT_TRUE(live.complete);
    store.reset();

    // Replay-only run: every unit folds from the journal, nothing is
    // recomputed, and the resulting CampaignStats is structurally
    // equal to the live one — every field, work counters included
    // (defaulted operator==).
    store = campaign::CampaignStore::open(dir.str(), m, true, &error);
    ASSERT_TRUE(store) << error;
    ServiceOptions replayOpts;
    replayOpts.store = store.get();
    ServiceResult replayed = runCampaignService(cfg, replayOpts);
    EXPECT_TRUE(replayed.complete);
    EXPECT_EQ(replayed.unitsReplayed, 8);
    EXPECT_EQ(replayed.unitsRun, 0);
    EXPECT_EQ(replayed.stats, live.stats);
}

TEST(Service, ShardedStoresMergeToUninterruptedCampaign)
{
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 8;
    cfg.capPerKind = 2;
    cfg.jobs = 1;
    CampaignStats whole = runCampaign(cfg);
    ASSERT_GT(whole.findings.size(), 0u);

    for (int count : {2, 4}) {
        for (int jobs : {1, 4}) {
            SCOPED_TRACE(std::to_string(count) + " shards, jobs " +
                         std::to_string(jobs));
            cfg.jobs = jobs;
            TempDir dir("shard");
            int owned = 0;
            for (int i = 1; i <= count; i++) {
                campaign::ShardSpec shard{i, count};
                std::string error;
                auto store = campaign::CampaignStore::open(
                    dir.str(), campaign::manifestFor(cfg, shard),
                    false, &error);
                ASSERT_TRUE(store) << error;
                ServiceOptions opts;
                opts.shard = shard;
                opts.store = store.get();
                ServiceResult res = runCampaignService(cfg, opts);
                EXPECT_TRUE(res.complete);
                owned += res.unitsOwned;
            }
            EXPECT_EQ(owned, cfg.numSeeds);

            campaign::MergeResult merged =
                campaign::mergeStore(dir.str());
            ASSERT_TRUE(merged.ok) << merged.error;
            EXPECT_EQ(merged.unitsMerged,
                      static_cast<size_t>(cfg.numSeeds));
            expectIdentical(whole, merged.stats);
            EXPECT_EQ(findingsDigest(merged.stats),
                      findingsDigest(whole));
        }
    }
}

TEST(Service, IsolatedWorkersAreBitIdentical)
{
    // The tentpole determinism claim at service granularity: forked,
    // supervised workers produce the same campaign as in-process
    // units, for any jobs value — a worker is a fork computing the
    // identical unit, and results fold behind the same frontier.
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 8;
    cfg.capPerKind = 2;
    cfg.jobs = 1;
    CampaignStats inProcess = runCampaign(cfg);
    ASSERT_GT(inProcess.findings.size(), 0u);

    cfg.isolate = true;
    for (int jobs : {1, 4}) {
        SCOPED_TRACE(jobs);
        cfg.jobs = jobs;
        ServiceResult res = runCampaignService(cfg, ServiceOptions{});
        EXPECT_TRUE(res.complete);
        EXPECT_EQ(res.unitsQuarantined, 0);
        expectIdentical(inProcess, res.stats);
        EXPECT_EQ(findingsDigest(res.stats),
                  findingsDigest(inProcess));
        // Crash-free supervision leaves no accounting trace at all.
        EXPECT_EQ(res.stats.workerCrashes, 0u);
        EXPECT_EQ(res.stats.workerTimeouts, 0u);
        EXPECT_EQ(res.stats.retried, 0u);
        EXPECT_EQ(res.stats.quarantined, 0u);
        if (jobs == 1)
            EXPECT_EQ(res.stats, inProcess);
    }
}

TEST(Service, QuarantinedUnitSurvivesResumeWithoutDoubleCounting)
{
    // Unit 3 crashes on every attempt: the campaign must complete
    // around it (quarantine record), and a --resume must neither
    // re-run it nor double-count anything.
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 8;
    cfg.capPerKind = 2;
    cfg.jobs = 1;
    cfg.isolate = true;
    cfg.retries = 1;
    cfg.failureInjection =
        FailureInjection{FailureInjection::Kind::Crash, 3, -1, 0};

    TempDir dir("quarantine");
    campaign::Manifest m =
        campaign::manifestFor(cfg, campaign::ShardSpec{});
    std::string error;
    auto store =
        campaign::CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;
    ServiceOptions opts;
    opts.store = store.get();
    ServiceResult live = runCampaignService(cfg, opts);
    EXPECT_TRUE(live.complete);
    EXPECT_EQ(live.unitsRun, 8);
    EXPECT_EQ(live.unitsQuarantined, 1);
    EXPECT_EQ(live.stats.quarantined, 1u);
    EXPECT_EQ(live.stats.retried, 1u);
    EXPECT_EQ(live.stats.workerCrashes, 2u);
    // The quarantined unit contributes nothing to either side of any
    // accounting identity — the satellite's headline check:
    // machinesBuilt + corpusSkips == ubPrograms + harden.programs.
    EXPECT_EQ(statsInvariantViolation(live.stats), "");
    EXPECT_EQ(live.stats.exec.machinesBuilt +
                  live.stats.exec.corpusSkips,
              live.stats.ubPrograms + live.stats.harden.programs);
    store.reset();

    // Resume: all 8 units (the quarantine record included) replay;
    // nothing re-runs, and the totals are field-for-field what the
    // live run reported — no double-count, no silent loss.
    store = campaign::CampaignStore::open(dir.str(), m, true, &error);
    ASSERT_TRUE(store) << error;
    ServiceOptions resumeOpts;
    resumeOpts.store = store.get();
    ServiceResult resumed = runCampaignService(cfg, resumeOpts);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.unitsReplayed, 8);
    EXPECT_EQ(resumed.unitsRun, 0);
    EXPECT_EQ(resumed.unitsQuarantined, 1);
    EXPECT_EQ(resumed.stats, live.stats);
    EXPECT_EQ(statsInvariantViolation(resumed.stats), "");
    store.reset();

    // The store still merges as a complete campaign: quarantine is a
    // first-class record, not a hole.
    campaign::MergeResult merged = campaign::mergeStore(dir.str());
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_EQ(merged.unitsMerged, 8u);
    EXPECT_EQ(merged.stats, live.stats);
}

TEST(Service, StopRequestPausesResumably)
{
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 8;
    cfg.capPerKind = 2;
    cfg.jobs = 1;
    CampaignStats uninterrupted = runCampaign(cfg);

    TempDir dir("stop");
    campaign::Manifest m =
        campaign::manifestFor(cfg, campaign::ShardSpec{});
    std::string error;
    auto store =
        campaign::CampaignStore::open(dir.str(), m, false, &error);
    ASSERT_TRUE(store) << error;

    // Flip the stop flag from the fold callback after three units —
    // the in-test stand-in for SIGINT arriving mid-campaign. The
    // journal must already hold everything folded so far.
    std::atomic<bool> stop{false};
    int folds = 0;
    ServiceOptions opts;
    opts.store = store.get();
    opts.stopRequested = &stop;
    opts.onUnitFolded = [&](int, const CampaignStats &, bool) {
        if (++folds == 3)
            stop.store(true);
    };
    ServiceResult paused = runCampaignService(cfg, opts);
    EXPECT_FALSE(paused.complete);
    EXPECT_EQ(paused.unitsRun, 3);
    store.reset();

    store = campaign::CampaignStore::open(dir.str(), m, true, &error);
    ASSERT_TRUE(store) << error;
    ServiceOptions resumeOpts;
    resumeOpts.store = store.get();
    ServiceResult resumed = runCampaignService(cfg, resumeOpts);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.unitsReplayed, 3);
    EXPECT_EQ(resumed.unitsRun, 5);
    EXPECT_EQ(resumed.stats, uninterrupted);
    EXPECT_EQ(findingsDigest(resumed.stats),
              findingsDigest(uninterrupted));
}

TEST(Service, TinyCapsAreBitIdentical)
{
    // Shrink the corpus memo and the per-unit code cache to 4 entries:
    // the memo stops admitting and the cache's window evicts, and both
    // recompute instead, so every logical statistic and the digest
    // equal those of an unbounded code cache — only the cap-reject
    // counters (and the other work counters) know the difference.
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 10;
    cfg.capPerKind = 2;
    cfg.jobs = 1;
    cfg.codeCacheCap = SIZE_MAX;
    CampaignStats unbounded = runCampaign(cfg);
    EXPECT_EQ(unbounded.exec.corpusCapRejects, 0u);
    EXPECT_EQ(unbounded.exec.translationCapRejects, 0u);

    cfg.corpusMemoCap = 4;
    cfg.codeCacheCap = 4;
    CampaignStats tiny = runCampaign(cfg);
    expectIdentical(unbounded, tiny);
    EXPECT_EQ(findingsDigest(tiny), findingsDigest(unbounded));
    // The caps actually bit on this workload (the comparison above is
    // not vacuous).
    EXPECT_GT(tiny.exec.corpusCapRejects, 0u);
    EXPECT_GT(tiny.exec.translationCapRejects, 0u);
}

/** The work counters of @p mode's campaign with a code-cache window of
 *  @p window, minus the evictions (which only an unbounded window
 *  avoids). */
vm::ExecStats
execAtWindow(SourceMode mode, size_t window)
{
    CampaignConfig cfg;
    cfg.source = mode;
    cfg.seed = 11;
    cfg.numSeeds = 6;
    cfg.capPerKind = 2;
    cfg.jobs = 1;
    cfg.codeCacheCap = window;
    vm::ExecStats exec = runCampaign(cfg).exec;
    exec.translationCapRejects = 0;
    return exec;
}

TEST(Service, DefaultCodeCacheWindowLosesNoReuse)
{
    // A translation is reused only soon after its first run (the
    // crash-site re-runs of its matrix row, a twin's re-runs for its
    // alias group, a program's fault runs), so the default window —
    // one row plus its hardened twins — gets every translation hit an
    // unbounded cache gets, in every source mode; a window smaller
    // than a row does not.
    for (SourceMode mode :
         {SourceMode::UBFuzz, SourceMode::Harden, SourceMode::Music,
          SourceMode::CsmithNoSafe, SourceMode::Juliet}) {
        SCOPED_TRACE(sourceModeName(mode));
        const vm::ExecStats unbounded = execAtWindow(mode, SIZE_MAX);
        EXPECT_GT(unbounded.translationHits, 0u);
        EXPECT_EQ(execAtWindow(mode, vm::CodeCache::kDefaultMaxEntries),
                  unbounded);
        // Juliet's few re-runs all fit in a window of 8.
        if (mode != SourceMode::Juliet) {
            EXPECT_LT(execAtWindow(mode, 8).translationHits,
                      unbounded.translationHits);
        }
    }
}

} // namespace
} // namespace ubfuzz::fuzzer
