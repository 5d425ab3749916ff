/**
 * @file
 * End-to-end campaign tests: UBfuzz finds injected sanitizer bugs
 * through differential testing + crash-site mapping; the baselines
 * (MUSIC, Csmith-NoSafe, Juliet) find none — the paper's headline
 * comparison (§4.2/§4.3).
 */

#include <gtest/gtest.h>

#include "fuzzer/fuzzer.h"
#include "mutation/music.h"
#include "corpus/juliet.h"
#include "ast/printer.h"
#include "ir/lowering.h"
#include "vm/vm.h"

namespace ubfuzz::fuzzer {
namespace {

TEST(Campaign, UBFuzzFindsInjectedBugs)
{
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 12;
    cfg.capPerKind = 3;
    CampaignStats stats = runCampaign(cfg);

    EXPECT_GT(stats.ubPrograms, 30u);
    EXPECT_GT(stats.discrepantPrograms, 0u);
    EXPECT_GT(stats.selectedPairs, 0u);
    // The campaign pins real injected bugs.
    EXPECT_GE(stats.distinctBugsFound(), 3u);
    // Ground-truth precision of crash-site mapping is high.
    EXPECT_GT(stats.selectedTrueBug, stats.selectedOptimization);
}

TEST(Campaign, CompileOnceAccounting)
{
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 8;
    cfg.capPerKind = 2;
    CampaignStats stats = runCampaign(cfg);

    // Print once, lower once: one base lowering per productive seed,
    // one derived lowering per UB program (tested or non-triggering),
    // and the testing matrix adopts that module instead of lowering
    // again. Early opt stays shared across the whole sanitizer
    // matrix, and every debugger trace is a re-execution rather than
    // a recompile.
    EXPECT_EQ(statsInvariantViolation(stats), "");
    EXPECT_EQ(stats.compile.lowerings, stats.productiveSeeds());
    EXPECT_EQ(stats.compile.deltaLowerings,
              stats.ubPrograms + stats.nonTriggering);
    EXPECT_GT(stats.compile.deltaLowerings, 0u);
    EXPECT_EQ(stats.compile.deltaFallbacks, 0u);
    EXPECT_LT(stats.compile.earlyOptRuns,
              stats.compile.specializations);
    EXPECT_GT(stats.compile.earlyOptCacheHits, 0u);
    EXPECT_GT(stats.compile.specializations, 0u);
    EXPECT_EQ(stats.unprofiledSeeds, 0u);
    EXPECT_EQ(stats.productiveSeeds(), stats.seeds);
}

TEST(KindOfReport, MapsEveryReportKindExplicitly)
{
    using R = vm::ReportKind;
    using K = ubgen::UBKind;
    EXPECT_EQ(kindOfReport(R::ArrayIndexOOB), K::BufferOverflowArray);
    EXPECT_EQ(kindOfReport(R::StackBufferOverflow),
              K::BufferOverflowPointer);
    EXPECT_EQ(kindOfReport(R::GlobalBufferOverflow),
              K::BufferOverflowPointer);
    EXPECT_EQ(kindOfReport(R::HeapBufferOverflow),
              K::BufferOverflowPointer);
    EXPECT_EQ(kindOfReport(R::HeapUseAfterFree), K::UseAfterFree);
    EXPECT_EQ(kindOfReport(R::StackUseAfterScope), K::UseAfterScope);
    EXPECT_EQ(kindOfReport(R::NullDeref), K::NullPtrDeref);
    EXPECT_EQ(kindOfReport(R::SignedIntegerOverflow),
              K::IntegerOverflow);
    EXPECT_EQ(kindOfReport(R::ShiftOutOfBounds), K::ShiftOverflow);
    EXPECT_EQ(kindOfReport(R::DivByZero), K::DivideByZero);
    // The one that used to fall through the default arm:
    EXPECT_EQ(kindOfReport(R::UninitValue), K::UseOfUninitMemory);
}

TEST(KindOfReportDeathTest, NoneIsNotAReport)
{
    // ReportKind::None used to be silently mislabeled as
    // use-of-uninitialized-memory; now it panics.
    EXPECT_DEATH_IF_SUPPORTED(kindOfReport(vm::ReportKind::None),
                              "not a sanitizer report");
}

TEST(Campaign, BatchedExecutionAccounting)
{
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 8;
    cfg.capPerKind = 2;
    CampaignStats stats = runCampaign(cfg);

    // One machine per tested program (not one per execution), with
    // cheap resets in between: executions = machines + resets. A
    // corpus-replayed duplicate contributes a ubProgram but builds no
    // machine, and under jobs=1 every duplicate replays — so machines
    // track unique programs exactly.
    EXPECT_EQ(stats.exec.machinesBuilt + stats.exec.corpusSkips,
              stats.ubPrograms);
    EXPECT_EQ(stats.exec.machinesBuilt, stats.uniquePrograms());
    EXPECT_GT(stats.exec.resets, 0u);
    EXPECT_EQ(stats.exec.executions,
              stats.exec.machinesBuilt + stats.exec.resets);
    // Equivalent matrix columns specialize to identical binaries whose
    // executions are skipped, so the engine runs strictly fewer
    // executions than the matrix has configurations.
    EXPECT_GT(stats.exec.dedupSkips, 0u);
    EXPECT_LT(stats.exec.executions,
              stats.compile.specializations +
                  stats.compile.traceExecutions +
                  stats.exec.dedupSkips);
}

TEST(Campaign, DigestUnchangedByDedupAndJobs)
{
    CampaignConfig cfg;
    cfg.seed = 11;
    cfg.numSeeds = 10;
    cfg.capPerKind = 2;

    CampaignStats withDedup = runCampaign(cfg);
    ASSERT_GT(withDedup.findings.size(), 0u);

    CampaignConfig noDedup = cfg;
    noDedup.corpusDedup = false;
    CampaignStats withoutDedup = runCampaign(noDedup);

    CampaignConfig sharded = cfg;
    sharded.jobs = 4;
    CampaignStats shardedStats = runCampaign(sharded);

    // The cross-PR invariant: corpus dedup and sharding change how the
    // work is done, never what is found.
    EXPECT_EQ(findingsDigest(withDedup), findingsDigest(withoutDedup));
    EXPECT_EQ(findingsDigest(withDedup), findingsDigest(shardedStats));
    EXPECT_EQ(withDedup.ubPrograms, withoutDedup.ubPrograms);
    EXPECT_EQ(withDedup.selectedPairs, withoutDedup.selectedPairs);
    EXPECT_EQ(withDedup.execTimeouts, shardedStats.execTimeouts);
    EXPECT_EQ(withDedup.corpusDuplicates, shardedStats.corpusDuplicates);
    EXPECT_EQ(withDedup.uniquePrograms(), shardedStats.uniquePrograms());
}

TEST(CorpusMemo, ReplaysRecordedDeltas)
{
    CorpusMemo memo;
    CorpusKey key;
    key.textHash = 42;
    key.textLen = 100;
    key.kind = ubgen::UBKind::NullPtrDeref;
    key.ubLoc = SourceLoc{7, 4};
    EXPECT_EQ(memo.find(key), nullptr);

    auto delta = std::make_shared<CampaignStats>();
    delta->ubPrograms = 1;
    delta->selectedPairs = 3;
    memo.insert(key, delta);
    ASSERT_NE(memo.find(key), nullptr);
    EXPECT_EQ(memo.find(key)->selectedPairs, 3u);
    EXPECT_EQ(memo.size(), 1u);

    // First insertion wins (concurrent units may race to store the
    // same — identical — delta).
    auto other = std::make_shared<CampaignStats>();
    other->selectedPairs = 9;
    memo.insert(key, other);
    EXPECT_EQ(memo.find(key)->selectedPairs, 3u);

    // A different UB site is a different corpus identity.
    CorpusKey otherSite = key;
    otherSite.ubLoc = SourceLoc{8, 0};
    EXPECT_EQ(memo.find(otherSite), nullptr);
}

TEST(Campaign, Deterministic)
{
    CampaignConfig cfg;
    cfg.seed = 5;
    cfg.numSeeds = 4;
    cfg.capPerKind = 2;
    CampaignStats a = runCampaign(cfg);
    CampaignStats b = runCampaign(cfg);
    EXPECT_EQ(a.ubPrograms, b.ubPrograms);
    EXPECT_EQ(a.selectedPairs, b.selectedPairs);
    EXPECT_EQ(a.bugFindingCounts, b.bugFindingCounts);
}

TEST(Campaign, JulietFindsNoBugs)
{
    CampaignConfig cfg;
    cfg.source = SourceMode::Juliet;
    CampaignStats stats = runCampaign(cfg);
    // Every corpus case exhibits its UB...
    EXPECT_EQ(stats.noUB, 0u);
    EXPECT_EQ(stats.ubPrograms, corpus::julietSuite().size());
    // ...but none reveals an injected sanitizer bug (§4.3).
    EXPECT_EQ(stats.distinctBugsFound(), 0u);
    // The testing matrix adopts the ground-truth classifier's
    // lowering: one per case, none redone.
    EXPECT_EQ(stats.compile.lowerings, stats.ubPrograms);
}

TEST(Campaign, MusicMostlyGeneratesNoUB)
{
    CampaignConfig cfg;
    cfg.source = SourceMode::Music;
    cfg.seed = 3;
    cfg.numSeeds = 8;
    cfg.mutantsPerSeed = 10;
    CampaignStats stats = runCampaign(cfg);
    // The overwhelming majority of mutants has no UB (Table 4: ~95%).
    EXPECT_GT(stats.noUB, stats.ubPrograms);
    // The same lowering accounting as UBFuzz: one base lowering per
    // seed, one derived lowering per classified mutant (UB or not).
    EXPECT_EQ(statsInvariantViolation(stats), "");
    EXPECT_EQ(stats.compile.lowerings, stats.productiveSeeds());
    EXPECT_EQ(stats.compile.deltaLowerings, stats.ubPrograms + stats.noUB);
    EXPECT_GT(stats.compile.deltaLowerings, 0u);
}

TEST(Campaign, CsmithNoSafeCoversOnlyArithmeticKinds)
{
    CampaignConfig cfg;
    cfg.source = SourceMode::CsmithNoSafe;
    cfg.seed = 7;
    cfg.numSeeds = 40;
    CampaignStats stats = runCampaign(cfg);
    EXPECT_GT(stats.ubPrograms, 0u);
    using ubgen::UBKind;
    for (size_t k = 0; k < ubgen::kNumUBKinds; k++) {
        UBKind kind = static_cast<UBKind>(k);
        if (kind == UBKind::IntegerOverflow ||
            kind == UBKind::ShiftOverflow ||
            kind == UBKind::DivideByZero)
            continue;
        EXPECT_EQ(stats.perKind[k], 0u) << ubgen::ubKindName(kind);
    }
}

TEST(Campaign, OracleAblationSelectsFarMore)
{
    CampaignConfig with;
    with.seed = 9;
    with.numSeeds = 6;
    with.capPerKind = 2;
    CampaignStats a = runCampaign(with);

    CampaignConfig without = with;
    without.useOracle = false;
    CampaignStats b = runCampaign(without);

    // Without the oracle every discrepant pair is "selected" — the
    // flood the paper says is "practically infeasible" to triage.
    EXPECT_GT(b.selectedPairs, a.selectedPairs);
    EXPECT_GT(b.selectedOptimization, a.selectedOptimization);
}

TEST(Music, MutantsAreSyntacticallyValidAndDeterministic)
{
    gen::GeneratorConfig gc;
    gc.seed = 21;
    auto seed = gen::generateProgram(gc);
    Rng r1(5), r2(5);
    auto m1 = mutation::musicMutate(*seed, r1);
    auto m2 = mutation::musicMutate(*seed, r2);
    ASSERT_NE(m1, nullptr);
    ASSERT_NE(m2, nullptr);
    EXPECT_EQ(ast::programText(*m1), ast::programText(*m2));
    EXPECT_NE(ast::programText(*m1), ast::programText(*seed));
    // Mutants still lower and run (valid programs, possibly UB).
    ast::PrintedProgram printed = ast::printProgram(*m1);
    ir::Module mod = ir::lowerProgram(*m1, printed.map);
    EXPECT_EQ(ir::verifyModule(mod), "");
}

TEST(Juliet, EveryCaseTriggersItsDocumentedKind)
{
    for (const corpus::JulietCase &c : corpus::julietSuite()) {
        auto prog = corpus::parseCase(c);
        ast::PrintedProgram printed = ast::printProgram(*prog);
        ir::Module mod = ir::lowerProgram(*prog, printed.map);
        vm::ExecOptions opts;
        opts.groundTruth = true;
        vm::ExecResult r = vm::execute(mod, opts);
        ASSERT_EQ(r.kind, vm::ExecResult::Kind::Report)
            << c.name << ": " << r.str();
        EXPECT_TRUE(ubgen::reportMatchesKind(c.kind, r.report))
            << c.name << ": " << r.str();
    }
}

} // namespace
} // namespace ubfuzz::fuzzer
