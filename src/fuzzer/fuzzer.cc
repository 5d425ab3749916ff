#include "fuzzer/fuzzer.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>

#include "ast/printer.h"
#include "corpus/juliet.h"
#include "fuzzer/orchestrator.h"
#include "ir/lowering.h"
#include "mutation/music.h"
#include "oracle/oracle.h"
#include "support/diagnostics.h"
#include "support/parse_num.h"
#include "support/rng.h"
#include "vm/bytecode.h"
#include "vm/vm.h"

namespace ubfuzz::fuzzer {

using ubgen::UBKind;

namespace {

/** Every source mode's CLI name, indexed by SourceMode. */
constexpr const char *kSourceModeNames[] = {
    "ubfuzz", "music", "nosafe", "juliet", "harden",
};
static_assert(std::size(kSourceModeNames) ==
              static_cast<size_t>(SourceMode::Harden) + 1);

} // namespace

const char *
sourceModeName(SourceMode m)
{
    size_t i = static_cast<size_t>(m);
    return i < std::size(kSourceModeNames) ? kSourceModeNames[i] : "?";
}

std::optional<SourceMode>
parseSourceMode(std::string_view text)
{
    for (size_t i = 0; i < std::size(kSourceModeNames); i++) {
        if (text == kSourceModeNames[i])
            return static_cast<SourceMode>(i);
    }
    return std::nullopt;
}

std::optional<FailureInjection>
parseFailureInjection(std::string_view text)
{
    std::vector<std::string_view> fields;
    while (true) {
        size_t colon = text.find(':');
        fields.push_back(text.substr(0, colon));
        if (colon == std::string_view::npos)
            break;
        text.remove_prefix(colon + 1);
    }

    FailureInjection inj;
    if (fields[0] == "crash")
        inj.kind = FailureInjection::Kind::Crash;
    else if (fields[0] == "hang")
        inj.kind = FailureInjection::Kind::Hang;
    else if (fields[0] == "torn")
        inj.kind = FailureInjection::Kind::TornPipe;
    else
        return std::nullopt;

    // crash/hang take exactly UNIT:ATTEMPTS; torn additionally takes
    // the byte offset its write is cut at. Nothing is optional.
    const size_t want =
        inj.kind == FailureInjection::Kind::TornPipe ? 4u : 3u;
    if (fields.size() != want)
        return std::nullopt;
    auto unit = support::parseInt(fields[1], 0);
    if (!unit)
        return std::nullopt;
    inj.unit = *unit;
    // ATTEMPTS is a count of failing attempts (>= 1) or the literal
    // -1 for "every attempt"; 0 would make the injection a no-op, so
    // it is a usage error, not a value.
    auto attempts = support::parseInt(fields[2], -1);
    if (!attempts || *attempts == 0)
        return std::nullopt;
    inj.attempts = *attempts;
    if (inj.kind == FailureInjection::Kind::TornPipe) {
        auto bytes = support::parseUint64(fields[3]);
        if (!bytes)
            return std::nullopt;
        inj.tornBytes = *bytes;
    }
    return inj;
}

UBKind
kindOfReport(vm::ReportKind r)
{
    using R = vm::ReportKind;
    switch (r) {
      case R::ArrayIndexOOB:
        return UBKind::BufferOverflowArray;
      case R::StackBufferOverflow:
      case R::GlobalBufferOverflow:
      case R::HeapBufferOverflow:
        return UBKind::BufferOverflowPointer;
      case R::HeapUseAfterFree:
        return UBKind::UseAfterFree;
      case R::StackUseAfterScope:
        return UBKind::UseAfterScope;
      case R::NullDeref:
        return UBKind::NullPtrDeref;
      case R::SignedIntegerOverflow:
        return UBKind::IntegerOverflow;
      case R::ShiftOutOfBounds:
        return UBKind::ShiftOverflow;
      case R::DivByZero:
        return UBKind::DivideByZero;
      case R::UninitValue:
        return UBKind::UseOfUninitMemory;
      case R::None:
      case R::HardeningFault:
        // Not a sanitizer report: only callers holding a crashed
        // sanitizer ExecResult may ask for its UB kind — a
        // HardeningFault belongs to the fault oracle, which classifies
        // it before this mapping is ever consulted. (No default arm,
        // so a new ReportKind is a compile error here rather than a
        // silent mislabel.)
        break;
    }
    UBF_PANIC("kindOfReport: not a sanitizer report: ",
              vm::reportKindName(r));
}

namespace {

/**
 * Can a *program-wide* defect firing (one recorded without a source
 * location: redzone sizing, scope-poison policy, MSan propagation)
 * plausibly explain a missed UB of this kind? Location-specific
 * firings are matched by location instead.
 */
bool
globalFiringExplains(san::BugId id, UBKind kind)
{
    switch (id) {
      case san::BugId::GccAsanStackRedzoneMultiple32:
      case san::BugId::LlvmAsanGlobalSmallArrayRedzoneSkip:
        return kind == UBKind::BufferOverflowArray ||
               kind == UBKind::BufferOverflowPointer;
      case san::BugId::GccAsanScopePoisonLoopRemoved:
      case san::BugId::LlvmAsanEscapedScopeNoPoison:
        return kind == UBKind::UseAfterScope;
      case san::BugId::LlvmMsanSubConstDefined:
        return kind == UBKind::UseOfUninitMemory;
      default:
        return false;
    }
}

/** Ground-truth attribution: which injected defect explains a missed
 *  report at @p ubLoc for UB kind @p kind? -1 when none does. */
int
attributeFiring(const san::CompileLog &log, SourceLoc ubLoc, UBKind kind)
{
    for (const auto &f : log.firings)
        if (f.loc == ubLoc)
            return static_cast<int>(f.id);
    for (const auto &f : log.firings)
        if (!f.loc.isValid() && globalFiringExplains(f.id, kind))
            return static_cast<int>(f.id);
    return -1;
}

/**
 * Builds with assertions (no NDEBUG: the ASan+UBSan Debug build) check
 * every binary a compile shortcut served against its build from
 * scratch, during real campaigns (Campaign::checkShortcut).
 */
#ifdef NDEBUG
constexpr bool kCheckShortcuts = false;
#else
constexpr bool kCheckShortcuts = true;
#endif

/** A program queued for differential testing with known ground truth. */
struct TestItem
{
    std::unique_ptr<ast::Program> program;
    UBKind kind;
    /** Site node id (UBFuzz mode) or 0 (baselines use gtLoc only). */
    uint32_t siteId = 0;
    /** Expected UB location; computed per printing. */
    SourceLoc gtLoc;
    /** Printed form and ground-truth lowering carried over from
     *  validation or classification, so testItem neither re-prints nor
     *  re-lowers what its producer already built. */
    ast::PrintedProgram printed;
    ir::Module baseModule;
};

/**
 * Split an independent RNG stream for one campaign unit. Each unit gets
 * its own SplitMix64 stream keyed on (campaign seed, unit index), so a
 * unit's randomness does not depend on which worker runs it or on how
 * many units ran before it — the property that makes `--jobs N`
 * bit-identical to a sequential run.
 */
Rng
unitRng(uint64_t campaignSeed, uint64_t index)
{
    Rng splitter(campaignSeed * 0x2545F4914F6CDD1DULL + 99 +
                 (index + 1) * 0x9E3779B97F4A7C15ULL);
    return splitter.fork();
}

class Campaign
{
  public:
    /** @p memoAdds, when given, collects the (key, delta) entries this
     *  unit was the first to record in @p memo — the journalable form
     *  of its memo contribution. */
    Campaign(const CampaignConfig &cfg, CorpusMemo *memo,
             std::vector<std::pair<
                 CorpusKey, std::shared_ptr<const CampaignStats>>>
                 *memoAdds = nullptr)
        : cfg_(cfg), memo_(memo), memoAdds_(memoAdds),
          codeCache_(cfg.codeCacheCap)
    {
    }

    /** Run one independent unit: a seed program, or a Juliet case. */
    CampaignStats
    runUnit(int index)
    {
        unit_ = index;
        runUnitInner(index);
        // The unit's bytecode cache dissolves with it; fold its
        // eviction count into the unit's work counters so the campaign
        // totals show how many translations the window dropped.
        stats_.exec.translationCapRejects += codeCache_.capRejects();
        return std::move(stats_);
    }

  private:
    void
    runUnitInner(int index)
    {
        if (cfg_.source == SourceMode::Juliet) {
            const corpus::JulietCase &c =
                corpus::julietSuite()[static_cast<size_t>(index)];
            stats_.seeds++;
            auto prog = corpus::parseCase(c);
            classifyAndTest(std::move(prog));
            return;
        }
        stats_.seeds++;
        Rng rng = unitRng(cfg_.seed, static_cast<uint64_t>(index));
        gen::GeneratorConfig gc;
        gc.seed = cfg_.seed * 1000003ULL + static_cast<uint64_t>(index);
        switch (cfg_.source) {
          case SourceMode::UBFuzz:
          case SourceMode::Harden: {
            gc.safeMath = true;
            auto seed = gen::generateProgram(gc);
            ubgen::UBGenerator ubg(*seed);
            if (!ubg.profiled()) {
                stats_.unprofiledSeeds++;
                break;
            }
            auto programs = ubg.generateAll(rng, cfg_.capPerKind);
            // Lower the clean seed once, eagerly (even for the rare
            // seed with zero derived programs): one base per
            // productive seed is what makes `lowerings == productive
            // seeds` an invariant CI can assert against an independent
            // quantity. Harden mode's fault oracle specializes it.
            compiler::SeedLoweringCache seedCache(*seed,
                                                  &stats_.compile);
            for (auto &ub : programs) {
                // Print once, lower once: the module serves both the
                // ground-truth validation run and, adopted by the
                // item's CompilationCache, the whole testing matrix.
                ast::PrintedProgram printed =
                    ast::printProgram(*ub.program);
                ir::Module mod = seedCache.lowerDerived(
                    *ub.program, printed, ub.perturbedFnId,
                    &stats_.compile);
                // Ground-truth validation through the unit's reusable
                // classifier machine, without a second print or
                // lowering.
                if (!ubgen::validateUBModule(ub, mod, printed,
                                             classifyMachine_)) {
                    stats_.nonTriggering++;
                    continue;
                }
                TestItem item;
                item.program = std::move(ub.program);
                item.kind = ub.kind;
                item.siteId = ub.siteId;
                item.printed = std::move(printed);
                item.baseModule = std::move(mod);
                testItem(std::move(item));
            }
            // The fault oracle draws from the unit RNG only after
            // every UBFuzz draw above, so the shared phases are
            // bit-identical between the two modes.
            if (cfg_.source == SourceMode::Harden)
                faultOracle(seedCache, rng);
            break;
          }
          case SourceMode::Music: {
            gc.safeMath = true;
            auto seed = gen::generateProgram(gc);
            // Same accounting as UBFuzz mode: one base lowering per
            // seed, one derived lowering per mutant.
            compiler::SeedLoweringCache seedCache(*seed,
                                                  &stats_.compile);
            for (int m = 0; m < cfg_.mutantsPerSeed; m++) {
                uint32_t fnId = 0;
                auto mutant = mutation::musicMutate(*seed, rng, &fnId);
                if (!mutant)
                    continue;
                ast::PrintedProgram printed =
                    ast::printProgram(*mutant);
                ir::Module mod = seedCache.lowerDerived(
                    *mutant, printed, fnId, &stats_.compile);
                classifyAndTestLowered(std::move(mutant),
                                       std::move(printed),
                                       std::move(mod));
            }
            break;
          }
          case SourceMode::CsmithNoSafe: {
            gc.safeMath = false;
            classifyAndTest(gen::generateProgram(gc));
            break;
          }
          case SourceMode::Juliet:
            break;
        }
    }

    /** Two executions observably agree: same termination kind, report,
     *  report site, trap, exit code, and checksum. */
    static bool
    sameObservable(const vm::ExecResult &a, const vm::ExecResult &b)
    {
        return a.kind == b.kind && a.report == b.report &&
               a.reportLoc == b.reportLoc && a.trap == b.trap &&
               a.exitCode == b.exitCode && a.checksum == b.checksum;
    }

    /**
     * The fault half of the hardening oracle, run once per productive
     * seed on its *clean* program: compile a hardened twin at a fixed
     * plain-build point, execute it fault-free to learn its step count,
     * then re-execute it `faultsPerProgram` times with one deterministic
     * bit flip armed each time, classifying every run as detected
     * (HardeningFault report), masked (observably identical to the
     * fault-free run), or silent data corruption.
     */
    void
    faultOracle(compiler::SeedLoweringCache &seedCache, Rng &rng)
    {
        compiler::CompilerConfig hc;
        hc.vendor = Vendor::GCC;
        hc.level = OptLevel::O2;
        hc.sanitizer = SanitizerKind::None;
        hc.harden = cfg_.hardenPasses;
        compiler::Binary bin = compiler::specialize(
            compiler::earlyOptimize(
                ir::cloneModule(seedCache.baseModule()), hc.vendor,
                hc.level, &stats_.compile),
            hc, &stats_.compile);

        // A dedicated machine (counted: machinesBuilt + corpusSkips ==
        // ubPrograms + harden.programs), sharing the unit's bytecode
        // cache like every other machine of the unit.
        stats_.harden.programs++;
        vm::Machine machine(&codeCache_);
        vm::ExecOptions opts;
        opts.stepLimit = cfg_.stepLimit;
        // Keyed once: every fault run below re-executes this binary
        // and resolves to the cached translation.
        const ir::BinaryKey key = ir::binaryKey(bin.module);
        vm::ExecResult base = machine.run(bin.module, opts, &key);
        if (base.kind != vm::ExecResult::Kind::Timeout &&
            base.steps > 1) {
            for (int k = 0; k < cfg_.faultsPerProgram; k++) {
                vm::FaultPlan plan;
                plan.step = 1 + rng.below(base.steps - 1);
                plan.target = rng.next();
                plan.bitIndex = static_cast<uint8_t>(rng.below(64));
                vm::ExecOptions fopts;
                fopts.stepLimit = cfg_.stepLimit;
                fopts.fault = &plan;
                vm::ExecResult r = machine.run(bin.module, fopts, &key);
                stats_.harden.faultsInjected++;
                if (r.kind == vm::ExecResult::Kind::Report &&
                    r.report == vm::ReportKind::HardeningFault) {
                    stats_.harden.faultsDetected++;
                } else if (sameObservable(r, base)) {
                    stats_.harden.faultsMasked++;
                } else {
                    stats_.harden.faultsSdc++;
                }
            }
        }
        stats_.exec.merge(machine.stats());
    }

    CampaignConfig cfg_;
    /** The unit being run, for reproducers. */
    int unit_ = 0;
    CorpusMemo *memo_ = nullptr;
    std::vector<std::pair<CorpusKey, std::shared_ptr<const CampaignStats>>>
        *memoAdds_ = nullptr;
    CampaignStats stats_;

    /**
     * One bytecode cache per unit: every machine of the unit — the
     * per-program differential machines, the fault-oracle machine and
     * the classifier below — resolves modules through it, so a binary
     * executed more than once (the debugger re-execution of a silent
     * binary, a hardened twin shared by an alias group, a fault run)
     * is flattened once. Those re-runs follow their first run within
     * one matrix row, so the cache keeps only a window of recent
     * translations (cfg.codeCacheCap) rather than every binary of the
     * unit. Single-threaded like the compilation caches; the
     * orchestrator's parallelism is across units. Declared before the
     * machines that point at it.
     */
    vm::CodeCache codeCache_;

    /**
     * One machine per unit for the ground-truth classifier: baseline
     * modes classify many programs per seed (Music: every mutant), and
     * each classification is a single execution — the rebuild cost
     * vm::execute would pay per call dwarfs the run. Its work counters
     * are deliberately not merged into CampaignStats::exec, which
     * tracks the differential engine (one machine per *tested*
     * program; the CI invariants machinesBuilt + corpusSkips ==
     * ubPrograms and executions == translations + translationHits
     * depend on that).
     */
    vm::Machine classifyMachine_{&codeCache_};

    /** Ground-truth classify a baseline program, then test if UB.
     *  For sources with no seed base (one generated program per NoSafe
     *  seed, the fixed Juliet cases), so their one lowering counts in
     *  `lowerings`; Music mutants come through classifyAndTestLowered
     *  with the module lowerDerived built. */
    void
    classifyAndTest(std::unique_ptr<ast::Program> prog)
    {
        ast::PrintedProgram printed = ast::printProgram(*prog);
        ir::Module mod =
            compiler::lowerOnce(*prog, printed, &stats_.compile);
        classifyAndTestLowered(std::move(prog), std::move(printed),
                               std::move(mod));
    }

    /** The classify tail for callers that already printed and lowered
     *  the program: one ground-truth run through the unit's classifier
     *  machine, then the full matrix. */
    void
    classifyAndTestLowered(std::unique_ptr<ast::Program> prog,
                           ast::PrintedProgram printed, ir::Module mod)
    {
        vm::ExecOptions opts;
        opts.groundTruth = true;
        opts.stepLimit = cfg_.stepLimit;
        vm::ExecResult r = classifyMachine_.run(mod, opts);
        if (r.kind != vm::ExecResult::Kind::Report) {
            stats_.noUB++;
            return;
        }
        TestItem item;
        item.program = std::move(prog);
        item.kind = kindOfReport(r.report);
        item.gtLoc = r.reportLoc;
        item.printed = std::move(printed);
        item.baseModule = std::move(mod);
        testItem(std::move(item));
    }

    /**
     * Test one item through its whole sanitizer matrix — or, when an
     * identical item (same printed text, kind, UB site) was already
     * tested this campaign, replay the recorded stats delta instead.
     * Replay is bit-identical to recomputing because the printed text
     * is the compiler's entire input; only the execution work counters
     * know the difference.
     */
    void
    testItem(TestItem item)
    {
        ast::PrintedProgram printed = std::move(item.printed);
        SourceLoc ub_loc =
            item.siteId ? printed.map.loc(item.siteId) : item.gtLoc;

        // One cache per tested program: every sanitizer row of the
        // matrix below shares a single lowering and one early-opt run
        // per (vendor, level).
        compiler::CompilationCache cache(*item.program, printed);
        cache.adoptBase(std::move(item.baseModule));

        CorpusKey key;
        key.textHash = cache.baseTextHash();
        key.textLen = printed.text.size();
        key.kind = item.kind;
        key.ubLoc = ub_loc;
        if (stats_.corpusSeen[key]++ > 0)
            stats_.corpusDuplicates++;

        if (memo_ && cfg_.corpusDedup) {
            if (auto delta = memo_->find(key)) {
                stats_.exec.corpusSkips++;
                detail::mergeCampaignStats(stats_,
                                           CampaignStats(*delta));
                return;
            }
        }

        // One machine per UB program: the whole config matrix below —
        // including the debugger re-executions — runs through it, with
        // a cheap reset between runs instead of a rebuild. It shares
        // the unit's bytecode cache, so re-executions of a binary any
        // machine of this unit already ran reuse the translation.
        vm::Machine machine(&codeCache_);
        CampaignStats delta;
        testItemMatrix(std::move(item), printed, ub_loc, cache, machine,
                       delta);
        stats_.exec.merge(machine.stats());
        if (memo_ && cfg_.corpusDedup) {
            auto recorded = std::make_shared<const CampaignStats>(delta);
            switch (memo_->insert(key, recorded)) {
              case CorpusMemo::Insert::Inserted:
                // This unit owns the entry: journal it so a resumed
                // campaign re-populates the memo without re-running
                // the matrix.
                if (memoAdds_)
                    memoAdds_->emplace_back(key, std::move(recorded));
                break;
              case CorpusMemo::Insert::AlreadyPresent:
                break;
              case CorpusMemo::Insert::CapFull:
                stats_.exec.corpusCapRejects++;
                break;
            }
        }
        detail::mergeCampaignStats(stats_, std::move(delta));
    }

    /**
     * Rebuild a binary that a shortcut served (a reused matrix cell, a
     * hardened twin) the slow way, as compile(program, printed,
     * config) alone, and panic with a reproducer unless it executes
     * and logs the same. Called for every such binary in builds with
     * assertions (kCheckShortcuts).
     */
    void
    checkShortcut(const char *what, const ir::Module &module,
                  const san::CompileLog &log,
                  const compiler::CompilerConfig &config,
                  const ast::Program &program,
                  const ast::PrintedProgram &printed) const
    {
        const compiler::Binary slow =
            compiler::compile(program, printed, config);
        if (ir::executionKey(slow.module) != ir::executionKey(module) ||
            !(slow.log == log)) {
            UBF_PANIC(what, " differs from its build from scratch: seed ",
                      cfg_.seed, ", unit ", unit_, ", mode ",
                      sourceModeName(cfg_.source), ", config ",
                      config.str());
        }
    }

    /**
     * Drift phase (Harden mode): every outcome's hardened twin must
     * behave observably identically without a fault armed — hardening
     * that changes a sanitizer report (or anything else) is a compiler
     * bug, not a detection. Timeout on either side is incomparable
     * (hardening multiplies the step count), not drift.
     *
     * A twin is harden::apply over its plain binary, and the outcomes
     * of one alias group are one binary, so each group's twin is
     * derived, verified and keyed once (CompilationCache::
     * hardenedTwin), run once per outcome, and freed after its group's
     * last outcome. Every twin counts one specialization, as the
     * compile of each twin it replaces did.
     */
    void
    driftPhase(const oracle::DifferentialResult &diff,
               const ast::Program &program,
               const ast::PrintedProgram &printed,
               compiler::CompilationCache &cache, vm::Machine &machine,
               CampaignStats &delta)
    {
        struct Twin
        {
            ir::Module module;
            ir::BinaryKey key;
        };
        const std::vector<oracle::ConfigOutcome> &outcomes = diff.outcomes;
        std::vector<size_t> lastOfGroup(outcomes.size());
        for (size_t i = 0; i < outcomes.size(); i++)
            lastOfGroup[outcomes[i].aliasRoot] = i;
        // By alias root, while the group has outcomes left.
        std::map<size_t, Twin> twins;
        for (size_t i = 0; i < outcomes.size(); i++) {
            const oracle::ConfigOutcome &oc = outcomes[i];
            if (oc.result.kind == vm::ExecResult::Kind::Timeout)
                continue;
            compiler::CompilerConfig hc = oc.config;
            hc.harden = cfg_.hardenPasses;
            auto twin = twins.find(oc.aliasRoot);
            if (twin != twins.end()) {
                cache.noteReuse(hc);
            } else {
                ir::Module m = cache.hardenedTwin(
                    outcomes[oc.aliasRoot].module, hc);
                const ir::BinaryKey key = ir::binaryKey(m);
                twin = twins.emplace(oc.aliasRoot, Twin{std::move(m), key})
                           .first;
            }
            if (kCheckShortcuts)
                checkShortcut("hardened twin", twin->second.module, oc.log,
                              hc, program, printed);
            vm::ExecOptions opts;
            opts.stepLimit = cfg_.stepLimit;
            vm::ExecResult hr =
                machine.run(twin->second.module, opts, &twin->second.key);
            if (lastOfGroup[oc.aliasRoot] == i)
                twins.erase(twin);
            if (hr.kind == vm::ExecResult::Kind::Timeout)
                continue;
            delta.harden.driftComparisons++;
            if (!sameObservable(oc.result, hr))
                delta.harden.driftReports++;
        }
    }

    /** The matrix proper; every statistic it produces goes into
     *  @p delta so a corpus-dedup hit can replay it verbatim. */
    void
    testItemMatrix(TestItem item, const ast::PrintedProgram &printed,
                   SourceLoc ub_loc, compiler::CompilationCache &cache,
                   vm::Machine &machine, CampaignStats &delta)
    {
        delta.ubPrograms++;
        delta.perKind[static_cast<size_t>(item.kind)]++;

        bool program_discrepant = false;
        bool program_selected = false;

        for (SanitizerKind sani : ubgen::sanitizersFor(item.kind)) {
            std::vector<compiler::CompilerConfig> configs =
                oracle::testingMatrix(sani);
            if (cfg_.onlyO0) {
                std::erase_if(configs,
                              [](const compiler::CompilerConfig &c) {
                                  return c.level != OptLevel::O0;
                              });
            }
            oracle::DifferentialResult diff = oracle::runDifferential(
                cache, machine, configs, cfg_.stepLimit);
            delta.execTimeouts += diff.timeouts;
            delta.timeoutExcluded += diff.timeoutExcluded;
            for (const auto &oc : diff.outcomes) {
                if (kCheckShortcuts && oc.reused)
                    checkShortcut("reused matrix cell", oc.module, oc.log,
                                  oc.config, *item.program, printed);
            }

            if (cfg_.source == SourceMode::Harden)
                driftPhase(diff, *item.program, printed, cache, machine,
                           delta);

            // Wrong-report detection: a binary reports, but at the
            // wrong location, and a wrong-line-information defect
            // fired at the true UB site.
            for (const auto &oc : diff.outcomes) {
                if (!oc.result.crashed() ||
                    oc.result.reportLoc == ub_loc)
                    continue;
                for (const auto &f : oc.log.firings) {
                    if (f.loc == ub_loc &&
                        san::bugInfo(f.id).category ==
                            san::BugCategory::WrongLineInformation) {
                        delta.wrongReports++;
                        delta.wrongReportBugs.insert(f.id);
                        break;
                    }
                }
            }

            if (!diff.hasDiscrepancy())
                continue;
            program_discrepant = true;

            for (const auto &v : diff.verdicts) {
                delta.verdictPairs++;
                const oracle::ConfigOutcome &missing =
                    diff.outcomes[v.nonCrashingIdx];
                int attributed =
                    attributeFiring(missing.log, ub_loc, item.kind);
                bool gt_bug = attributed >= 0;
                bool selected = cfg_.useOracle ? v.isBug : true;
                if (!selected) {
                    delta.droppedPairs++;
                    if (gt_bug)
                        delta.droppedTrueBug++;
                    continue;
                }
                delta.selectedPairs++;
                program_selected = true;
                if (gt_bug)
                    delta.selectedTrueBug++;
                else
                    delta.selectedOptimization++;

                FindingRecord rec;
                rec.kind = item.kind;
                rec.crashing = diff.outcomes[v.crashingIdx].config;
                rec.missing = missing.config;
                rec.ubLoc = ub_loc;
                rec.groundTruthBug = gt_bug;
                if (gt_bug) {
                    rec.attributedBug = attributed;
                    san::BugId id = static_cast<san::BugId>(attributed);
                    delta.bugFindingCounts[id]++;
                    delta.bugFirstKind.emplace(id, item.kind);
                    delta.bugLevels[id].insert(missing.config.level);
                } else {
                    delta.invalidFindings++;
                }
                if (delta.findings.size() < CampaignStats::kMaxFindings)
                    delta.findings.push_back(rec);
            }
        }
        if (program_discrepant)
            delta.discrepantPrograms++;
        if (program_selected)
            delta.oracleSelectedPrograms++;
        delta.compile.merge(cache.stats());
    }
};

} // namespace

namespace detail {

int
campaignUnitCount(const CampaignConfig &config)
{
    if (config.source == SourceMode::Juliet)
        return static_cast<int>(corpus::julietSuite().size());
    return config.numSeeds;
}

CampaignStats
runCampaignUnit(const CampaignConfig &config, int index, CorpusMemo *memo)
{
    return Campaign(config, memo).runUnit(index);
}

UnitOutput
runCampaignUnitRecorded(const CampaignConfig &config, int index,
                        CorpusMemo *memo)
{
    UnitOutput out;
    out.stats =
        Campaign(config, memo, &out.memoAdds).runUnit(index);
    return out;
}

void
mergeCampaignStats(CampaignStats &into, CampaignStats &&from)
{
    into.seeds += from.seeds;
    into.unprofiledSeeds += from.unprofiledSeeds;
    into.ubPrograms += from.ubPrograms;
    for (size_t k = 0; k < ubgen::kNumUBKinds; k++)
        into.perKind[k] += from.perKind[k];
    into.nonTriggering += from.nonTriggering;
    into.noUB += from.noUB;
    into.discrepantPrograms += from.discrepantPrograms;
    into.oracleSelectedPrograms += from.oracleSelectedPrograms;
    into.verdictPairs += from.verdictPairs;
    into.selectedPairs += from.selectedPairs;
    into.selectedTrueBug += from.selectedTrueBug;
    into.selectedOptimization += from.selectedOptimization;
    into.droppedPairs += from.droppedPairs;
    into.droppedTrueBug += from.droppedTrueBug;
    for (const auto &[id, n] : from.bugFindingCounts)
        into.bugFindingCounts[id] += n;
    // emplace keeps the earlier unit's kind, matching the sequential
    // "first kind seen" semantics when merged in unit order.
    for (const auto &[id, kind] : from.bugFirstKind)
        into.bugFirstKind.emplace(id, kind);
    for (const auto &[id, levels] : from.bugLevels)
        into.bugLevels[id].insert(levels.begin(), levels.end());
    into.wrongReports += from.wrongReports;
    into.wrongReportBugs.insert(from.wrongReportBugs.begin(),
                                from.wrongReportBugs.end());
    into.invalidFindings += from.invalidFindings;
    into.compile.merge(from.compile);
    into.exec.merge(from.exec);
    into.execTimeouts += from.execTimeouts;
    into.timeoutExcluded += from.timeoutExcluded;
    into.workerCrashes += from.workerCrashes;
    into.workerTimeouts += from.workerTimeouts;
    into.retried += from.retried;
    into.quarantined += from.quarantined;
    into.harden.merge(from.harden);
    // Fold the corpus seen-set in unit order: occurrences of a key an
    // earlier unit already tested are cross-seed duplicates. `from`'s
    // own beyond-first occurrences are already in from.corpusDuplicates;
    // a key collision additionally turns `from`'s first occurrence into
    // a duplicate.
    into.corpusDuplicates += from.corpusDuplicates;
    for (const auto &[key, n] : from.corpusSeen) {
        auto [it, inserted] = into.corpusSeen.emplace(key, n);
        if (!inserted) {
            it->second += n;
            into.corpusDuplicates++;
        }
    }
    for (auto &rec : from.findings) {
        if (into.findings.size() >= CampaignStats::kMaxFindings)
            break;
        into.findings.push_back(rec);
    }
}

} // namespace detail

uint64_t
findingsDigest(const CampaignStats &stats)
{
    std::vector<FindingRecord> findings = stats.findings;
    std::sort(findings.begin(), findings.end());
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
    for (const auto &f : findings) {
        mix(static_cast<uint64_t>(f.kind));
        mix(static_cast<uint64_t>(f.crashing.vendor));
        mix(static_cast<uint64_t>(f.crashing.level));
        mix(static_cast<uint64_t>(f.crashing.sanitizer));
        mix(static_cast<uint64_t>(f.missing.vendor));
        mix(static_cast<uint64_t>(f.missing.level));
        mix(static_cast<uint64_t>(f.missing.sanitizer));
        mix(static_cast<uint64_t>(static_cast<uint32_t>(f.ubLoc.line)));
        mix(static_cast<uint64_t>(
            static_cast<uint32_t>(f.ubLoc.offset)));
        mix(static_cast<uint64_t>(f.attributedBug + 1));
    }
    return h;
}

std::string
statsInvariantViolation(const CampaignStats &s)
{
    auto mismatch = [](const char *what, size_t lhs, size_t rhs) {
        return std::string(what) + ": " + std::to_string(lhs) +
               " != " + std::to_string(rhs);
    };
    // One base lowering per productive seed (or per classified
    // baseline program); derived programs count in deltaLowerings.
    if (s.compile.lowerings != s.productiveSeeds()) {
        return mismatch("lowerings != productive seeds",
                        s.compile.lowerings, s.productiveSeeds());
    }
    // Every specialization asks for exactly one early-opt module: a
    // canonical point's first request builds it, a repeat hits, and a
    // point built only as another's prefix counts nothing.
    if (s.compile.earlyOptRuns + s.compile.earlyOptCacheHits !=
        s.compile.specializations) {
        return mismatch("early-opt runs + hits != specializations",
                        s.compile.earlyOptRuns +
                            s.compile.earlyOptCacheHits,
                        s.compile.specializations);
    }
    // Every interpreted execution resolves through a CodeCache exactly
    // once: a flattening or a hit, never both, never neither.
    if (s.exec.executions !=
        s.exec.translations + s.exec.translationHits) {
        return mismatch("executions != translations + hits",
                        s.exec.executions,
                        s.exec.translations + s.exec.translationHits);
    }
    // One differential machine per tested program, plus one per
    // hardened fault-oracle program; replayed duplicates build none.
    if (s.exec.machinesBuilt + s.exec.corpusSkips !=
        s.ubPrograms + s.harden.programs) {
        return mismatch("machines built + corpus replays != "
                        "ub programs + hardened programs",
                        s.exec.machinesBuilt + s.exec.corpusSkips,
                        s.ubPrograms + s.harden.programs);
    }
    return {};
}

CampaignStats
runCampaign(const CampaignConfig &config)
{
    return runCampaignService(config, ServiceOptions{}).stats;
}

} // namespace ubfuzz::fuzzer
