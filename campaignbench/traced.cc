/**
 * @file
 * The traced run: per-layer attribution from outside the program.
 *
 * For the in-process workloads (ubfuzz, harden, music) every unit is
 * replayed through the same public calls fuzzer.cc's unit loop makes —
 * gen::generateProgram, ubgen::UBGenerator, compiler::SeedLoweringCache,
 * ast::printProgram, mutation::musicMutate, ubgen::validateUBModule,
 * oracle::ExecutionPlan::compile/run, vm::Machine::run, and
 * CompilationCache::compile for the harden twins — with a span around
 * each call. The replica copies private details of fuzzer.cc (the
 * unitRng split, the generator seed formula, the harden fault draws),
 * so every replayed unit is checked against detail::runCampaignUnit on
 * the same (config, unit) and the run refuses to report on a mismatch.
 *
 * For the service workload the supervised service loop is driven from
 * here: superviseUnit, CampaignStore::append and CampaignStore::open
 * (fresh and resume) are timed, and the folded result is checked
 * against a real runCampaignService pause/resume whose folds are
 * timestamped through ServiceOptions::onUnitFolded.
 *
 * Spans live in memory and are written at the end as Chrome
 * trace-event JSON; run.py derives every per-layer time from that
 * file. Spans under "bench.probe" re-run pure functions on the same
 * inputs (splitting oracle.compile into early opt, specialize and
 * binary keying; timing translation and the frame codec) and are not
 * part of any unit's time.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "ast/printer.h"
#include "bench.h"
#include "campaign/store.h"
#include "compiler/compiler.h"
#include "fuzzer/orchestrator.h"
#include "fuzzer/supervisor.h"
#include "generator/generator.h"
#include "mutation/music.h"
#include "opt/pass.h"
#include "oracle/oracle.h"
#include "support/rng.h"
#include "ubgen/ubgen.h"
#include "vm/bytecode.h"
#include "vm/vm.h"

using namespace ubfuzz;

namespace campaignbench {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void
fail(const std::string &why)
{
    std::fprintf(stderr, "campaignbench trace: %s\n", why.c_str());
    std::exit(1);
}

/** One timed call (or, with start == end, one timestamp). */
struct Span
{
    const char *name = "";
    int64_t start = 0;
    int64_t end = 0;
    /** Index of the enclosing span in the same Tracer, or -1. */
    int64_t parent = -1;
    int unit = -1;
    bool instant = false;
};

/** The spans of one thread, kept in memory until the run ends. */
class Tracer
{
  public:
    /** A span that closes when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t), index_(t.open(name)) {}
        ~Scope() { t_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        size_t index_;
    };

    void setUnit(int unit) { unit_ = unit; }

    void
    mark(const char *name, int unit)
    {
        Span s;
        s.name = name;
        s.start = s.end = nowNs();
        s.unit = unit;
        s.instant = true;
        spans_.push_back(s);
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    size_t
    open(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
        s.unit = unit_;
        spans_.push_back(s);
        open_.push_back(spans_.size() - 1);
        spans_.back().start = nowNs();
        return spans_.size() - 1;
    }

    void
    close(size_t index)
    {
        spans_[index].end = nowNs();
        open_.pop_back();
    }

    std::vector<Span> spans_;
    std::vector<size_t> open_;
    int unit_ = -1;
};

using Scope = Tracer::Scope;

/** Write every tracer's spans as Chrome trace-event JSON; tracer i is
 *  thread (tid) i. Span ids are global; "parent" is -1 for roots. */
void
writeTrace(const std::string &path, const std::vector<Tracer> &tracers,
           int64_t origin)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fail("cannot write " + path);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    const char *sep = "\n";
    int64_t base = 0;
    for (size_t tid = 0; tid < tracers.size(); tid++) {
        const std::vector<Span> &spans = tracers[tid].spans();
        for (size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            const double ts = static_cast<double>(s.start - origin) / 1e3;
            if (s.instant) {
                std::fprintf(f,
                             "%s{\"name\":%s,\"ph\":\"i\",\"s\":\"t\","
                             "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                             "\"args\":{\"unit\":%d}}",
                             sep, quote(s.name).c_str(), tid, ts, s.unit);
            } else {
                std::fprintf(
                    f,
                    "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                    "\"parent\":%lld,\"unit\":%d}}",
                    sep, quote(s.name).c_str(), tid, ts,
                    static_cast<double>(s.end - s.start) / 1e3,
                    static_cast<long long>(base + static_cast<int64_t>(i)),
                    static_cast<long long>(s.parent < 0 ? -1
                                                        : base + s.parent),
                    s.unit);
            }
            sep = ",\n";
        }
        base += static_cast<int64_t>(spans.size());
    }
    std::fputs("\n]}\n", f);
    if (std::fclose(f) != 0)
        fail("cannot write " + path);
}

/** Per-layer counts the spans cannot give. */
struct Counts
{
    uint64_t ubgenPrograms = 0;
    uint64_t ubgenValid = 0;
    uint64_t mutants = 0;
    uint64_t mutantsUB = 0;
    uint64_t printBytes = 0;
    /** Binaries ExecutionPlan::compile keyed, distinct keys among them
     *  (per plan), and the serialized key bytes hashed. */
    uint64_t planBinaries = 0;
    uint64_t distinctBinaries = 0;
    uint64_t keyBytes = 0;
    /** VM steps of every execution whose result the unit loop sees:
     *  the matrix's executed binaries, harden twins and fault runs,
     *  and music's ground-truth classifications. */
    uint64_t steps = 0;
};

/** Copy of fuzzer.cc's per-unit RNG split. */
Rng
unitRng(uint64_t campaignSeed, uint64_t index)
{
    Rng splitter(campaignSeed * 0x2545F4914F6CDD1DULL + 99 +
                 (index + 1) * 0x9E3779B97F4A7C15ULL);
    return splitter.fork();
}

bool
sameObservable(const vm::ExecResult &a, const vm::ExecResult &b)
{
    return a.kind == b.kind && a.report == b.report &&
           a.reportLoc == b.reportLoc && a.trap == b.trap &&
           a.exitCode == b.exitCode && a.checksum == b.checksum;
}

/**
 * The unit loop of fuzzer.cc for ubfuzz, harden and music, replayed
 * with spans. It computes the work counters and the logical counters
 * the guard compares; everything else of the oracle's bookkeeping
 * (findings, attribution) is left to the guarded real run. One corpus
 * memo spans all units, as in a sequential campaign.
 */
class Replica
{
  public:
    Replica(const fuzzer::CampaignConfig &cfg, Tracer &tracer,
            Counts &counts)
        : cfg_(cfg), t_(tracer), counts_(counts), memo_(cfg.corpusMemoCap)
    {
    }

    /** Replay unit @p index; its spans carry @p traceId. */
    fuzzer::CampaignStats
    runUnit(int index, int traceId)
    {
        stats_ = {};
        translated_.clear();
        t_.setUnit(traceId);
        Scope unit(t_, "fuzzer.unit");
        codeCache_ = std::make_unique<vm::CodeCache>(cfg_.codeCacheCap);
        {
            Scope s(t_, "vm.machine_build");
            classify_ = std::make_unique<vm::Machine>(codeCache_.get());
        }
        stats_.seeds++;
        Rng rng = unitRng(cfg_.seed, static_cast<uint64_t>(index));
        gen::GeneratorConfig gc;
        gc.seed = cfg_.seed * 1000003ULL + static_cast<uint64_t>(index);
        gc.safeMath = true;
        std::unique_ptr<ast::Program> seed;
        {
            Scope s(t_, "generator");
            seed = gen::generateProgram(gc);
        }
        if (cfg_.source == fuzzer::SourceMode::Music)
            musicUnit(*seed, rng);
        else
            ubfuzzUnit(*seed, rng);
        stats_.exec.translationCapRejects += codeCache_->capRejects();
        stats_.exec.quickenedTranslations +=
            codeCache_->quickenedTranslations();
        stats_.exec.fusedRecords += codeCache_->fusedRecords();
        {
            Scope s(t_, "fuzzer.unit_free");
            classify_.reset();
            codeCache_.reset();
            seed.reset();
        }
        return std::move(stats_);
    }

  private:
    void
    ubfuzzUnit(const ast::Program &seed, Rng &rng)
    {
        std::unique_ptr<ubgen::UBGenerator> ubg;
        {
            Scope s(t_, "ubgen.profile");
            ubg = std::make_unique<ubgen::UBGenerator>(seed);
        }
        if (!ubg->profiled()) {
            stats_.unprofiledSeeds++;
            return;
        }
        std::vector<ubgen::UBProgram> programs;
        {
            Scope s(t_, "ubgen.generate");
            programs = ubg->generateAll(rng, cfg_.capPerKind);
        }
        counts_.ubgenPrograms += programs.size();
        std::unique_ptr<compiler::SeedLoweringCache> seedCache;
        {
            Scope s(t_, "compiler.lower");
            seedCache = std::make_unique<compiler::SeedLoweringCache>(
                seed, &stats_.compile);
        }
        for (auto &ub : programs) {
            ast::PrintedProgram printed;
            {
                Scope s(t_, "ast.print");
                printed = ast::printProgram(*ub.program);
            }
            counts_.printBytes += printed.text.size();
            ir::Module mod;
            {
                Scope s(t_, "compiler.lower");
                mod = seedCache->lowerDerived(*ub.program, printed,
                                              ub.perturbedFnId,
                                              &stats_.compile);
            }
            bool valid = false;
            {
                Scope s(t_, "ubgen.validate");
                valid = ubgen::validateUBModule(ub, mod, printed,
                                                *classify_);
            }
            if (!valid) {
                stats_.nonTriggering++;
                continue;
            }
            counts_.ubgenValid++;
            const SourceLoc ubLoc = printed.map.loc(ub.siteId);
            testItem(std::move(ub.program), ub.kind, ubLoc,
                     std::move(printed), std::move(mod));
        }
        if (cfg_.source == fuzzer::SourceMode::Harden) {
            Scope s(t_, "harden.fault");
            faultOracle(*seedCache, rng);
        }
        Scope s(t_, "fuzzer.unit_free");
        programs.clear();
        seedCache.reset();
        ubg.reset();
    }

    void
    musicUnit(const ast::Program &seed, Rng &rng)
    {
        std::unique_ptr<compiler::SeedLoweringCache> seedCache;
        {
            Scope s(t_, "compiler.lower");
            seedCache = std::make_unique<compiler::SeedLoweringCache>(
                seed, &stats_.compile);
        }
        for (int m = 0; m < cfg_.mutantsPerSeed; m++) {
            uint32_t fnId = 0;
            std::unique_ptr<ast::Program> mutant;
            {
                Scope s(t_, "mutation");
                mutant = mutation::musicMutate(seed, rng, &fnId);
            }
            if (!mutant)
                continue;
            counts_.mutants++;
            ast::PrintedProgram printed;
            {
                Scope s(t_, "ast.print");
                printed = ast::printProgram(*mutant);
            }
            counts_.printBytes += printed.text.size();
            ir::Module mod;
            {
                Scope s(t_, "compiler.lower");
                mod = seedCache->lowerDerived(*mutant, printed, fnId,
                                              &stats_.compile);
            }
            vm::ExecResult r;
            {
                Scope s(t_, "vm.classify");
                vm::ExecOptions opts;
                opts.groundTruth = true;
                opts.stepLimit = cfg_.stepLimit;
                r = classify_->run(mod, opts);
            }
            counts_.steps += r.steps;
            if (r.kind != vm::ExecResult::Kind::Report) {
                stats_.noUB++;
                continue;
            }
            counts_.mutantsUB++;
            testItem(std::move(mutant), fuzzer::kindOfReport(r.report),
                     r.reportLoc, std::move(printed), std::move(mod));
        }
    }

    void
    testItem(std::unique_ptr<ast::Program> program, ubgen::UBKind kind,
             SourceLoc ubLoc, ast::PrintedProgram printed, ir::Module mod)
    {
        compiler::CompilationCache cache(*program, printed);
        fuzzer::CorpusKey key;
        key.textHash = cache.baseTextHash();
        key.textLen = printed.text.size();
        key.kind = kind;
        key.ubLoc = ubLoc;
        if (cfg_.corpusDedup) {
            if (auto delta = memo_.find(key)) {
                stats_.exec.corpusSkips++;
                fuzzer::detail::mergeCampaignStats(
                    stats_, fuzzer::CampaignStats(*delta));
                return;
            }
        }
        ir::Module probeBase;
        {
            Scope s(t_, "bench.probe");
            probeBase = ir::cloneModule(mod);
        }
        cache.adoptBase(std::move(mod));
        std::unique_ptr<vm::Machine> machine;
        {
            Scope s(t_, "vm.machine_build");
            machine = std::make_unique<vm::Machine>(codeCache_.get());
        }
        fuzzer::CampaignStats delta;
        matrix(kind, cache, probeBase, *machine, delta);
        stats_.exec.merge(machine->stats());
        {
            Scope s(t_, "vm.machine_free");
            machine.reset();
        }
        if (cfg_.corpusDedup &&
            memo_.insert(key, std::make_shared<const fuzzer::CampaignStats>(
                                  delta)) ==
                fuzzer::CorpusMemo::Insert::CapFull)
            stats_.exec.corpusCapRejects++;
        fuzzer::detail::mergeCampaignStats(stats_, std::move(delta));
    }

    void
    matrix(ubgen::UBKind kind, compiler::CompilationCache &cache,
           const ir::Module &probeBase, vm::Machine &machine,
           fuzzer::CampaignStats &delta)
    {
        delta.ubPrograms++;
        delta.perKind[static_cast<size_t>(kind)]++;
        std::map<std::pair<Vendor, OptLevel>, ir::Module> early;
        for (SanitizerKind sani : ubgen::sanitizersFor(kind)) {
            const std::vector<compiler::CompilerConfig> configs =
                oracle::testingMatrix(sani);
            std::optional<oracle::ExecutionPlan> plan;
            {
                Scope s(t_, "oracle.compile");
                plan.emplace(oracle::ExecutionPlan::compile(cache, configs));
            }
            oracle::DifferentialResult diff;
            {
                Scope s(t_, "oracle.run");
                diff = plan->run(machine, cfg_.stepLimit);
            }
            delta.execTimeouts += diff.timeouts;
            delta.timeoutExcluded += diff.timeoutExcluded;

            if (cfg_.source == fuzzer::SourceMode::Harden) {
                for (const auto &oc : diff.outcomes) {
                    if (oc.result.kind == vm::ExecResult::Kind::Timeout)
                        continue;
                    compiler::CompilerConfig hc = oc.config;
                    hc.harden = cfg_.hardenPasses;
                    compiler::Binary hardened;
                    {
                        Scope s(t_, "harden.twin_compile");
                        hardened = cache.compile(hc);
                    }
                    vm::ExecResult hr;
                    {
                        Scope s(t_, "harden.twin_run");
                        vm::ExecOptions opts;
                        opts.stepLimit = cfg_.stepLimit;
                        hr = machine.run(hardened.module, opts);
                    }
                    counts_.steps += hr.steps;
                    if (hr.kind == vm::ExecResult::Kind::Timeout)
                        continue;
                    delta.harden.driftComparisons++;
                    if (!sameObservable(oc.result, hr))
                        delta.harden.driftReports++;
                }
            }

            std::vector<bool> executed;
            {
                Scope s(t_, "bench.probe");
                executed = probeRow(probeBase, early, configs);
            }
            for (size_t i = 0; i < diff.outcomes.size(); i++)
                if (executed[i])
                    counts_.steps += diff.outcomes[i].result.steps;

            for (const auto &v : diff.verdicts) {
                delta.verdictPairs++;
                if (v.isBug)
                    delta.selectedPairs++;
                else
                    delta.droppedPairs++;
            }
            {
                // Freeing the row's binaries.
                Scope s(t_, "oracle.free");
                diff = {};
            }
        }
        delta.compile.merge(cache.stats());
    }

    /**
     * Re-run, on the same base module, the pure stages
     * ExecutionPlan::compile performs for @p configs — early opt (once
     * per canonical point, as CompilationCache does), clone +
     * specialize, binary keying — each under its own probe span, and
     * translate each binary the unit has not translated yet. Returns
     * which outcomes the plan executes (the first of each key).
     */
    std::vector<bool>
    probeRow(const ir::Module &base,
             std::map<std::pair<Vendor, OptLevel>, ir::Module> &early,
             const std::vector<compiler::CompilerConfig> &configs)
    {
        std::vector<bool> executed;
        std::set<std::pair<uint64_t, uint64_t>> inPlan;
        for (const compiler::CompilerConfig &c : configs) {
            auto point = opt::canonicalEarlyOptPoint(c.vendor, c.level);
            auto it = early.find(point);
            if (it == early.end()) {
                Scope s(t_, "probe.early_opt");
                it = early
                         .emplace(point, compiler::earlyOptimize(
                                             ir::cloneModule(base),
                                             point.first, point.second))
                         .first;
            }
            compiler::Binary bin;
            {
                Scope s(t_, "probe.specialize");
                bin = compiler::specialize(ir::cloneModule(it->second), c);
            }
            ir::BinaryKey key;
            {
                Scope s(t_, "probe.key");
                key = ir::binaryKey(bin.module);
            }
            counts_.planBinaries++;
            counts_.keyBytes += key.len;
            const bool first = inPlan.insert({key.hash, key.len}).second;
            executed.push_back(first);
            if (first)
                counts_.distinctBinaries++;
            if (translated_.insert({key.hash, key.len}).second) {
                Scope s(t_, "probe.translate");
                vm::bc::Program prog = vm::bc::translate(bin.module);
                (void)prog;
            }
        }
        return executed;
    }

    void
    faultOracle(compiler::SeedLoweringCache &seedCache, Rng &rng)
    {
        compiler::CompilerConfig hc;
        hc.vendor = Vendor::GCC;
        hc.level = OptLevel::O2;
        hc.sanitizer = SanitizerKind::None;
        hc.harden = cfg_.hardenPasses;
        compiler::Binary bin = compiler::specialize(
            compiler::earlyOptimize(ir::cloneModule(seedCache.baseModule()),
                                    hc.vendor, hc.level, &stats_.compile),
            hc, &stats_.compile);
        stats_.harden.programs++;
        vm::Machine machine(codeCache_.get());
        vm::ExecOptions opts;
        opts.stepLimit = cfg_.stepLimit;
        vm::ExecResult base = machine.run(bin.module, opts);
        counts_.steps += base.steps;
        if (base.kind != vm::ExecResult::Kind::Timeout && base.steps > 1) {
            for (int k = 0; k < cfg_.faultsPerProgram; k++) {
                vm::FaultPlan plan;
                plan.step = 1 + rng.below(base.steps - 1);
                plan.target = rng.next();
                plan.bitIndex = static_cast<uint8_t>(rng.below(64));
                vm::ExecOptions fopts;
                fopts.stepLimit = cfg_.stepLimit;
                fopts.fault = &plan;
                vm::ExecResult r = machine.run(bin.module, fopts);
                counts_.steps += r.steps;
                stats_.harden.faultsInjected++;
                if (r.kind == vm::ExecResult::Kind::Report &&
                    r.report == vm::ReportKind::HardeningFault)
                    stats_.harden.faultsDetected++;
                else if (sameObservable(r, base))
                    stats_.harden.faultsMasked++;
                else
                    stats_.harden.faultsSdc++;
            }
        }
        stats_.exec.merge(machine.stats());
    }

    const fuzzer::CampaignConfig &cfg_;
    Tracer &t_;
    Counts &counts_;
    fuzzer::CorpusMemo memo_;
    fuzzer::CampaignStats stats_;
    std::unique_ptr<vm::CodeCache> codeCache_;
    std::unique_ptr<vm::Machine> classify_;
    /** Keys the translate probe already flattened this unit. */
    std::set<std::pair<uint64_t, uint64_t>> translated_;
};

/** The first counter on which the replica and the real unit differ,
 *  or "" when every counter the replica computes agrees. */
std::string
guardMismatch(const fuzzer::CampaignStats &rep,
              const fuzzer::CampaignStats &ref)
{
    auto cmp = [](const char *what, size_t a, size_t b) {
        return a == b ? std::string()
                      : std::string(what) + " " + std::to_string(a) +
                            " != " + std::to_string(b);
    };
    if (!(rep.compile == ref.compile))
        return "CompileStats differ";
    if (!(rep.exec == ref.exec))
        return "ExecStats differ";
    if (!(rep.harden == ref.harden))
        return "HardenStats differ";
    for (size_t k = 0; k < ubgen::kNumUBKinds; k++)
        if (rep.perKind[k] != ref.perKind[k])
            return "per-kind UB programs differ";
    for (const std::string &why :
         {cmp("ub programs", rep.ubPrograms, ref.ubPrograms),
          cmp("non-triggering", rep.nonTriggering, ref.nonTriggering),
          cmp("no-UB", rep.noUB, ref.noUB),
          cmp("unprofiled", rep.unprofiledSeeds, ref.unprofiledSeeds),
          cmp("verdict pairs", rep.verdictPairs, ref.verdictPairs),
          cmp("selected pairs", rep.selectedPairs, ref.selectedPairs),
          cmp("dropped pairs", rep.droppedPairs, ref.droppedPairs),
          cmp("exec timeouts", rep.execTimeouts, ref.execTimeouts)})
        if (!why.empty())
            return why;
    return {};
}

std::string
msList(const std::vector<double> &ms)
{
    std::string out = "[";
    char buf[32];
    for (size_t i = 0; i < ms.size(); i++) {
        std::snprintf(buf, sizeof buf, "%s%.6f", i ? "," : "", ms[i]);
        out += buf;
    }
    return out + "]";
}

int
replicaTrace(const Args &a)
{
    std::vector<Tracer> tracers(1);
    Counts counts;
    fuzzer::CampaignStats total;
    std::vector<double> guardMs;
    std::string mismatch;
    const int64_t origin = nowNs();
    int traceId = 0;
    for (uint64_t seed : a.seeds) {
        fuzzer::CampaignConfig cfg = a.cfg;
        cfg.seed = seed;
        cfg.jobs = 1;
        cfg.isolate = false;
        // One memo per campaign on each side, as in a real campaign.
        Replica replica(cfg, tracers[0], counts);
        fuzzer::CorpusMemo guardMemo(cfg.corpusMemoCap);
        for (int u = 0; u < cfg.numSeeds; u++, traceId++) {
            fuzzer::CampaignStats rep, ref;
            auto guard = [&] {
                const int64_t t0 = nowNs();
                ref = fuzzer::detail::runCampaignUnit(cfg, u, &guardMemo);
                guardMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
            };
            // Alternate which side runs first, so neither always runs
            // on caches the other warmed.
            if (traceId % 2) {
                guard();
                rep = replica.runUnit(u, traceId);
            } else {
                rep = replica.runUnit(u, traceId);
                guard();
            }
            std::string why = guardMismatch(rep, ref);
            if (!why.empty() && mismatch.empty())
                mismatch = "seed " + std::to_string(seed) + " unit " +
                           std::to_string(u) + ": " + why;
            fuzzer::detail::mergeCampaignStats(total, std::move(rep));
        }
    }
    writeTrace(a.traceOut, tracers, origin);

    std::printf(
        "%s\n",
        Json()
            .str("guard_mismatch", mismatch)
            .raw("guard_unit_ms", msList(guardMs))
            .raw("counts",
                 Json()
                     .num("ubgen_programs", counts.ubgenPrograms)
                     .num("ubgen_valid", counts.ubgenValid)
                     .num("mutants", counts.mutants)
                     .num("mutants_ub", counts.mutantsUB)
                     .num("print_bytes", counts.printBytes)
                     .num("plan_binaries", counts.planBinaries)
                     .num("distinct_binaries", counts.distinctBinaries)
                     .num("key_bytes", counts.keyBytes)
                     .num("steps", counts.steps)
                     .num("verdict_pairs",
                          static_cast<uint64_t>(total.verdictPairs))
                     .num("selected_pairs",
                          static_cast<uint64_t>(total.selectedPairs))
                     .num("ub_programs",
                          static_cast<uint64_t>(total.ubPrograms))
                     .num("exec_timeouts",
                          static_cast<uint64_t>(total.execTimeouts))
                     .num("faults_injected",
                          static_cast<uint64_t>(total.harden.faultsInjected))
                     .num("faults_detected",
                          static_cast<uint64_t>(total.harden.faultsDetected))
                     .num("faults_sdc",
                          static_cast<uint64_t>(total.harden.faultsSdc))
                     .done())
            .raw("work", workJson(total))
            .done()
            .c_str());
    return 0;
}

/** Run units [begin, end) on @p jobs threads as a closed loop: each
 *  worker claims its next unit only after its previous one finished. */
template <class Body>
double
closedLoop(int jobs, int begin, int end, Body body)
{
    const int64_t t0 = nowNs();
    std::atomic<int> next{begin};
    std::vector<std::thread> pool;
    for (int w = 0; w < jobs; w++) {
        pool.emplace_back([&, w] {
            for (int u; (u = next.fetch_add(1)) < end;)
                body(w, u);
        });
    }
    for (std::thread &t : pool)
        t.join();
    return static_cast<double>(nowNs() - t0) / 1e9;
}

std::unique_ptr<campaign::CampaignStore>
openStore(const std::string &dir, const campaign::Manifest &manifest,
          bool resume)
{
    std::string error;
    auto store = campaign::CampaignStore::open(dir, manifest, resume, &error);
    if (!store)
        fail("store " + dir + ": " + error);
    return store;
}

/** What the traced service campaigns add up to. */
struct ServiceTotals
{
    double poolWall = 0;
    double tracedWall = 0;
    double serviceWall = 0;
    std::vector<double> inprocMs;
    uint64_t frameBytes = 0;
    uint64_t journalBytes = 0;
    std::string mismatch;
    /** Every campaign's folded stats, merged (for the work counters). */
    fuzzer::CampaignStats stats;
};

/**
 * One campaign of the service workload, traced; its spans carry
 * idBase + unit. Pass 1 is the guard and the untraced
 * reference: a real runCampaignService pause/resume, its folds
 * timestamped through onUnitFolded. Pass 2 drives the supervised
 * service loop from here — superviseUnit per unit on `jobs`
 * closed-loop workers, the journal record the orchestrator would
 * build, append, and an in-order fold — pausing at half the units and
 * resuming through CampaignStore::open exactly like `--max-units` +
 * `--resume`; its result must equal pass 1's. Pass 3 runs the same
 * units in-process through detail::runCampaignUnitRecorded on the same
 * pool shape, the baseline of supervisor.overhead_s.
 */
void
serviceCampaign(const fuzzer::CampaignConfig &cfg, const std::string &dir,
                const std::string &refDir, std::vector<Tracer> &tracers,
                int idBase, ServiceTotals &sum)
{
    const int units = cfg.numSeeds;
    const int half = units / 2;
    const int jobs = cfg.jobs;
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(refDir);
    const campaign::Manifest manifest =
        campaign::manifestFor(cfg, campaign::ShardSpec{});

    // Pass 1: the real service, paused and resumed, folds timestamped.
    const int64_t pass1Start = nowNs();
    fuzzer::ServiceOptions opts;
    opts.onUnitFolded = [&](int unit, const fuzzer::CampaignStats &,
                            bool replayed) {
        tracers[0].mark(replayed ? "service.replayed_fold" : "service.fold",
                        idBase + unit);
    };
    auto refStore = openStore(refDir, manifest, false);
    opts.store = refStore.get();
    opts.maxFreshUnits = half;
    fuzzer::runCampaignService(cfg, opts);
    refStore.reset();
    refStore = openStore(refDir, manifest, true);
    opts.store = refStore.get();
    opts.maxFreshUnits = -1;
    fuzzer::ServiceResult real = fuzzer::runCampaignService(cfg, opts);
    refStore.reset();
    sum.serviceWall += static_cast<double>(nowNs() - pass1Start) / 1e9;

    // Pass 2: the supervised loop, traced.
    const int64_t pass2Start = nowNs();
    std::unique_ptr<campaign::CampaignStore> store;
    {
        Scope s(tracers[0], "campaign.open");
        store = openStore(dir, manifest, false);
    }
    auto memo = std::make_unique<fuzzer::CorpusMemo>(cfg.corpusMemoCap);
    std::mutex foldMu;
    std::map<int, fuzzer::CampaignStats> pending;
    int frontier = 0;
    fuzzer::CampaignStats total;
    std::vector<std::optional<fuzzer::detail::UnitOutput>> outputs(
        static_cast<size_t>(units));
    auto supervised = [&](int w, int unit) {
        Tracer &t = tracers[static_cast<size_t>(w) + 1];
        t.setUnit(idBase + unit);
        campaign::UnitRecord rec;
        rec.unit = unit;
        {
            Scope root(t, "fuzzer.unit");
            fuzzer::SuperviseOutcome sup;
            {
                Scope s(t, "supervisor.unit");
                sup = fuzzer::superviseUnit(cfg, unit, memo.get());
            }
            if (sup.kind == fuzzer::SuperviseOutcome::Kind::Quarantined) {
                rec.quarantined = true;
                rec.stats.quarantined = 1;
            } else {
                for (auto &[key, delta] : sup.out.memoAdds)
                    memo->insert(key, delta);
                rec.stats = sup.out.stats;
                for (auto &[key, delta] : sup.out.memoAdds)
                    rec.memoAdds.emplace_back(key, *delta);
                outputs[static_cast<size_t>(unit)] = std::move(sup.out);
            }
            rec.stats.workerCrashes += sup.workerCrashes;
            rec.stats.workerTimeouts += sup.workerTimeouts;
            rec.stats.retried += sup.retried;
            {
                Scope s(t, "campaign.append");
                store->append(rec);
            }
        }
        std::lock_guard<std::mutex> lock(foldMu);
        pending.emplace(unit, std::move(rec.stats));
        while (!pending.empty() && pending.begin()->first == frontier) {
            fuzzer::detail::mergeCampaignStats(
                total, std::move(pending.begin()->second));
            pending.erase(pending.begin());
            t.mark("orchestrator.fold", idBase + frontier);
            frontier++;
        }
    };
    sum.poolWall += closedLoop(jobs, 0, half, supervised);
    store.reset();
    {
        // Resume: journal recovery, the replay fold, and the corpus
        // memo refill — what runCampaignService does before its first
        // fresh unit.
        Scope s(tracers[0], "campaign.replay");
        store = openStore(dir, manifest, true);
        std::map<int, campaign::UnitRecord> replayed = store->takeReplayed();
        memo = std::make_unique<fuzzer::CorpusMemo>(cfg.corpusMemoCap);
        total = {};
        for (auto &[unit, rec] : replayed) {
            for (auto &[key, delta] : rec.memoAdds)
                memo->insert(key, std::make_shared<const fuzzer::CampaignStats>(
                                      std::move(delta)));
            fuzzer::detail::mergeCampaignStats(total, std::move(rec.stats));
        }
        if (static_cast<int>(replayed.size()) != half)
            fail("resume replayed " + std::to_string(replayed.size()) +
                 " units, want " + std::to_string(half));
    }
    sum.poolWall += closedLoop(jobs, half, units, supervised);
    store.reset();
    sum.tracedWall += static_cast<double>(nowNs() - pass2Start) / 1e9;
    sum.journalBytes += std::filesystem::file_size(
        std::filesystem::path(dir) /
        campaign::CampaignStore::journalFileName(campaign::ShardSpec{}));

    // The frame codec on every worker result, outside the units.
    {
        Scope probe(tracers[0], "bench.probe");
        for (int u = 0; u < units; u++) {
            const auto &out = outputs[static_cast<size_t>(u)];
            if (!out)
                continue;
            std::string frame;
            {
                Scope s(tracers[0], "probe.encode");
                frame = fuzzer::encodeUnitFrame(u, *out);
            }
            sum.frameBytes += frame.size();
            fuzzer::detail::UnitOutput decoded;
            bool ok = false;
            {
                Scope s(tracers[0], "probe.decode");
                ok = fuzzer::decodeUnitFrame(frame, u, decoded);
            }
            if (!ok)
                fail("frame of unit " + std::to_string(u) +
                     " does not decode");
        }
    }

    // Pass 3: the same units in-process, same pool shape.
    fuzzer::CampaignConfig plain = cfg;
    plain.isolate = false;
    fuzzer::CorpusMemo inprocMemo(cfg.corpusMemoCap);
    std::vector<double> inprocMs(static_cast<size_t>(units));
    std::string &mismatch = sum.mismatch;
    std::mutex mismatchMu;
    closedLoop(jobs, 0, units, [&](int, int unit) {
        const int64_t t0 = nowNs();
        fuzzer::detail::UnitOutput out =
            fuzzer::detail::runCampaignUnitRecorded(plain, unit, &inprocMemo);
        inprocMs[static_cast<size_t>(unit)] =
            static_cast<double>(nowNs() - t0) / 1e6;
        const auto &sup = outputs[static_cast<size_t>(unit)];
        if (!sup || logicalJson(sup->stats) != logicalJson(out.stats)) {
            std::lock_guard<std::mutex> lock(mismatchMu);
            if (mismatch.empty())
                mismatch = "seed " + std::to_string(cfg.seed) + " unit " +
                           std::to_string(unit) +
                           ": supervised result differs from in-process";
        }
    });

    sum.inprocMs.insert(sum.inprocMs.end(), inprocMs.begin(), inprocMs.end());
    if (mismatch.empty() && (!real.complete || frontier != units ||
                             logicalJson(real.stats) != logicalJson(total)))
        mismatch = "seed " + std::to_string(cfg.seed) +
                   ": traced service result differs from runCampaignService";
    fuzzer::detail::mergeCampaignStats(sum.stats, std::move(total));
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(refDir);
}

int
serviceTrace(const Args &a)
{
    std::vector<Tracer> tracers(static_cast<size_t>(a.cfg.jobs) + 1);
    ServiceTotals sum;
    const int64_t origin = nowNs();
    for (size_t k = 0; k < a.seeds.size(); k++) {
        fuzzer::CampaignConfig cfg = a.cfg;
        cfg.seed = a.seeds[k];
        serviceCampaign(cfg, a.traceOut + ".store", a.traceOut + ".ref-store",
                        tracers, static_cast<int>(k) * cfg.numSeeds, sum);
    }

    writeTrace(a.traceOut, tracers, origin);

    std::printf(
        "%s\n",
        Json()
            .str("guard_mismatch", sum.mismatch)
            .num("pool_wall_s", sum.poolWall)
            .num("traced_wall_s", sum.tracedWall)
            .num("service_wall_s", sum.serviceWall)
            .raw("inprocess_unit_ms", msList(sum.inprocMs))
            .num("frame_bytes", sum.frameBytes)
            .num("journal_bytes", sum.journalBytes)
            .num("failures", failures(sum.stats))
            .raw("counts",
                 Json()
                     .num("ub_programs",
                          static_cast<uint64_t>(sum.stats.ubPrograms))
                     .num("exec_timeouts",
                          static_cast<uint64_t>(sum.stats.execTimeouts))
                     .done())
            .raw("work", workJson(sum.stats))
            .done()
            .c_str());
    return 0;
}

} // namespace

int
runTrace(const Args &args)
{
    if (args.cfg.source != fuzzer::SourceMode::UBFuzz &&
        args.cfg.source != fuzzer::SourceMode::Harden &&
        args.cfg.source != fuzzer::SourceMode::Music)
        fail("the traced run covers ubfuzz, harden and music");
    if (args.cfg.isolate)
        return serviceTrace(args);
    return replicaTrace(args);
}

} // namespace campaignbench
