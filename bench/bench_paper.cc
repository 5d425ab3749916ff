/**
 * @file
 * The paper's evaluation artifacts in one run: Tables 1-6, then
 * Figures 7, 9, 10 and 11, then RQ3's oracle precision and recall.
 *
 *   ./build/bench/bench_paper
 *
 * One standard campaign serves every artifact that reads it: Table 3
 * at 120 seeds, Table 6, Figures 7, 10, 11 and RQ3 at 60.
 * UBFUZZ_BENCH_SEEDS scales every artifact at once. At the default
 * sizes the output is pinned byte for byte by bench/paper.golden.
 */

#include <algorithm>
#include <map>
#include <string>

#include "bench_util.h"

#include "ast/printer.h"
#include "compiler/compiler.h"
#include "fuzzer/orchestrator.h"
#include "generator/generator.h"
#include "ir/lowering.h"
#include "mutation/music.h"
#include "support/coverage.h"
#include "support/rng.h"
#include "support/toolchain.h"
#include "ubgen/ubgen.h"
#include "vm/vm.h"

using namespace ubfuzz;
using ubgen::UBKind;

namespace {

/**
 * Table 1 reproduction: for every UB kind, generate a UB program via
 * shadow statement insertion from a fixed seed and show the inserted
 * shadow statement plus ground-truth validation — the executable form
 * of the paper's "UB conditions and shadow statements" table.
 */
void
table1ShadowGallery()
{
    bench::header("Table 1: shadow statement instantiations "
                  "(one generated UB program per kind)");
    Rng rng(7);
    size_t shown[ubgen::kNumUBKinds] = {};
    for (uint64_t seed = 1; seed <= 40; seed++) {
        gen::GeneratorConfig gc;
        gc.seed = seed;
        auto prog = gen::generateProgram(gc);
        ubgen::UBGenerator gen(*prog);
        for (ubgen::UBKind kind : ubgen::kAllUBKinds) {
            if (shown[static_cast<size_t>(kind)])
                continue;
            auto programs = gen.generate(kind, rng, 4);
            for (auto &ub : programs) {
                if (!ubgen::validateUBProgram(ub))
                    continue;
                shown[static_cast<size_t>(kind)] = 1;
                std::string sanis;
                for (SanitizerKind s : ubgen::sanitizersFor(kind)) {
                    sanis += sanitizerName(s);
                    sanis += " ";
                }
                std::printf("%-22s  shadow: %-44s  sanitizers: %s\n",
                            ubgen::ubKindName(kind),
                            ub.shadowDesc.c_str(), sanis.c_str());
                break;
            }
        }
    }
    bench::rule();
    size_t covered = 0;
    for (size_t k = 0; k < ubgen::kNumUBKinds; k++)
        covered += shown[k];
    std::printf("kinds covered: %zu / %zu (paper: all 9 kinds "
                "supported)\n",
                covered, ubgen::kNumUBKinds);
}

/**
 * Table 2 reproduction: the UB kind <-> sanitizer support matrix, plus
 * an executable confirmation that a bug-free configuration of each
 * supporting sanitizer actually detects each kind at -O0.
 */
void
table2SanitizerMatrix()
{
    bench::header("Table 2: UB kinds supported by each sanitizer");
    std::printf("%-24s %-8s %-8s %-8s  detection confirmed\n", "UB",
                "ASan", "UBSan", "MSan");
    bench::rule();

    Rng rng(3);
    for (ubgen::UBKind kind : ubgen::kAllUBKinds) {
        auto sanis = ubgen::sanitizersFor(kind);
        auto has = [&](SanitizerKind s) {
            for (SanitizerKind x : sanis)
                if (x == s)
                    return true;
            return false;
        };
        // Confirm with a generated UB program of this kind.
        std::string confirmed = "-";
        for (uint64_t seed = 1; seed <= 30 && confirmed == "-";
             seed++) {
            gen::GeneratorConfig gc;
            gc.seed = seed * 13 + 1;
            auto prog = gen::generateProgram(gc);
            ubgen::UBGenerator gen(*prog);
            for (auto &ub : gen.generate(kind, rng, 3)) {
                if (!ubgen::validateUBProgram(ub))
                    continue;
                // Compile with the first supporting sanitizer on a
                // bug-free (version 1) compiler at -O0.
                compiler::CompilerConfig cc;
                cc.vendor = sanis[0] == SanitizerKind::MSan
                                ? Vendor::LLVM
                                : Vendor::GCC;
                cc.version = 1;
                cc.level = OptLevel::O0;
                cc.sanitizer = sanis[0];
                auto bin = compiler::compileProgram(*ub.program, cc);
                auto r = vm::execute(bin.module);
                if (r.crashed() &&
                    ubgen::reportMatchesKind(kind, r.report)) {
                    confirmed = vm::reportKindName(r.report);
                    break;
                }
            }
        }
        std::printf("%-24s %-8s %-8s %-8s  %s\n",
                    ubgen::ubKindName(kind),
                    has(SanitizerKind::ASan) ? "yes" : "-",
                    has(SanitizerKind::UBSan) ? "yes" : "-",
                    has(SanitizerKind::MSan) ? "yes" : "-",
                    confirmed.c_str());
    }
}

/**
 * Table 3 reproduction (RQ1, bug finding): run the full UBfuzz
 * campaign against the simulated compilers and report found sanitizer
 * bugs per compiler/sanitizer, alongside the paper-shaped
 * Reported/Confirmed/Fixed/Invalid rows derived from the injected-bug
 * catalog metadata. @p stats is the standard campaign at @p seeds.
 */
void
table3BugFinding(int seeds, const fuzzer::CampaignStats &stats)
{
    std::printf("campaign: %d seeds (set UBFUZZ_BENCH_SEEDS to "
                "scale)\n",
                seeds);

    bench::header("Table 3: status of found sanitizer bugs");
    struct Cell
    {
        int reported = 0, confirmed = 0, fixed = 0, invalid = 0;
    };
    // Columns: GCC ASan, GCC UBSan, LLVM ASan, LLVM UBSan, LLVM MSan.
    Cell cells[5];
    auto column = [](const san::BugInfo &b) {
        if (b.vendor == Vendor::GCC)
            return b.sanitizer == SanitizerKind::ASan ? 0 : 1;
        if (b.sanitizer == SanitizerKind::ASan)
            return 2;
        return b.sanitizer == SanitizerKind::UBSan ? 3 : 4;
    };
    auto tally = [&](san::BugId id) {
        const san::BugInfo &b = san::bugInfo(id);
        Cell &c = cells[column(b)];
        c.reported++;
        if (b.confirmed)
            c.confirmed++;
        if (b.fixedAfterReport)
            c.fixed++;
    };
    for (const auto &[id, count] : stats.bugFindingCounts)
        tally(id);
    for (san::BugId id : stats.wrongReportBugs)
        if (!stats.bugFindingCounts.count(id))
            tally(id);
    // The oracle false alarm (Figure 8 / GCC -O3 lifetime hoisting)
    // surfaces as findings with no injected-bug explanation; after
    // deduplication it is one "Invalid" report against GCC ASan.
    if (stats.invalidFindings > 0) {
        cells[0].reported++;
        cells[0].invalid++;
    }

    const char *cols[] = {"GCC/ASan", "GCC/UBSan", "LLVM/ASan",
                          "LLVM/UBSan", "LLVM/MSan"};
    std::printf("%-12s", "Status");
    for (const char *c : cols)
        std::printf(" %10s", c);
    std::printf(" %7s\n", "Total");
    bench::rule();
    auto row = [&](const char *name, auto get) {
        std::printf("%-12s", name);
        int total = 0;
        for (const Cell &c : cells) {
            std::printf(" %10d", get(c));
            total += get(c);
        }
        std::printf(" %7d\n", total);
    };
    row("Reported", [](const Cell &c) { return c.reported; });
    row("Confirmed", [](const Cell &c) { return c.confirmed; });
    row("Fixed", [](const Cell &c) { return c.fixed; });
    row("Invalid", [](const Cell &c) { return c.invalid; });
    bench::rule();
    std::printf("paper (5-month campaign): Reported 9/7/6/8/1 = 31, "
                "Confirmed 8/7/2/2/1 = 20, Fixed 3/3/0/0/0 = 6, "
                "Invalid 1/0/0/0/0 = 1\n");
    std::printf("injected catalog: %zu real defects; campaign found "
                "%zu of them (plus %zu wrong-report, %s invalid)\n",
                san::kNumBugs, stats.bugFindingCounts.size(),
                stats.wrongReportBugs.size(),
                stats.invalidFindings ? "1" : "0");
    std::printf("programs: %zu UB programs tested, %zu discrepant, "
                "%zu selected by the oracle\n",
                stats.ubPrograms, stats.discrepantPrograms,
                stats.oracleSelectedPrograms);
    std::printf("\nfound bugs:\n");
    for (const auto &[id, count] : stats.bugFindingCounts) {
        std::printf("  %-48s %6zu findings\n", san::bugInfo(id).name,
                    count);
    }
    for (san::BugId id : stats.wrongReportBugs)
        std::printf("  %-48s (wrong-report)\n", san::bugInfo(id).name);
}

struct Row
{
    size_t perKind[ubgen::kNumUBKinds] = {};
    size_t total = 0;
    size_t noUB = 0;
};

void
classify(ast::Program &prog, Row &row)
{
    ast::PrintedProgram printed = ast::printProgram(prog);
    ir::Module mod = ir::lowerProgram(prog, printed.map);
    vm::ExecOptions opts;
    opts.groundTruth = true;
    opts.stepLimit = 1'000'000;
    vm::ExecResult r = vm::execute(mod, opts);
    if (r.kind != vm::ExecResult::Kind::Report) {
        row.noUB++;
        return;
    }
    row.perKind[static_cast<size_t>(fuzzer::kindOfReport(r.report))]++;
    row.total++;
}

/**
 * Table 4 reproduction (RQ2): number of UB programs per generator and
 * per UB kind, with the "No UB" column, plus the Juliet-corpus
 * FN-finding result (§4.3).
 *
 * UBfuzz programs carry their UB kind by construction; MUSIC mutants
 * and Csmith-NoSafe programs are classified by the ground-truth
 * checker — the analog of the paper running all sanitizers over them.
 */
void
table4Generators()
{
    int seeds = bench::seedCount(100);
    std::printf("seed programs per generator: %d (paper: 1000 seeds; "
                "set UBFUZZ_BENCH_SEEDS)\n\n",
                seeds);
    Rng rng(2024);

    Row ubfuzz_row, music_row, nosafe_row;

    for (int i = 0; i < seeds; i++) {
        uint64_t s = 7000 + static_cast<uint64_t>(i);
        // UBfuzz: shadow statement insertion on safe seeds.
        {
            gen::GeneratorConfig gc;
            gc.seed = s;
            auto seed = gen::generateProgram(gc);
            ubgen::UBGenerator gen(*seed);
            for (auto &ub : gen.generateAll(rng)) {
                if (!ubgen::validateUBProgram(ub))
                    continue;
                ubfuzz_row.perKind[static_cast<size_t>(ub.kind)]++;
                ubfuzz_row.total++;
            }
        }
        // MUSIC: ~14 mutants per seed (like the paper's 14k/1000).
        {
            gen::GeneratorConfig gc;
            gc.seed = s;
            auto seed = gen::generateProgram(gc);
            for (int m = 0; m < 14; m++) {
                auto mutant = mutation::musicMutate(*seed, rng);
                if (mutant)
                    classify(*mutant, music_row);
            }
        }
        // Csmith-NoSafe: 14 programs per seed slot for parity.
        for (int m = 0; m < 14; m++) {
            gen::GeneratorConfig gc;
            gc.seed = s * 977 + static_cast<uint64_t>(m);
            gc.safeMath = false;
            auto prog = gen::generateProgram(gc);
            classify(*prog, nosafe_row);
        }
    }

    bench::header("Table 4: UB programs per generator");
    std::printf("%-14s", "Generator");
    for (UBKind k : ubgen::kAllUBKinds)
        std::printf(" %9.9s", ubgen::ubKindName(k));
    std::printf(" %7s %6s\n", "Total", "NoUB");
    bench::rule();
    auto print_row = [&](const char *name, const Row &row,
                         bool no_ub_applicable) {
        std::printf("%-14s", name);
        for (size_t k = 0; k < ubgen::kNumUBKinds; k++)
            std::printf(" %9zu", row.perKind[k]);
        if (no_ub_applicable)
            std::printf(" %7zu %6zu\n", row.total, row.noUB);
        else
            std::printf(" %7zu %6s\n", row.total, "-");
    };
    print_row("UBfuzz", ubfuzz_row, false);
    print_row("MUSIC", music_row, true);
    print_row("Csmith-NoSafe", nosafe_row, true);
    bench::rule();
    std::printf("paper shape: UBfuzz covers all 9 kinds with ~14 UB "
                "programs/seed; MUSIC ~95%% no-UB; NoSafe only the "
                "three arithmetic kinds\n\n");

    // §4.3: testing sanitizers with the Juliet corpus finds no bugs.
    fuzzer::CampaignConfig jc;
    jc.source = fuzzer::SourceMode::Juliet;
    fuzzer::CampaignStats jstats = fuzzer::runCampaign(jc);
    std::printf("Juliet corpus: %zu UB programs, sanitizer FN bugs "
                "found: %zu (paper: none)\n",
                jstats.ubPrograms, jstats.distinctBugsFound());
}

/** Compile a program with every sanitizer both vendors support. */
void
compileAllConfigs(ast::Program &prog)
{
    ast::PrintedProgram printed = ast::printProgram(prog);
    for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
        for (SanitizerKind s : {SanitizerKind::ASan,
                                SanitizerKind::UBSan,
                                SanitizerKind::MSan}) {
            if (!vendorSupports(v, s))
                continue;
            compiler::CompilerConfig c;
            c.vendor = v;
            c.level = OptLevel::O2;
            c.sanitizer = s;
            compiler::compile(prog, printed, c);
        }
    }
}

void
report(const char *name)
{
    CovReport gcc = CoverageRegistry::instance().report("gcc.");
    CovReport llvm = CoverageRegistry::instance().report("llvm.");
    std::printf("%-14s GCC:  LC %5.1f%%  FC %5.1f%%  BC %5.1f%%   "
                "LLVM: LC %5.1f%%  FC %5.1f%%  BC %5.1f%%\n",
                name, gcc.linePct(), gcc.funcPct(), gcc.branchPct(),
                llvm.linePct(), llvm.funcPct(), llvm.branchPct());
}

/**
 * Table 5 reproduction (RQ4): structural coverage of the simulated
 * compilers' sanitizer code while compiling each corpus. Gcov over
 * GCC/LLVM sanitizer files in the paper; here the optimizer and
 * sanitizer passes carry explicit coverage sites (support/coverage.h)
 * sliced per vendor.
 */
void
table5Coverage()
{
    int seeds = bench::seedCount(40);
    std::printf("programs per corpus: derived from %d seeds\n\n",
                seeds);
    bench::header("Table 5: coverage of sanitizer-related compiler "
                  "code per input corpus");
    Rng rng(11);
    auto &registry = CoverageRegistry::instance();

    // Seeds only.
    registry.resetHits();
    for (int i = 0; i < seeds; i++) {
        gen::GeneratorConfig gc;
        gc.seed = 500 + static_cast<uint64_t>(i);
        auto prog = gen::generateProgram(gc);
        compileAllConfigs(*prog);
    }
    report("Seeds");

    // MUSIC mutants.
    registry.resetHits();
    for (int i = 0; i < seeds; i++) {
        gen::GeneratorConfig gc;
        gc.seed = 500 + static_cast<uint64_t>(i);
        auto seed = gen::generateProgram(gc);
        compileAllConfigs(*seed);
        for (int m = 0; m < 6; m++) {
            auto mutant = mutation::musicMutate(*seed, rng);
            if (mutant)
                compileAllConfigs(*mutant);
        }
    }
    report("MUSIC");

    // Csmith-NoSafe.
    registry.resetHits();
    for (int i = 0; i < seeds * 7; i++) {
        gen::GeneratorConfig gc;
        gc.seed = 90000 + static_cast<uint64_t>(i);
        gc.safeMath = false;
        auto prog = gen::generateProgram(gc);
        compileAllConfigs(*prog);
    }
    report("Csmith-NoSafe");

    // UBfuzz programs.
    registry.resetHits();
    for (int i = 0; i < seeds; i++) {
        gen::GeneratorConfig gc;
        gc.seed = 500 + static_cast<uint64_t>(i);
        auto seed = gen::generateProgram(gc);
        compileAllConfigs(*seed);
        ubgen::UBGenerator gen(*seed);
        for (auto &ub : gen.generateAll(rng, 3))
            compileAllConfigs(*ub.program);
    }
    report("UBfuzz");

    bench::rule();
    std::printf("paper shape: all generators a moderate improvement "
                "over seeds; UBfuzz/Csmith-NoSafe the largest\n");
}

/**
 * Table 6 reproduction: root-cause categories of the found bugs per
 * compiler, against the full injected catalog.
 */
void
table6Categories(const fuzzer::CampaignStats &stats)
{
    bench::header("Table 6: bug categories by root cause");

    const san::BugCategory cats[] = {
        san::BugCategory::NoSanitizerCheck,
        san::BugCategory::IncorrectSanitizerOptimization,
        san::BugCategory::WrongRedZoneBuffer,
        san::BugCategory::IncorrectSanitizerCheck,
        san::BugCategory::IncorrectExpressionFolding,
        san::BugCategory::IncorrectOperationHandling,
        san::BugCategory::WrongLineInformation,
    };
    std::printf("%-40s %10s %10s   %s\n", "Category", "GCC", "LLVM",
                "(found / in catalog)");
    bench::rule();
    for (san::BugCategory cat : cats) {
        int found[2] = {0, 0}, total[2] = {0, 0};
        for (const san::BugInfo &b : san::bugCatalog()) {
            if (b.category != cat)
                continue;
            int v = b.vendor == Vendor::GCC ? 0 : 1;
            total[v]++;
            if (stats.bugFindingCounts.count(b.id) ||
                stats.wrongReportBugs.count(b.id))
                found[v]++;
        }
        std::printf("%-40s   %3d / %2d   %3d / %2d\n",
                    san::bugCategoryName(cat), found[0], total[0],
                    found[1], total[1]);
    }
    bench::rule();
    std::printf("paper: GCC 2/5/1/2/4/0/2, LLVM 2/3/1/7/1/1/0 "
                "(catalog matches by construction; the campaign's "
                "'found' column converges on it with scale)\n");
}

/**
 * Figure 7 reproduction: number of found bugs per triggering UB kind,
 * with buffer overflow split by detecting sanitizer (ASan vs UBSan) as
 * in the paper.
 */
void
fig7BugsPerUB(const fuzzer::CampaignStats &stats)
{
    bench::header("Figure 7: bugs per UB kind");

    std::map<std::string, int> buckets;
    for (const auto &[id, kind] : stats.bugFirstKind) {
        if (!stats.bugFindingCounts.count(id))
            continue;
        const san::BugInfo &b = san::bugInfo(id);
        std::string label = ubgen::ubKindName(kind);
        if (kind == ubgen::UBKind::BufferOverflowArray ||
            kind == ubgen::UBKind::BufferOverflowPointer) {
            label = std::string("buf-overflow(") +
                    sanitizerName(b.sanitizer) + ")";
        }
        buckets[label]++;
    }
    for (const auto &[label, n] : buckets) {
        std::printf("%-26s %3d  ", label.c_str(), n);
        for (int i = 0; i < n; i++)
            std::printf("#");
        std::printf("\n");
    }
    bench::rule();
    std::printf("paper shape: bugs found for every UB kind; buffer "
                "overflow (ASan) the largest bucket\n");
}

/**
 * Figure 9 reproduction: sanitizer FN bug reports per year in the GCC
 * and LLVM bug trackers, and the fraction attributable to UBfuzz.
 *
 * The paper's figure comes from manually mining both trackers
 * (2015-2023: 40 GCC reports of which UBfuzz filed 16, 24 LLVM of
 * which UBfuzz filed 14). That study cannot be re-run offline, so the
 * series is reproduced from an embedded dataset: the injected-bug
 * catalog supplies the UBfuzz-found reports (dated by the simulated
 * release that introduced each defect), topped up with synthetic
 * pre-existing tracker reports to the paper's yearly totals.
 */
void
fig9TrackerHistory()
{
    bench::header("Figure 9: sanitizer FN reports per year "
                  "(tracker dataset)");
    // Pre-existing (non-UBfuzz) report counts per year, synthesized to
    // the paper's aggregates: 40-16=24 GCC, 24-14=10 LLVM.
    std::map<int, std::pair<int, int>> others = {
        {2015, {4, 0}}, {2016, {3, 0}}, {2017, {3, 1}},
        {2018, {3, 2}}, {2019, {2, 1}}, {2020, {3, 2}},
        {2021, {2, 2}}, {2022, {2, 1}}, {2023, {2, 1}},
    };
    // UBfuzz-filed reports, dated by each defect's introduction year
    // (the paper files everything in 2022/23; the figure buckets
    // tracker reports by filing year, so fold ours into 2022-2023).
    int gcc_ubfuzz = 0, llvm_ubfuzz = 0;
    for (const san::BugInfo &b : san::bugCatalog())
        (b.vendor == Vendor::GCC ? gcc_ubfuzz : llvm_ubfuzz)++;
    // +1 GCC report for the oracle false alarm (marked invalid).
    gcc_ubfuzz++;

    std::map<int, std::pair<int, int>> ubfuzz = {
        {2022, {gcc_ubfuzz / 2, llvm_ubfuzz / 2}},
        {2023,
         {gcc_ubfuzz - gcc_ubfuzz / 2, llvm_ubfuzz - llvm_ubfuzz / 2}},
    };

    std::printf("%-6s %12s %12s %14s %14s\n", "Year", "GCC(other)",
                "LLVM(other)", "GCC(UBfuzz)", "LLVM(UBfuzz)");
    bench::rule();
    int tg = 0, tl = 0, ug = 0, ul = 0;
    for (int year = 2015; year <= 2023; year++) {
        auto o = others.count(year) ? others[year]
                                    : std::pair<int, int>{0, 0};
        auto u = ubfuzz.count(year) ? ubfuzz[year]
                                    : std::pair<int, int>{0, 0};
        std::printf("%-6d %12d %12d %14d %14d\n", year, o.first,
                    o.second, u.first, u.second);
        tg += o.first + u.first;
        tl += o.second + u.second;
        ug += u.first;
        ul += u.second;
    }
    bench::rule();
    std::printf("totals: GCC %d reports (%d = %.0f%% from UBfuzz), "
                "LLVM %d reports (%d = %.0f%% from UBfuzz)\n",
                tg, ug, 100.0 * ug / tg, tl, ul, 100.0 * ul / tl);
    std::printf("paper: GCC 40 reports, 16 (40%%) from UBfuzz; LLVM "
                "24 reports, 14 (58%%) from UBfuzz\n");
}

/**
 * Figure 10 reproduction: number of found bugs affecting each stable
 * compiler release. Each found bug's trigger conditions are replayed
 * against every simulated stable version (the bug is active from its
 * introduction release onward — none of the found bugs was fixed in
 * any stable release, matching the paper's "long-standing latent
 * bugs" observation).
 */
void
fig10AffectedVersions(const fuzzer::CampaignStats &stats)
{
    bench::header("Figure 10: stable versions affected by found bugs");

    for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
        std::printf("%s stable releases:\n", vendorName(v));
        for (int ver = firstStableVersion(v);
             ver <= lastStableVersion(v); ver++) {
            int affected = 0;
            for (const san::BugInfo &b : san::bugCatalog()) {
                bool found = stats.bugFindingCounts.count(b.id) ||
                             stats.wrongReportBugs.count(b.id);
                if (found && b.vendor == v &&
                    b.introducedVersion <= ver)
                    affected++;
            }
            std::printf("  %s-%-2d  %3d  ", vendorName(v), ver,
                        affected);
            for (int i = 0; i < affected; i++)
                std::printf("#");
            std::printf("\n");
        }
    }
    bench::rule();
    std::printf("paper shape: most bugs affect many stable releases — "
                "they were latent since the sanitizers launched\n");
}

/**
 * Figure 11 reproduction: number of found bugs affecting each
 * optimization level, from the campaign's per-finding records (which
 * optimization level the missing binary was compiled at).
 */
void
fig11OptLevels(const fuzzer::CampaignStats &stats)
{
    bench::header("Figure 11: affected optimization levels");

    std::map<OptLevel, int> counts;
    for (const auto &[id, levels] : stats.bugLevels) {
        if (!stats.bugFindingCounts.count(id))
            continue;
        for (OptLevel l : levels)
            counts[l]++;
    }
    for (OptLevel l : kAllOptLevels) {
        std::printf("%-5s %3d  ", optLevelName(l), counts[l]);
        for (int i = 0; i < counts[l]; i++)
            std::printf("#");
        std::printf("\n");
    }
    bench::rule();
    std::printf("paper shape: bugs affect every level with no single "
                "dominant one — testing only -O0 would miss most\n");

    // Ablation: -O0-only testing (the paper's Challenge 2 argument).
    fuzzer::CampaignConfig cfg;
    cfg.seed = 20240427;
    cfg.numSeeds = std::max(10, bench::seedCount() / 3);
    cfg.capPerKind = 4;
    cfg.onlyO0 = true;
    fuzzer::CampaignStats o0 = fuzzer::runCampaign(cfg);
    std::printf("ablation: -O0-only differential testing finds %zu "
                "distinct bugs (full matrix on the same seeds would "
                "find far more)\n",
                o0.distinctBugsFound());
}

/**
 * RQ3 reproduction (§4.4): precision and recall of the crash-site
 * mapping oracle, measured against the injected-bug ground truth
 * (where the paper relied on manual analysis of 58 selected and 200
 * sampled dropped discrepancies).
 */
void
rq3Oracle(const fuzzer::CampaignStats &stats)
{
    bench::header("RQ3: crash-site mapping precision / recall");

    std::printf("UB programs tested:            %8zu\n",
                stats.ubPrograms);
    std::printf("programs with discrepancy:     %8zu\n",
                stats.discrepantPrograms);
    std::printf("discrepant (crash,miss) pairs: %8zu\n",
                stats.verdictPairs);
    std::printf("selected by the oracle:        %8zu\n",
                stats.selectedPairs);
    std::printf("  ... ground-truth bug-caused: %8zu\n",
                stats.selectedTrueBug);
    std::printf("  ... optimization-caused:     %8zu\n",
                stats.selectedOptimization);
    std::printf("dropped by the oracle:         %8zu\n",
                stats.droppedPairs);
    std::printf("  ... ground-truth bug-caused: %8zu\n",
                stats.droppedTrueBug);
    bench::rule();
    double precision =
        stats.selectedPairs
            ? 100.0 * stats.selectedTrueBug / stats.selectedPairs
            : 0.0;
    double recall =
        (stats.selectedTrueBug + stats.droppedTrueBug)
            ? 100.0 * stats.selectedTrueBug /
                  (stats.selectedTrueBug + stats.droppedTrueBug)
            : 0.0;
    std::printf("precision: %5.1f%%   recall: %5.1f%%\n", precision,
                recall);
    std::printf("paper: perfect precision on 58 selected "
                "discrepancies; 100%% recall on 200 sampled dropped "
                "ones\n");
    std::printf("note: the residual optimization-caused selections "
                "stem from GCC -O3 lifetime hoisting invalidating "
                "use-after-scope — the exact mechanism of the paper's "
                "one invalid report (Figure 8)\n");
}

} // namespace

int
main()
{
    // The standard campaign, run once at the larger of its two sizes.
    // Every unit draws from its own RNG stream, so a unit's delta does
    // not depend on the campaign's size: folding the first `shared`
    // deltas in unit order yields the `shared`-seed campaign exactly
    // (Service.StreamsUnitsInOrder checks this).
    const int shared = bench::seedCount();
    const int table3Seeds = bench::seedCount(120);
    fuzzer::CampaignConfig cfg;
    cfg.seed = 20240427; // ASPLOS'24 conference date
    cfg.numSeeds = std::max(shared, table3Seeds);
    cfg.capPerKind = 4;
    cfg.jobs = 0; // every hardware thread; never changes the result
    fuzzer::CampaignStats prefix;
    fuzzer::ServiceOptions opts;
    opts.onUnitFolded = [&](int unit, const fuzzer::CampaignStats &delta,
                            bool) {
        if (unit < shared) {
            fuzzer::CampaignStats copy = delta;
            fuzzer::detail::mergeCampaignStats(prefix, std::move(copy));
        }
    };
    const fuzzer::CampaignStats whole =
        fuzzer::runCampaignService(cfg, opts).stats;

    table1ShadowGallery();
    table2SanitizerMatrix();
    table3BugFinding(table3Seeds, whole);
    table4Generators();
    table5Coverage();
    table6Categories(prefix);
    fig7BugsPerUB(prefix);
    fig9TrackerHistory();
    fig10AffectedVersions(prefix);
    fig11OptLevels(prefix);
    rq3Oracle(prefix);
    return 0;
}
