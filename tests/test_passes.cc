/**
 * @file
 * Pass-pipeline tests: the Figure 2 pipeline reproduces pinned
 * execution-key goldens over a standard seed mix, plain and hardened,
 * and over the UB programs of that mix with their compile logs, the
 * cached early-opt prefix tree builds those programs' early-opt
 * modules exactly as early opt from scratch does, every pass alone
 * leaves them well-formed, binary keys
 * partition that mix exactly as execution keys do, each hardening
 * family runs once per module, and the hardening passes are silent
 * until a FaultPlan is armed.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "compiler/compiler.h"
#include "frontend/parser.h"
#include "generator/generator.h"
#include "harden/harden.h"
#include "opt/pass.h"
#include "oracle/oracle.h"
#include "sanitizer/sanitizer.h"
#include "support/coverage.h"
#include "support/serialize.h"
#include "ubgen/ubgen.h"
#include "vm/vm.h"

namespace ubfuzz {
namespace {

using compiler::Binary;
using compiler::CompilerConfig;
using vm::ExecResult;

CompilerConfig
cfg(Vendor v, OptLevel l, SanitizerKind s = SanitizerKind::None,
    uint32_t harden = 0)
{
    CompilerConfig c;
    c.vendor = v;
    c.level = l;
    c.sanitizer = s;
    c.harden = harden;
    return c;
}

/** The configuration mix the parity tests sweep: every vendor/level
 *  corner the campaign matrix exercises, plus each sanitizer. */
std::vector<CompilerConfig>
standardConfigs()
{
    std::vector<CompilerConfig> cs;
    for (Vendor v : {Vendor::GCC, Vendor::LLVM})
        for (OptLevel l : kAllOptLevels)
            cs.push_back(cfg(v, l));
    cs.push_back(cfg(Vendor::GCC, OptLevel::O2, SanitizerKind::ASan));
    cs.push_back(cfg(Vendor::GCC, OptLevel::Os, SanitizerKind::UBSan));
    cs.push_back(cfg(Vendor::LLVM, OptLevel::O3, SanitizerKind::ASan));
    cs.push_back(cfg(Vendor::LLVM, OptLevel::O1, SanitizerKind::UBSan));
    cs.push_back(cfg(Vendor::LLVM, OptLevel::O2, SanitizerKind::MSan));
    return cs;
}

/**
 * Call @p fn on every binary of a standard seed mix: the generator's
 * own programs (seeds 1-6), swept over every standardConfigs() entry,
 * each built under every mask in @p masks.
 */
template <typename Fn>
void
forEachStandardBinary(std::initializer_list<uint32_t> masks, Fn &&fn)
{
    for (uint64_t seed = 1; seed <= 6; seed++) {
        gen::GeneratorConfig gc;
        gc.seed = seed;
        auto prog = gen::generateProgram(gc);
        ast::PrintedProgram printed = ast::printProgram(*prog);
        for (CompilerConfig c : standardConfigs()) {
            for (uint32_t mask : masks) {
                c.harden = mask;
                fn(compiler::compile(*prog, printed, c).module);
            }
        }
    }
}

/**
 * The standard seed mix under @p masks, folded into one FNV-1a over
 * the (FNV-1a, length) of every binary's ir::executionKey. The goldens
 * pin the serialization itself, independent of how ir::binaryKey
 * hashes it.
 */
uint64_t
pinnedKeyDigest(std::initializer_list<uint32_t> masks)
{
    support::ByteWriter keys;
    forEachStandardBinary(masks, [&keys](const ir::Module &m) {
        std::string key = ir::executionKey(m);
        keys.u64(support::fnv1a(key));
        keys.u64(key.size());
    });
    return support::fnv1a(keys.data());
}

TEST(Passes, RegistryPipelinesMatchLegacyExecutionKeys)
{
    // Any change to a pass, the pass lists, or the fixpoint order
    // moves this golden, so a refactor of the pipeline must keep it
    // bit for bit. This is the unit-level form of the campaign digest
    // anchor.
    EXPECT_EQ(pinnedKeyDigest({0}), 0x71f2e4c8810cf102ULL);
}

TEST(Passes, HardenedPipelinesMatchPinnedKeys)
{
    // The hardened twin of the golden above. The other compile goldens
    // all build with harden = 0, so this is the test that pins the
    // order in which specialize hardens (dup, then sig) and what each
    // family emits.
    EXPECT_EQ(pinnedKeyDigest({harden::kDuplicateCompare,
                               harden::kCfgSignature,
                               harden::kAllFamilies}),
              0xe42b69d37eacaec9ULL);
}

/**
 * Call @p fn(seed, ub, printed) on every UB program of the standard
 * seed mix, in order: generateAll(rng, 4) over seeds 1-6 with one
 * Rng(20240427). Stops at the first fatal failure.
 */
template <typename Fn>
void
forEachUBProgram(Fn &&fn)
{
    Rng rng(20240427);
    for (uint64_t seed = 1; seed <= 6; seed++) {
        gen::GeneratorConfig gc;
        gc.seed = seed;
        auto prog = gen::generateProgram(gc);
        ubgen::UBGenerator ubg(*prog);
        ASSERT_TRUE(ubg.profiled()) << "seed " << seed;
        for (const ubgen::UBProgram &ub : ubg.generateAll(rng, 4)) {
            ast::PrintedProgram printed = ast::printProgram(*ub.program);
            fn(seed, ub, printed);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(Passes, UBProgramMatrixMatchesPinnedKeys)
{
    // The goldens above compile only safe programs, which never reach
    // the bug-gated branches of the sanitizer passes and their check
    // optimizer. This one compiles the UB programs of the same seeds
    // under the whole testing matrix of their kinds, the way the
    // campaign does, and pins every binary together with its compile
    // log: which injected bugs fired, and where.
    support::ByteWriter fold;
    size_t binaries = 0;
    std::set<san::BugId> fired;
    forEachUBProgram([&](uint64_t, const ubgen::UBProgram &ub,
                         const ast::PrintedProgram &printed) {
        compiler::CompilationCache cache(*ub.program, printed);
        for (SanitizerKind s : ubgen::sanitizersFor(ub.kind)) {
            for (const CompilerConfig &c : oracle::testingMatrix(s)) {
                Binary b = cache.compile(c);
                binaries++;
                std::string key = ir::executionKey(b.module);
                fold.u64(support::fnv1a(key));
                fold.u64(key.size());
                for (const san::BugFiring &f : b.log.firings) {
                    fired.insert(f.id);
                    fold.u64(static_cast<uint64_t>(f.id));
                    fold.i32(f.loc.line);
                    fold.i32(f.loc.offset);
                }
            }
        }
    });
    // The mix must exercise the injected bugs, not just compile.
    EXPECT_GT(binaries, 1000u);
    EXPECT_GE(fired.size(), 15u);
    EXPECT_EQ(support::fnv1a(fold.data()), 0x958987aea96d92daULL);
}

TEST(Passes, EarlyOptPrefixTreeMatchesEarlyOptFromScratch)
{
    // A CompilationCache builds each canonical early-opt point by
    // extending its parent's round-1 state (opt::earlyOptParent), not
    // from the base. For every UB program of the sweep above, each
    // module it returns must print and key the same as early opt from
    // scratch, whatever order the points are asked for in: the
    // testing matrix's, its reverse (GCC -O3 before its ancestors),
    // and each point alone on a fresh cache. The counters count
    // requests, never a prefix built on the way.
    using Point = std::pair<Vendor, OptLevel>;
    std::vector<Point> canonical;
    for (Vendor v : {Vendor::GCC, Vendor::LLVM})
        for (OptLevel l : kAllOptLevels)
            if (opt::canonicalEarlyOptPoint(v, l) == Point{v, l})
                canonical.emplace_back(v, l);
    size_t programs = 0;
    forEachUBProgram([&](uint64_t seed, const ubgen::UBProgram &ub,
                         const ast::PrintedProgram &printed) {
        programs++;
        const ir::Module base = compiler::lowerOnce(*ub.program, printed);
        // (printModule, executionKey) of each point from scratch.
        std::map<Point, std::pair<std::string, std::string>> scratch;
        for (const Point &p : canonical) {
            const ir::Module m = compiler::earlyOptimize(
                ir::cloneModule(base), p.first, p.second);
            scratch[p] = {ir::printModule(m), ir::executionKey(m)};
        }
        auto check = [&](const char *order,
                         const std::vector<Point> &requests) {
            compiler::CompilationCache cache(*ub.program, printed);
            std::set<Point> asked;
            for (const auto &[v, l] : requests) {
                const ir::Module &m = cache.earlyOptModule(v, l);
                const Point p = opt::canonicalEarlyOptPoint(v, l);
                asked.insert(p);
                ASSERT_EQ(ir::printModule(m), scratch.at(p).first)
                    << "seed " << seed << ", " << order << " order, "
                    << vendorName(v) << " " << optLevelName(l);
                ASSERT_EQ(ir::executionKey(m), scratch.at(p).second)
                    << "seed " << seed << ", " << order << " order, "
                    << vendorName(v) << " " << optLevelName(l);
            }
            EXPECT_EQ(cache.stats().lowerings, 1u) << order;
            EXPECT_EQ(cache.stats().earlyOptRuns, asked.size()) << order;
            EXPECT_EQ(cache.stats().earlyOptCacheHits,
                      requests.size() - asked.size())
                << order;
        };
        std::vector<Point> matrix;
        for (SanitizerKind s : ubgen::sanitizersFor(ub.kind))
            for (const CompilerConfig &c : oracle::testingMatrix(s))
                matrix.emplace_back(c.vendor, c.level);
        check("matrix", matrix);
        check("reverse", {matrix.rbegin(), matrix.rend()});
        for (const Point &p : canonical)
            check("alone", {p});
    });
    EXPECT_GT(programs, 100u);
}

/**
 * Which coverage sites (and branch arms) have been hit since the last
 * CoverageRegistry::resetHits(), one entry per site.
 */
std::vector<uint64_t>
coverageHits()
{
    const CoverageRegistry &reg = CoverageRegistry::instance();
    std::vector<uint64_t> hits;
    for (const std::string &name : reg.siteNames()) {
        const CovReport r = reg.report(name);
        hits.push_back(r.lineHit);
        hits.push_back(r.funcHit);
        hits.push_back(r.branchHit);
    }
    return hits;
}

TEST(Passes, ReusedCellsAndHardenedTwinsMatchTheirBuildsAlone)
{
    // ExecutionPlan::compile copies a cell whose SpecializeInputs
    // equal an earlier cell's instead of specializing it, and harden
    // mode derives each outcome's hardened twin from the plain binary
    // of its alias group (CompilationCache::hardenedTwin). For every
    // UB program of the sweep, each reused cell, and each outcome's
    // twin under every hardening mask, must key and log exactly as its
    // configuration compiled alone does, and every one of them counts
    // as the specialization it stands for. A reused cell must also
    // hit, built alone, the coverage sites its source cell hits (the
    // vendor picks them): the matrix is swept at trunk and at the
    // release before any injected bug, where both vendors' -O0 cells
    // build one binary and only the vendor tells them apart. Printing
    // is the slow part, so it is compared where a binary stands in for
    // another configuration's: every reused cell, and every twin
    // derived from another configuration's plain binary under both
    // families (a twin of its own plain binary differs from the build
    // alone only in when harden::apply ran).
    CoverageRegistry &coverage = CoverageRegistry::instance();
    size_t reused = 0, twins = 0;
    forEachUBProgram([&](uint64_t seed, const ubgen::UBProgram &ub,
                         const ast::PrintedProgram &printed) {
        // compile(program, printed, c) is specialize(earlyOptimize(
        // lowerOnce(...))): each (vendor, level)'s early opt runs once
        // from scratch here, off the cache's prefix tree, and every
        // configuration is specialized alone from it.
        const ir::Module base = compiler::lowerOnce(*ub.program, printed);
        std::map<std::pair<Vendor, OptLevel>, ir::Module> early;
        auto alone = [&](const CompilerConfig &c) {
            auto it = early.find({c.vendor, c.level});
            if (it == early.end())
                it = early
                         .emplace(std::pair{c.vendor, c.level},
                                  compiler::earlyOptimize(
                                      ir::cloneModule(base), c.vendor,
                                      c.level))
                         .first;
            return compiler::specialize(it->second, c);
        };
        auto expectAlone = [&](const ir::Module &m,
                               const san::CompileLog &log,
                               const CompilerConfig &c, bool print) {
            const Binary b = alone(c);
            if (print)
                EXPECT_EQ(ir::printModule(m), ir::printModule(b.module))
                    << "seed " << seed << ", " << c.str();
            EXPECT_TRUE(ir::binaryKey(m) == ir::binaryKey(b.module))
                << "seed " << seed << ", " << c.str();
            EXPECT_TRUE(log == b.log) << "seed " << seed << ", " << c.str();
        };
        compiler::CompilationCache cache(*ub.program, printed);
        size_t requests = 0;
        for (SanitizerKind s : ubgen::sanitizersFor(ub.kind)) {
            for (const bool trunk : {true, false}) {
                std::vector<CompilerConfig> configs =
                    oracle::testingMatrix(s);
                for (CompilerConfig &c : configs)
                    c.version = trunk ? 0 : firstStableVersion(c.vendor) - 1;
                const oracle::ExecutionPlan plan =
                    oracle::ExecutionPlan::compile(cache, configs);
                for (size_t i = 0; i < plan.size(); i++) {
                    const oracle::ConfigOutcome &oc = plan.outcomes()[i];
                    requests++;
                    // At trunk, which cells reuse follows from the
                    // catalog: LLVM -O3 those of -O2 in every row, LLVM
                    // -Os those of -O1 outside UBSan
                    // (llvm-ubsan-mul-as-add is gated at -Os).
                    if (trunk)
                        EXPECT_EQ(oc.reused,
                                  oc.config.vendor == Vendor::LLVM &&
                                      (oc.config.level == OptLevel::O3 ||
                                       (oc.config.level == OptLevel::Os &&
                                        s != SanitizerKind::UBSan)))
                            << "seed " << seed << ", " << oc.config.str();
                    if (oc.reused) {
                        reused++;
                        expectAlone(oc.module, oc.log, oc.config, true);
                        const compiler::SpecializeInputs in =
                            compiler::specializeInputs(oc.config);
                        size_t from = 0;
                        while (compiler::specializeInputs(configs[from]) !=
                               in)
                            from++;
                        coverage.resetHits();
                        alone(configs[from]);
                        const std::vector<uint64_t> fromHits =
                            coverageHits();
                        coverage.resetHits();
                        alone(oc.config);
                        EXPECT_EQ(coverageHits(), fromHits)
                            << "seed " << seed << ", " << oc.config.str()
                            << " reusing " << configs[from].str();
                    }
                    if (!trunk)
                        continue;
                    for (uint32_t mask : {harden::kDuplicateCompare,
                                          harden::kCfgSignature,
                                          harden::kAllFamilies}) {
                        CompilerConfig hc = oc.config;
                        hc.harden = mask;
                        const ir::Module twin = cache.hardenedTwin(
                            plan.outcomes()[oc.aliasRoot].module, hc);
                        requests++;
                        twins++;
                        expectAlone(twin, oc.log, hc,
                                    oc.aliasRoot != i &&
                                        mask == harden::kAllFamilies);
                    }
                }
            }
        }
        const compiler::CompileStats &st = cache.stats();
        EXPECT_EQ(st.specializations, requests) << "seed " << seed;
        EXPECT_EQ(st.earlyOptRuns + st.earlyOptCacheHits, requests)
            << "seed " << seed;
    });
    EXPECT_GT(reused, 300u);
    EXPECT_GT(twins, 3000u);
}

TEST(Clone, WithoutBodiesKeepsEverythingElse)
{
    // ir::cloneModuleWithoutBodies copies field by field; given its
    // bodies back, the copy must print and key as the original, for
    // lowered modules and for binaries whose globals, frames and flags
    // the sanitizer and hardening passes set.
    size_t programs = 0, modules = 0;
    forEachUBProgram([&](uint64_t seed, const ubgen::UBProgram &ub,
                         const ast::PrintedProgram &printed) {
        // Every pass and field shows up well within the first programs.
        if (programs++ >= 24)
            return;
        std::vector<ir::Module> ms;
        ms.push_back(compiler::lowerOnce(*ub.program, printed));
        for (SanitizerKind s : {SanitizerKind::ASan, SanitizerKind::UBSan,
                                SanitizerKind::MSan})
            ms.push_back(compiler::compile(*ub.program, printed,
                                           cfg(Vendor::LLVM, OptLevel::O2,
                                               s, harden::kAllFamilies))
                             .module);
        for (const ir::Module &m : ms) {
            ir::Module copy = ir::cloneModuleWithoutBodies(m);
            ASSERT_EQ(copy.functions.size(), m.functions.size());
            for (size_t i = 0; i < m.functions.size(); i++) {
                EXPECT_TRUE(copy.functions[i].insts.empty());
                copy.functions[i].insts = m.functions[i].insts;
            }
            EXPECT_EQ(ir::printModule(copy), ir::printModule(m))
                << "seed " << seed;
            EXPECT_EQ(ir::executionKey(copy), ir::executionKey(m))
                << "seed " << seed;
            modules++;
        }
    });
    EXPECT_EQ(modules, 96u);
}

/** verifyModule accepts @p m, and a clone of @p m prints and keys
 *  the same as @p m. */
::testing::AssertionResult
wellFormed(const ir::Module &m)
{
    std::string err = ir::verifyModule(m);
    if (!err.empty())
        return ::testing::AssertionFailure() << err;
    const ir::Module copy = ir::cloneModule(m);
    if (ir::printModule(copy) != ir::printModule(m))
        return ::testing::AssertionFailure() << "clone prints differently";
    if (!(ir::binaryKey(copy) == ir::binaryKey(m)))
        return ::testing::AssertionFailure() << "clone keys differently";
    return ::testing::AssertionSuccess();
}

TEST(Passes, EachPassAloneLeavesTheUBProgramsWellFormed)
{
    // Every pass that erases or inserts instructions rewrites its
    // function's block ranges itself, and specialize verifies only
    // its final module. So run each optimizer pass, each hardening
    // mask and the sweep above's sanitizer configurations alone on
    // its lowered UB programs, and check the module after that one
    // step: a rewrite that gets a range wrong fails here, at that
    // rewrite.
    size_t steps = 0;
    forEachUBProgram([&](uint64_t seed, const ubgen::UBProgram &ub,
                         const ast::PrintedProgram &printed) {
        const ir::Module base = compiler::lowerOnce(*ub.program, printed);
        ASSERT_TRUE(wellFormed(base)) << "seed " << seed;
        for (int k = 0;
             k <= static_cast<int>(opt::PassKind::LifetimeHoist); k++) {
            ir::Module m = ir::cloneModule(base);
            std::unique_ptr<opt::Pass> pass =
                opt::createPass(static_cast<opt::PassKind>(k));
            for (ir::Function &f : m.functions)
                pass->run(f);
            steps++;
            ASSERT_TRUE(wellFormed(m))
                << "seed " << seed << ", pass kind " << k;
        }
        for (SanitizerKind s : ubgen::sanitizersFor(ub.kind)) {
            for (const CompilerConfig &c : oracle::testingMatrix(s)) {
                san::SanitizerContext ctx;
                ctx.kind = s;
                ctx.bugs = san::ActiveBugs(c.vendor, c.effectiveVersion(),
                                           c.level, s);
                const ir::Module m = san::instrument(base, ctx);
                steps++;
                ASSERT_TRUE(wellFormed(m))
                    << "seed " << seed << ", " << sanitizerName(s) << " "
                    << vendorName(c.vendor) << " "
                    << optLevelName(c.level);
            }
        }
        for (uint32_t mask : {harden::kDuplicateCompare,
                              harden::kCfgSignature,
                              harden::kAllFamilies}) {
            ir::Module m = ir::cloneModule(base);
            harden::apply(m, mask);
            steps++;
            ASSERT_TRUE(wellFormed(m))
                << "seed " << seed << ", harden " << harden::maskStr(mask);
        }
    });
    EXPECT_GT(steps, 2000u);
}

TEST(Passes, BinaryKeysPartitionLikeExecutionKeys)
{
    // ir::binaryKey hashes the executionKey serialization without
    // building it. Over the pinned sweep, plain and hardened, two
    // binaries share a BinaryKey exactly when they share an
    // executionKey, and the key's length is the serialization's size.
    std::map<std::string, ir::BinaryKey> keyOf;
    size_t binaries = 0;
    forEachStandardBinary(
        {0, harden::kDuplicateCompare, harden::kCfgSignature,
         harden::kAllFamilies},
        [&](const ir::Module &m) {
            binaries++;
            std::string exec = ir::executionKey(m);
            ir::BinaryKey key = ir::binaryKey(m);
            EXPECT_EQ(key.len, exec.size());
            auto [it, inserted] = keyOf.emplace(std::move(exec), key);
            if (!inserted)
                EXPECT_EQ(it->second, key);
        });
    std::set<ir::BinaryKey> distinct;
    for (const auto &[exec, key] : keyOf)
        distinct.insert(key);
    EXPECT_EQ(distinct.size(), keyOf.size());
    // The sweep must contain both kinds of pair to test either half.
    EXPECT_LT(keyOf.size(), binaries);
    EXPECT_GT(keyOf.size(), 1u);
}

TEST(Passes, HardenedModuleRecordsItsFamilies)
{
    auto prog = frontend::parseOrDie(
        "int main(void) { __checksum(7l); return 0; }");
    Binary plain = compiler::compileProgram(
        *prog, cfg(Vendor::GCC, OptLevel::O2));
    EXPECT_EQ(plain.module.hardenedWith, 0u);
    Binary dup = compiler::compileProgram(
        *prog,
        cfg(Vendor::GCC, OptLevel::O2, SanitizerKind::None,
            harden::kDuplicateCompare));
    EXPECT_EQ(dup.module.hardenedWith, harden::kDuplicateCompare);
    Binary all = compiler::compileProgram(
        *prog,
        cfg(Vendor::GCC, OptLevel::O2, SanitizerKind::None,
            harden::kAllFamilies));
    EXPECT_EQ(all.module.hardenedWith, harden::kAllFamilies);
    // A hardened module never shares an execution identity with the
    // unhardened build of the same program.
    EXPECT_NE(ir::executionKey(plain.module), ir::executionKey(all.module));
}

TEST(PassesDeathTest, RerunningAHardeningFamilyDies)
{
    auto prog = frontend::parseOrDie(
        "int main(void) { __checksum(1l); return 0; }");
    Binary b = compiler::compileProgram(
        *prog,
        cfg(Vendor::GCC, OptLevel::O0, SanitizerKind::None,
            harden::kDuplicateCompare));
    EXPECT_DEATH_IF_SUPPORTED(
        harden::apply(b.module, harden::kDuplicateCompare),
        "already hardened");
}

TEST(Passes, HardeningIsSilentWithoutAnArmedFault)
{
    // The zero-drift guarantee at unit scale: on every standard
    // config, the hardened binary's observable result (kind, report,
    // exit code, checksum) equals the unhardened one as long as no
    // FaultPlan is armed.
    const char *src = R"(int g = 12;
int main(void) {
    int a[4] = {3, 1, 4, 1};
    long acc = 0;
    for (int i = 0; i < 4; i += 1) {
        acc += (long)(a[i] * g);
    }
    int *p = (int*)__malloc(8l);
    p[0] = (int)(acc & 1023l);
    __checksum(acc + (long)p[0]);
    __free((char*)p);
    return (int)(acc % 100l);
}
)";
    auto prog = frontend::parseOrDie(src);
    for (const CompilerConfig &c : standardConfigs()) {
        if (!vendorSupports(c.vendor, c.sanitizer))
            continue;
        Binary plain = compiler::compileProgram(*prog, c);
        CompilerConfig hc = c;
        hc.harden = harden::kAllFamilies;
        Binary hard = compiler::compileProgram(*prog, hc);
        ExecResult rp = vm::execute(plain.module, {});
        ExecResult rh = vm::execute(hard.module, {});
        EXPECT_EQ(rh.kind, rp.kind) << hc.str();
        EXPECT_EQ(rh.report, rp.report) << hc.str();
        EXPECT_EQ(rh.exitCode, rp.exitCode) << hc.str();
        EXPECT_EQ(rh.checksum, rp.checksum) << hc.str();
    }
}

TEST(Passes, ArmedFaultsAreDetectedOrMasked)
{
    // Sweep deterministic fault plans over a hardened binary: every
    // flip either leaves the observable result untouched (masked — the
    // victim was dead) or is caught as a HardeningFault report. A
    // silent corruption (different result, no report) is the failure
    // the passes exist to prevent.
    const char *src = R"(int main(void) {
    long acc = 1;
    for (int i = 1; i < 9; i += 1) {
        acc = acc * (long)i + 3l;
    }
    __checksum(acc);
    return (int)(acc % 97l);
}
)";
    auto prog = frontend::parseOrDie(src);
    Binary hard = compiler::compileProgram(
        *prog,
        cfg(Vendor::GCC, OptLevel::O2, SanitizerKind::None,
            harden::kAllFamilies));
    ExecResult base = vm::execute(hard.module, {});
    ASSERT_EQ(base.kind, ExecResult::Kind::Clean) << base.str();
    ASSERT_GT(base.steps, 1u);

    size_t detected = 0, silent = 0;
    for (uint64_t i = 0; i < 48; i++) {
        vm::FaultPlan plan;
        plan.step = 1 + (i * 7919) % (base.steps - 1);
        plan.target = i * 0x9e3779b97f4a7c15ULL + 11;
        plan.bitIndex = static_cast<uint8_t>((i * 13) % 64);
        vm::ExecOptions opts;
        opts.fault = &plan;
        ExecResult r = vm::execute(hard.module, opts);
        bool same = r.kind == base.kind && r.report == base.report &&
                    r.exitCode == base.exitCode &&
                    r.checksum == base.checksum;
        if (r.kind == ExecResult::Kind::Report) {
            EXPECT_EQ(r.report, vm::ReportKind::HardeningFault);
            detected++;
        } else if (!same) {
            silent++;
        }
    }
    EXPECT_GT(detected, 0u);
    EXPECT_EQ(silent, 0u) << "silent data corruption slipped past "
                             "the hardening passes";
}

TEST(Passes, UnhardenedBinaryNeverReportsHardeningFault)
{
    // Without the passes there is no HardenCheck to fire: a fault run
    // on a plain binary can corrupt the result but never reports.
    auto prog = frontend::parseOrDie(
        R"(int main(void) {
    long acc = 5;
    for (int i = 0; i < 20; i += 1) {
        acc += (long)(i * 3);
    }
    __checksum(acc);
    return (int)(acc % 50l);
}
)");
    Binary plain = compiler::compileProgram(
        *prog, cfg(Vendor::GCC, OptLevel::O2));
    ExecResult base = vm::execute(plain.module, {});
    ASSERT_GT(base.steps, 1u);
    for (uint64_t i = 0; i < 16; i++) {
        vm::FaultPlan plan;
        plan.step = 1 + (i * 31) % (base.steps - 1);
        plan.target = i * 0x2545f4914f6cdd1dULL + 1;
        plan.bitIndex = static_cast<uint8_t>(i % 64);
        vm::ExecOptions opts;
        opts.fault = &plan;
        ExecResult r = vm::execute(plain.module, opts);
        if (r.kind == ExecResult::Kind::Report)
            EXPECT_NE(r.report, vm::ReportKind::HardeningFault);
    }
}

} // namespace
} // namespace ubfuzz
