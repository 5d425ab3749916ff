/**
 * @file
 * The bytecode execution engine: fast-vs-generic dispatch parity (the
 * flattened interpreter against the reference struct-walking one,
 * over every UB kind, every dispatch mode, and sanitizer-instrumented
 * binaries), translation-time exhaustiveness of the opcode table, and
 * CodeCache accounting (one translation per distinct binary in the
 * window, executions == translations + hits) and its least-recently-
 * used eviction.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "compiler/compiler.h"
#include "frontend/parser.h"
#include "generator/generator.h"
#include "ir/lowering.h"
#include "oracle/oracle.h"
#include "support/rng.h"
#include "ubgen/ubgen.h"
#include "vm/bytecode.h"
#include "vm/vm.h"

namespace ubfuzz {
namespace {

using ubgen::UBKind;

void
expectSameResult(const vm::ExecResult &ref, const vm::ExecResult &fast,
                 const std::string &what)
{
    EXPECT_EQ(ref.kind, fast.kind)
        << what << ": " << ref.str() << " vs " << fast.str();
    EXPECT_EQ(ref.report, fast.report) << what;
    EXPECT_EQ(ref.reportLoc, fast.reportLoc) << what;
    EXPECT_EQ(ref.trap, fast.trap) << what;
    EXPECT_EQ(ref.trapLoc, fast.trapLoc) << what;
    EXPECT_EQ(ref.exitCode, fast.exitCode) << what;
    EXPECT_EQ(ref.checksum, fast.checksum) << what;
    EXPECT_EQ(ref.steps, fast.steps) << what;
    EXPECT_EQ(ref.trace, fast.trace) << what;
}

/** Bytecode vs reference under the differential runner's modes:
 *  silent, ground truth, and traced (the Generic loop). */
void
expectParity(const ir::Module &mod, const std::string &what,
             uint64_t stepLimit = 2'000'000)
{
    vm::Machine ref;
    vm::Machine fast;
    vm::ExecOptions silent;
    silent.stepLimit = stepLimit;
    expectSameResult(ref.runReference(mod, silent), fast.run(mod, silent),
                     what + " [silent]");
    vm::ExecOptions gt = silent;
    gt.groundTruth = true;
    expectSameResult(ref.runReference(mod, gt), fast.run(mod, gt),
                     what + " [ground-truth]");
    vm::ExecOptions tr = silent;
    tr.recordTrace = true;
    expectSameResult(ref.runReference(mod, tr), fast.run(mod, tr),
                     what + " [trace]");
}

TEST(DispatchParity, EveryUBKindEveryMode)
{
    // Walk seeds until the UB gallery covered every kind at least
    // once, comparing the bytecode interpreter against the reference
    // for every derived program under every differential-runner mode.
    bool covered[ubgen::kNumUBKinds] = {};
    size_t checked = 0;
    for (uint64_t s = 1; s <= 30; s++) {
        gen::GeneratorConfig gc;
        gc.seed = s;
        gc.safeMath = true;
        auto seed = gen::generateProgram(gc);
        ubgen::UBGenerator ubg(*seed);
        if (!ubg.profiled())
            continue;
        Rng rng(s * 31);
        auto programs = ubg.generateAll(rng, 1);
        for (const auto &ub : programs) {
            ast::PrintedProgram printed = ast::printProgram(*ub.program);
            ir::Module mod = ir::lowerProgram(*ub.program, printed.map);
            expectParity(mod, std::string("kind ") +
                                  ubgen::ubKindName(ub.kind) + " seed " +
                                  std::to_string(s));
            covered[static_cast<size_t>(ub.kind)] = true;
            checked++;
        }
        bool all = true;
        for (UBKind k : ubgen::kAllUBKinds)
            all = all && covered[static_cast<size_t>(k)];
        if (all && s >= 6)
            break;
    }
    for (UBKind k : ubgen::kAllUBKinds)
        EXPECT_TRUE(covered[static_cast<size_t>(k)])
            << "gallery never produced " << ubgen::ubKindName(k);
    EXPECT_GT(checked, 20u);
}

TEST(DispatchParity, SanitizerInstrumentedBinaries)
{
    // The silent matrix runs execute sanitizer-instrumented binaries:
    // cover the sanitizer opcodes (AsanCheck, Ubsan*, MsanCheck) and
    // the MSan shadow dispatch mode against the reference.
    gen::GeneratorConfig gc;
    gc.seed = 11;
    gc.safeMath = true;
    auto seed = gen::generateProgram(gc);
    ubgen::UBGenerator ubg(*seed);
    ASSERT_TRUE(ubg.profiled());
    Rng rng(7);
    auto programs = ubg.generateAll(rng, 1);
    ASSERT_FALSE(programs.empty());
    size_t checked = 0;
    for (size_t i = 0; i < programs.size() && checked < 4; i++) {
        const auto &ub = programs[i];
        for (SanitizerKind sani :
             {SanitizerKind::ASan, SanitizerKind::UBSan,
              SanitizerKind::MSan}) {
            for (compiler::CompilerConfig cfg :
                 oracle::testingMatrix(sani)) {
                compiler::Binary bin =
                    compiler::compileProgram(*ub.program, cfg);
                expectParity(bin.module, cfg.str());
            }
        }
        checked++;
    }
    EXPECT_GT(checked, 0u);
}

TEST(DispatchParity, TimeoutAndProfileRuns)
{
    auto prog = frontend::parseOrDie(R"(int main(void) {
    long *p = (long*)__malloc(16l);
    p[0] = 1l;
    __free((char*)p);
    while (1) {
        __checksum(1l);
    }
    return 0;
}
)");
    ast::PrintedProgram printed = ast::printProgram(*prog);
    ir::Module mod = ir::lowerProgram(*prog, printed.map);
    // Timeout: step counts against the limit must agree exactly.
    vm::ExecOptions opts;
    opts.stepLimit = 12345;
    vm::Machine ref, fast;
    expectSameResult(ref.runReference(mod, opts), fast.run(mod, opts),
                     "timeout");
    // Profile runs take the generic loop; the collected records must
    // agree (heap allocation lifecycles and the event sequence).
    vm::RawProfile refProf, fastProf;
    vm::ExecOptions profOpts;
    profOpts.stepLimit = 12345;
    profOpts.profile = &refProf;
    vm::ExecResult r1 = ref.runReference(mod, profOpts);
    profOpts.profile = &fastProf;
    vm::ExecResult r2 = fast.run(mod, profOpts);
    expectSameResult(r1, r2, "profile");
    EXPECT_EQ(refProf.eventSeq, fastProf.eventSeq);
    ASSERT_EQ(refProf.heapAllocs.size(), fastProf.heapAllocs.size());
    for (size_t i = 0; i < refProf.heapAllocs.size(); i++) {
        EXPECT_EQ(refProf.heapAllocs[i].allocSeq,
                  fastProf.heapAllocs[i].allocSeq);
        EXPECT_EQ(refProf.heapAllocs[i].freeSeq,
                  fastProf.heapAllocs[i].freeSeq);
    }
}

TEST(DispatchParity, DeepRecursionStackOverflowTrap)
{
    // The call-depth trap reports at the last executed valid location
    // (curLoc_ in the reference); the bytecode loop reconstructs it
    // from its pc side table.
    auto prog = frontend::parseOrDie(R"(int down(int n) {
    return down(n + 1);
}
int main(void) {
    return down(0);
}
)");
    ast::PrintedProgram printed = ast::printProgram(*prog);
    ir::Module mod = ir::lowerProgram(*prog, printed.map);
    vm::Machine ref, fast;
    expectSameResult(ref.runReference(mod), fast.run(mod),
                     "call depth trap");
}

//===--------------------------------------------------------------===//
// Translation-time exhaustiveness
//===--------------------------------------------------------------===//

TEST(Exhaustiveness, EveryOpcodeHasABytecodeHandler)
{
    for (size_t i = 0; i < ir::kNumOpcodes; i++) {
        EXPECT_TRUE(vm::bc::opcodeHasHandler(static_cast<ir::Opcode>(i)))
            << "opcode #" << i << " ("
            << ir::opcodeName(static_cast<ir::Opcode>(i))
            << ") has no bytecode handler";
    }
    // Guard the hand-maintained bound itself: one past kNumOpcodes must
    // not name a real opcode. An opcode appended to the enum without
    // bumping kNumOpcodes gets a real name here and fails this check,
    // so the loop above cannot silently under-cover.
    EXPECT_STREQ(
        ir::opcodeName(static_cast<ir::Opcode>(ir::kNumOpcodes)), "?");
}

TEST(ExhaustivenessDeathTest, UnknownOpcodePanicsAtTranslation)
{
    auto prog = frontend::parseOrDie("int main(void) { return 0; }");
    ast::PrintedProgram printed = ast::printProgram(*prog);
    ir::Module mod = ir::lowerProgram(*prog, printed.map);
    // Corrupt one instruction with an opcode the flattener has never
    // heard of: the panic must fire at translation, not mid-run.
    mod.functions[mod.mainIndex].insts[0].op =
        static_cast<ir::Opcode>(0xEF);
    EXPECT_DEATH((void)vm::bc::translate(mod), "no bytecode handler");
}

//===--------------------------------------------------------------===//
// CodeCache accounting
//===--------------------------------------------------------------===//

ir::Module
lowerSource(const std::string &src)
{
    auto prog = frontend::parseOrDie(src);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    return ir::lowerProgram(*prog, printed.map);
}

TEST(CodeCache, TranslateOncePerDistinctBinary)
{
    ir::Module mod = lowerSource("int main(void) { return 7; }");
    vm::Machine m;
    m.run(mod);
    m.run(mod);
    m.run(mod);
    EXPECT_EQ(m.stats().translations, 1u);
    EXPECT_EQ(m.stats().translationHits, 2u);
    EXPECT_EQ(m.stats().executions,
              m.stats().translations + m.stats().translationHits);
}

TEST(CodeCache, ByteIdenticalModulesShareATranslation)
{
    // Keyed by ir::BinaryKey, not object identity: two separately
    // lowered but byte-identical binaries share one translation.
    ir::Module a = lowerSource("int main(void) { return 4; }");
    ir::Module b = lowerSource("int main(void) { return 4; }");
    vm::Machine m;
    vm::ExecResult ra = m.run(a);
    vm::ExecResult rb = m.run(b);
    EXPECT_EQ(ra.exitCode, rb.exitCode);
    EXPECT_EQ(m.stats().translations, 1u);
    EXPECT_EQ(m.stats().translationHits, 1u);
}

TEST(CodeCache, SharedAcrossMachines)
{
    // The campaign's per-unit wiring: the classifier machine and every
    // per-program machine resolve through one cache, so a binary one
    // machine ran is never flattened again by another.
    ir::Module mod = lowerSource("int main(void) { return 1; }");
    vm::CodeCache cache;
    vm::Machine m1(&cache);
    vm::Machine m2(&cache);
    m1.run(mod);
    m2.run(mod);
    EXPECT_EQ(m1.stats().translations, 1u);
    EXPECT_EQ(m1.stats().translationHits, 0u);
    EXPECT_EQ(m2.stats().translations, 0u);
    EXPECT_EQ(m2.stats().translationHits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

/** Ask @p cache for @p mod; true when it was served from the window. */
bool
hitIn(vm::CodeCache &cache, const ir::Module &mod)
{
    bool hit = false;
    cache.translation(mod, ir::binaryKey(mod), &hit);
    return hit;
}

TEST(CodeCache, HitRefreshesRecency)
{
    // Window of 2 with A, B, A, C: the hit on A makes B the least
    // recent, so C evicts B and A still hits.
    ir::Module a = lowerSource("int main(void) { return 1; }");
    ir::Module b = lowerSource("int main(void) { return 2; }");
    ir::Module c = lowerSource("int main(void) { return 3; }");
    vm::CodeCache cache(2);
    EXPECT_FALSE(hitIn(cache, a));
    EXPECT_FALSE(hitIn(cache, b));
    EXPECT_TRUE(hitIn(cache, a));
    EXPECT_EQ(cache.capRejects(), 0u);
    EXPECT_FALSE(hitIn(cache, c));
    EXPECT_EQ(cache.capRejects(), 1u);
    EXPECT_TRUE(hitIn(cache, a));
    EXPECT_TRUE(hitIn(cache, c));
    EXPECT_FALSE(hitIn(cache, b));
    EXPECT_EQ(cache.capRejects(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(CodeCache, EvictionsAreCountedAndSizeNeverExceedsTheWindow)
{
    // Every translation is either in the window or counted as dropped,
    // and the window never holds more than its size.
    std::vector<ir::Module> mods;
    for (int i = 0; i < 7; i++)
        mods.push_back(lowerSource("int main(void) { return " +
                                   std::to_string(i) + "; }"));
    for (size_t window : {size_t{1}, size_t{3}, size_t{7}, SIZE_MAX}) {
        vm::CodeCache cache(window);
        size_t translations = 0;
        for (size_t stride = 1; stride <= 3; stride++) {
            for (size_t i = 0; i < mods.size(); i += stride) {
                if (!hitIn(cache, mods[i]))
                    translations++;
                EXPECT_LE(cache.size(), window) << "window " << window;
                EXPECT_EQ(translations, cache.size() + cache.capRejects())
                    << "window " << window;
            }
        }
        // A window as large as the working set keeps every translation.
        if (window >= mods.size()) {
            EXPECT_EQ(translations, mods.size());
            EXPECT_EQ(cache.capRejects(), 0u);
        }
    }
}

TEST(CodeCache, WindowOfZeroRetainsNothing)
{
    // Every request translates, each translation still runs correctly,
    // and each counts as dropped.
    ir::Module mod = lowerSource("int main(void) { return 5; }");
    vm::CodeCache cache(0);
    vm::Machine m(&cache);
    EXPECT_EQ(m.run(mod).exitCode, 5);
    EXPECT_EQ(m.run(mod).exitCode, 5);
    EXPECT_EQ(m.stats().translations, 2u);
    EXPECT_EQ(m.stats().translationHits, 0u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.capRejects(), 2u);
}

TEST(CodeCache, ExecutionPlanAccountsTranslationsAndHits)
{
    // One real differential matrix: every distinct binary translates
    // exactly once; the debugger re-executions of silent binaries are
    // the hits. The campaign-wide CI invariant in miniature.
    gen::GeneratorConfig gc;
    gc.seed = 11;
    gc.safeMath = true;
    auto seed = gen::generateProgram(gc);
    ubgen::UBGenerator ubg(*seed);
    ASSERT_TRUE(ubg.profiled());
    Rng rng(3);
    auto programs = ubg.generateAll(rng, 1);
    ASSERT_FALSE(programs.empty());
    const auto &ub = programs.front();
    ast::PrintedProgram printed = ast::printProgram(*ub.program);
    compiler::CompilationCache cache(*ub.program, printed);
    vm::CodeCache codeCache;
    vm::Machine machine(&codeCache);
    auto configs = oracle::testingMatrix(SanitizerKind::ASan);
    oracle::DifferentialResult diff =
        oracle::runDifferential(cache, machine, configs, 1'000'000);
    const vm::ExecStats &es = machine.stats();
    EXPECT_GT(es.executions, 0u);
    EXPECT_GT(es.translations, 0u);
    EXPECT_EQ(es.executions, es.translations + es.translationHits);
    // Distinct binaries executed once each: translations never exceed
    // the matrix width (aliased configs are dedup skips, not runs).
    EXPECT_LE(es.translations, configs.size());
    EXPECT_EQ(diff.outcomes.size(), configs.size());
}

//===--------------------------------------------------------------===//
// Step-limit parity
//===--------------------------------------------------------------===//

/** A compact program with a loop, array and global accesses, and a
 *  call. Three iterations keep the full run short enough to sweep
 *  every stepLimit boundary below. */
const char *kStepSweepSource = R"(int a[8];
int g;
int helper(int x) {
    return x * 3 + 1;
}
int main(void) {
    long s = 0l;
    g = 2;
    for (int i = 0; i < 3; i += 1) {
        int j = i % 8;
        a[j] = a[j] + helper(i) + g;
        s += (long)(a[j] % 100);
    }
    __checksum(s);
    return (int)(s % 256l);
}
)";

TEST(Fusion, StepLimitParityAtEveryBoundary)
{
    // A stepLimit expiring at any record must time out at exactly the
    // same step as the reference, in every dispatch mode. Sweep every
    // boundary of the whole program through a shared CodeCache, so
    // each run after the first executes a cached translation.
    ir::Module mod = lowerSource(kStepSweepSource);
    // Shadow-mode dispatch follows the translation's msan flag; no
    // check records are needed to exercise the mode's loop.
    ir::Module shadowMod = mod;
    shadowMod.msan.enabled = true;
    vm::Machine probe;
    const uint64_t fullSteps = probe.runReference(mod).steps;
    ASSERT_GT(fullSteps, 0u);
    ASSERT_LT(fullSteps, 2000u); // keep the quadratic sweep cheap
    vm::CodeCache cache;
    for (uint64_t k = 0; k <= fullSteps + 1; k++) {
        vm::Machine ref;
        vm::Machine fast(&cache);
        vm::ExecOptions o;
        o.stepLimit = k;
        std::string tag = "stepLimit " + std::to_string(k);
        expectSameResult(ref.runReference(mod, o), fast.run(mod, o),
                         tag + " [silent]");
        vm::ExecOptions gt = o;
        gt.groundTruth = true;
        expectSameResult(ref.runReference(mod, gt), fast.run(mod, gt),
                         tag + " [ground-truth]");
        vm::ExecOptions tr = o;
        tr.recordTrace = true;
        expectSameResult(ref.runReference(mod, tr), fast.run(mod, tr),
                         tag + " [trace]");
        expectSameResult(ref.runReference(shadowMod, o),
                         fast.run(shadowMod, o), tag + " [shadow]");
    }
}

} // namespace
} // namespace ubfuzz
