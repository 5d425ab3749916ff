/**
 * @file
 * Compiler pipeline tests: optimization semantic preservation,
 * sanitizer detection of each UB kind, UB elimination by optimization
 * (Figure 3), and an injected FN bug (Figure 1).
 */

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "frontend/parser.h"
#include "sanitizer/sanitizer.h"
#include "vm/vm.h"

namespace ubfuzz {
namespace {

using compiler::Binary;
using compiler::CompilerConfig;
using vm::ExecResult;

ExecResult
run(const Binary &b, vm::ExecOptions opts = {})
{
    return vm::execute(b.module, opts);
}

CompilerConfig
cfg(Vendor v, OptLevel l, SanitizerKind s = SanitizerKind::None,
    int version = 0)
{
    CompilerConfig c;
    c.vendor = v;
    c.level = l;
    c.sanitizer = s;
    c.version = version;
    return c;
}

/** Valid programs must behave identically at every level and vendor. */
TEST(Optimizer, SemanticPreservationOnValidPrograms)
{
    const char *programs[] = {
        R"(int a[6] = {5, 4, 3, 2, 1, 0};
int g = 3;
long mix(int x, long y) {
    long r = 0;
    for (int i = 0; i < x; i += 1) {
        r += y * (long)a[i % 6];
        if (r > 100l) {
            r -= 17l;
        }
    }
    return r;
}
int main(void) {
    long t = mix(g + 4, 9l);
    t += (g == 0) ? 1l : (100l / (long)g);
    int u = 1;
    u = u << (g & 7);
    __checksum(t + (long)u);
    return (int)(t % 100l);
}
)",
        R"(struct P {
    int x;
    int y;
};
struct P ps;
int buf[4] = {1, 2, 3, 4};
int *bp = &buf[1];
int main(void) {
    ps.x = *bp + bp[1];
    ps.y = ps.x * 2 - buf[0];
    struct P q;
    q = ps;
    int acc = 0;
    int i = 0;
    while (i < 4) {
        acc += buf[i] ^ (q.y & 3);
        i += 1;
    }
    __checksum((long)acc);
    return acc & 127;
}
)",
        R"(int main(void) {
    char c = 100;
    unsigned char u = 200;
    short s = -300;
    unsigned short w = 60000u;
    long big = 1234567890123l;
    int r = c + u - s + (int)w;
    long lr = big % 1000003l + (long)r;
    int *hp = (int*)__malloc(24l);
    hp[0] = r;
    hp[1] = (int)lr;
    hp[2] = hp[0] + hp[1];
    __checksum((long)hp[2]);
    __free((char*)hp);
    return hp != (int*)0;
}
)",
    };
    for (const char *src : programs) {
        auto prog = frontend::parseOrDie(src);
        ast::PrintedProgram printed = ast::printProgram(*prog);
        Binary base = compiler::compile(
            *prog, printed, cfg(Vendor::GCC, OptLevel::O0));
        ExecResult ref = run(base);
        ASSERT_EQ(ref.kind, ExecResult::Kind::Clean) << ref.str();
        for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
            for (OptLevel l : kAllOptLevels) {
                Binary b =
                    compiler::compile(*prog, printed, cfg(v, l));
                ExecResult r = run(b);
                ASSERT_EQ(r.kind, ExecResult::Kind::Clean)
                    << vendorName(v) << optLevelName(l) << ": "
                    << r.str();
                EXPECT_EQ(r.exitCode, ref.exitCode)
                    << vendorName(v) << optLevelName(l);
                EXPECT_EQ(r.checksum, ref.checksum)
                    << vendorName(v) << optLevelName(l);
            }
        }
    }
}

struct Detection
{
    const char *src;
    SanitizerKind sanitizer;
    vm::ReportKind expect;
};

/** Bug-free sanitizers at -O0 must catch every UB kind (Table 2). */
TEST(Sanitizers, DetectEveryUBKindAtO0)
{
    const Detection cases[] = {
        // Stack buffer overflow via array index (ASan).
        {R"(int main(void) {
    int a[4];
    int i = 0;
    a[0] = 1;
    i = 4;
    a[i] = 2;
    return 0;
}
)",
         SanitizerKind::ASan, vm::ReportKind::StackBufferOverflow},
        // Global buffer overflow via pointer (ASan).
        {R"(int b[2];
int *d = &b[0];
int k = 0;
int main(void) {
    k = 3;
    return *(d + k);
}
)",
         SanitizerKind::ASan, vm::ReportKind::GlobalBufferOverflow},
        // Use after free (ASan).
        {R"(int main(void) {
    long *p = (long*)__malloc(8l);
    *p = 5l;
    __free((char*)p);
    return (int)*p;
}
)",
         SanitizerKind::ASan, vm::ReportKind::HeapUseAfterFree},
        // Use after scope (ASan).
        {R"(int g;
int main(void) {
    int *p = &g;
    if (g == 0) {
        int inner[4];
        inner[0] = 7;
        p = &inner[0];
    }
    return *p;
}
)",
         SanitizerKind::ASan, vm::ReportKind::StackUseAfterScope},
        // Null pointer dereference (UBSan).
        {R"(int main(void) {
    int x = 0;
    int *p = &x;
    p = 0;
    return *p;
}
)",
         SanitizerKind::UBSan, vm::ReportKind::NullDeref},
        // Signed integer overflow (UBSan).
        {R"(int big = 2000000000;
int main(void) {
    int y = big;
    return big + y;
}
)",
         SanitizerKind::UBSan, vm::ReportKind::SignedIntegerOverflow},
        // Shift out of bounds (UBSan).
        {R"(int n = 33;
int main(void) {
    return 1 << n;
}
)",
         SanitizerKind::UBSan, vm::ReportKind::ShiftOutOfBounds},
        // Division by zero (UBSan).
        {R"(int z;
int main(void) {
    z = 0;
    return 7 % z;
}
)",
         SanitizerKind::UBSan, vm::ReportKind::DivByZero},
        // Array index OOB (UBSan bounds).
        {R"(int idx = 9;
int main(void) {
    int a[5] = {1, 2, 3, 4, 5};
    return a[idx];
}
)",
         SanitizerKind::UBSan, vm::ReportKind::ArrayIndexOOB},
        // Use of uninitialized memory (MSan, LLVM only).
        {R"(int main(void) {
    int x;
    if (x > 3) {
        return 1;
    }
    return 0;
}
)",
         SanitizerKind::MSan, vm::ReportKind::UninitValue},
    };

    for (const Detection &d : cases) {
        auto prog = frontend::parseOrDie(d.src);
        for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
            if (!vendorSupports(v, d.sanitizer))
                continue;
            // Version 5 on GCC/LLVM would have injected bugs active;
            // use a hypothetical bug-free version by picking version 1
            // (before anything was introduced).
            Binary b = compiler::compileProgram(
                *prog, cfg(v, OptLevel::O0, d.sanitizer, 1));
            ExecResult r = run(b);
            ASSERT_EQ(r.kind, ExecResult::Kind::Report)
                << vendorName(v) << " " << sanitizerName(d.sanitizer)
                << " on:\n"
                << d.src << "\ngot: " << r.str();
            EXPECT_EQ(r.report, d.expect)
                << vendorName(v) << " " << sanitizerName(d.sanitizer);
        }
    }
}

/**
 * Figure 3: the dead OOB store is eliminated by -O2 *before* the
 * sanitizer pass, so ASan cannot see it. Not a sanitizer bug.
 */
TEST(Pipeline, OptimizationEliminatesDeadUBStore)
{
    const char *src = R"(int main(void) {
    int d[2];
    int i = 2;
    d[i] = 1;
    return 0;
}
)";
    auto prog = frontend::parseOrDie(src);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    // At -O0, ASan reports the overflow.
    Binary b0 = compiler::compile(
        *prog, printed, cfg(Vendor::GCC, OptLevel::O0,
                            SanitizerKind::ASan, 1));
    ExecResult r0 = run(b0);
    ASSERT_EQ(r0.kind, ExecResult::Kind::Report) << r0.str();
    // At -O2, DSE removes the write-only store; clean exit, no bug.
    Binary b2 = compiler::compile(
        *prog, printed, cfg(Vendor::GCC, OptLevel::O2,
                            SanitizerKind::ASan, 1));
    ExecResult r2 = run(b2);
    EXPECT_EQ(r2.kind, ExecResult::Kind::Clean) << r2.str();
    // Crucially: no injected bug fired — this is pure optimization.
    EXPECT_TRUE(b2.log.firings.empty());
}

/**
 * Figure 1: the struct copy through an overflowed pointer. GCC ASan
 * detects it at -O0 but misses it at -O2 because of the injected
 * GccAsanStructCopyNoCheck defect — and the compile log says so.
 */
TEST(Pipeline, Figure1InjectedFalseNegative)
{
    const char *src = R"(struct a {
    int x;
};
struct a b[2];
struct a *c = &b[0];
struct a *d = &b[0];
int k = 0;
int main(void) {
    *c = b[0];
    k = 2;
    *c = *(d + k);
    return c->x;
}
)";
    auto prog = frontend::parseOrDie(src);
    ast::PrintedProgram printed = ast::printProgram(*prog);

    Binary b0 = compiler::compile(
        *prog, printed,
        cfg(Vendor::GCC, OptLevel::O0, SanitizerKind::ASan));
    ExecResult r0 = run(b0);
    ASSERT_EQ(r0.kind, ExecResult::Kind::Report) << r0.str();
    EXPECT_EQ(r0.report, vm::ReportKind::GlobalBufferOverflow);

    Binary b2 = compiler::compile(
        *prog, printed,
        cfg(Vendor::GCC, OptLevel::O2, SanitizerKind::ASan));
    ExecResult r2 = run(b2);
    EXPECT_NE(r2.kind, ExecResult::Kind::Report) << r2.str();
    // The ground-truth log records the defect firing at the UB site.
    bool fired = false;
    for (const auto &f : b2.log.firings)
        fired |= f.id == san::BugId::GccAsanStructCopyNoCheck;
    EXPECT_TRUE(fired);
}

TEST(BugCatalog, DistributionMatchesTable3)
{
    int gcc_asan = 0, gcc_ubsan = 0, llvm_asan = 0, llvm_ubsan = 0,
        llvm_msan = 0;
    for (const san::BugInfo &b : san::bugCatalog()) {
        if (b.vendor == Vendor::GCC) {
            (b.sanitizer == SanitizerKind::ASan ? gcc_asan : gcc_ubsan)++;
        } else if (b.sanitizer == SanitizerKind::ASan) {
            llvm_asan++;
        } else if (b.sanitizer == SanitizerKind::UBSan) {
            llvm_ubsan++;
        } else {
            llvm_msan++;
        }
    }
    // 30 real defects; the paper's 31st report is the oracle false
    // alarm (GCC ASan "Invalid" in Table 3).
    EXPECT_EQ(gcc_asan, 8);
    EXPECT_EQ(gcc_ubsan, 7);
    EXPECT_EQ(llvm_asan, 6);
    EXPECT_EQ(llvm_ubsan, 8);
    EXPECT_EQ(llvm_msan, 1);
}

TEST(BugCatalog, VersionAndLevelGating)
{
    using san::ActiveBugs;
    using san::BugId;
    constexpr SanitizerKind kASan = SanitizerKind::ASan;
    // GccAsanStructCopyNoCheck: GCC only, since v5, -O2 and up.
    EXPECT_TRUE(ActiveBugs(Vendor::GCC, 14, OptLevel::O2, kASan)
                    .active(BugId::GccAsanStructCopyNoCheck));
    EXPECT_TRUE(ActiveBugs(Vendor::GCC, 5, OptLevel::O3, kASan)
                    .active(BugId::GccAsanStructCopyNoCheck));
    EXPECT_FALSE(ActiveBugs(Vendor::GCC, 14, OptLevel::O0, kASan)
                     .active(BugId::GccAsanStructCopyNoCheck));
    EXPECT_FALSE(ActiveBugs(Vendor::GCC, 4, OptLevel::O2, kASan)
                     .active(BugId::GccAsanStructCopyNoCheck));
    EXPECT_FALSE(ActiveBugs(Vendor::LLVM, 14, OptLevel::O2, kASan)
                     .active(BugId::GccAsanStructCopyNoCheck));
}

TEST(Sanitizers, AsanRedzoneLimitIs32Bytes)
{
    // The paper (§2.1): ASan only detects overflows up to 32 bytes
    // past the buffer. Far enough past the buffer the access lands in
    // the *next global's* payload (past both globals' redzones), which
    // is valid memory as far as the shadow is concerned.
    const char *far_src = R"(int b[2];
int *d = &b[0];
int k = 0;
int main(void) {
    k = 19;
    return *(d + k);
}
)";
    auto prog = frontend::parseOrDie(far_src);
    Binary b = compiler::compileProgram(
        *prog, cfg(Vendor::GCC, OptLevel::O0, SanitizerKind::ASan, 1));
    ExecResult r = run(b);
    EXPECT_NE(r.kind, ExecResult::Kind::Report) << r.str();
}

/** The Figure 1 program: stack/global overflow with sanitizer action
 *  at every level — a good workout for the full matrix. */
const char *kStagedSrc = R"(struct a {
    int x;
};
struct a b[2];
struct a *c = &b[0];
struct a *d = &b[0];
int k = 0;
int main(void) {
    *c = b[0];
    k = 2;
    *c = *(d + k);
    return c->x;
}
)";

/**
 * The whole point of the staged pipeline: a CompilationCache must hand
 * back bit-identical binaries (module text, compile log, and runtime
 * behaviour) to the uncached compile, for every configuration of the
 * full sanitizer matrix.
 */
TEST(StagedPipeline, CacheMatchesMonolithicCompile)
{
    auto prog = frontend::parseOrDie(kStagedSrc);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    compiler::CompilationCache cache(*prog, printed);
    for (SanitizerKind s :
         {SanitizerKind::None, SanitizerKind::ASan, SanitizerKind::UBSan,
          SanitizerKind::MSan}) {
        for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
            if (!vendorSupports(v, s))
                continue;
            for (OptLevel l : kAllOptLevels) {
                Binary mono = compiler::compile(*prog, printed,
                                                cfg(v, l, s));
                Binary staged = cache.compile(cfg(v, l, s));
                ASSERT_EQ(ir::printModule(mono.module),
                          ir::printModule(staged.module))
                    << cfg(v, l, s).str();
                ASSERT_EQ(mono.log.firings.size(),
                          staged.log.firings.size())
                    << cfg(v, l, s).str();
                for (size_t i = 0; i < mono.log.firings.size(); i++) {
                    EXPECT_EQ(mono.log.firings[i].id,
                              staged.log.firings[i].id);
                    EXPECT_EQ(mono.log.firings[i].loc,
                              staged.log.firings[i].loc);
                }
                ExecResult rm = run(mono), rs = run(staged);
                EXPECT_EQ(rm.str(), rs.str()) << cfg(v, l, s).str();
            }
        }
    }
}

/** Counter accounting: one lowering per program, one early-opt run per
 *  equivalence class, one specialization per binary. */
TEST(StagedPipeline, CacheReusesLoweringAndEarlyOpt)
{
    auto prog = frontend::parseOrDie(kStagedSrc);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    compiler::CompilationCache cache(*prog, printed);
    size_t compiles = 0;
    for (SanitizerKind s : {SanitizerKind::ASan, SanitizerKind::UBSan,
                            SanitizerKind::MSan}) {
        for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
            if (!vendorSupports(v, s))
                continue;
            for (OptLevel l : kAllOptLevels) {
                cache.compile(cfg(v, l, s));
                compiles++;
            }
        }
    }
    // ASan 10 + UBSan 10 + MSan 5 configurations...
    EXPECT_EQ(compiles, 25u);
    EXPECT_EQ(cache.stats().specializations, 25u);
    // ...share one lowering and 7 early-opt classes (shared -O0, four
    // GCC levels, LLVM {O1,Os} and {O2,O3}).
    EXPECT_EQ(cache.stats().lowerings, 1u);
    EXPECT_EQ(cache.stats().earlyOptRuns, 7u);
    EXPECT_EQ(cache.stats().earlyOptCacheHits, 18u);
}

/** cloneModule must be a deep copy: mutating the clone (or
 *  instrumenting it) leaves the original untouched. */
TEST(StagedPipeline, CloneModuleIsolatesMutation)
{
    auto prog = frontend::parseOrDie(kStagedSrc);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    ir::Module base = compiler::lowerOnce(*prog, printed);
    std::string before = ir::printModule(base);
    ir::Module clone = ir::cloneModule(base);
    compiler::Binary b =
        compiler::specialize(clone, cfg(Vendor::GCC, OptLevel::O2,
                                        SanitizerKind::ASan));
    // The specialized binary gained sanitizer instructions; neither the
    // clone it came from nor the base module changed.
    EXPECT_EQ(b.module.instrumentedWith, SanitizerKind::ASan);
    EXPECT_EQ(clone.instrumentedWith, SanitizerKind::None);
    EXPECT_EQ(ir::printModule(base), before);
    EXPECT_EQ(ir::printModule(clone), before);
}

/** Double instrumentation (a missing clone) must be caught loudly. */
TEST(StagedPipelineDeathTest, ReinstrumentingPanics)
{
    auto prog = frontend::parseOrDie(kStagedSrc);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    compiler::Binary b = compiler::compile(
        *prog, printed, cfg(Vendor::GCC, OptLevel::O0,
                            SanitizerKind::ASan));
    san::SanitizerContext ctx;
    ctx.kind = SanitizerKind::ASan;
    EXPECT_DEATH_IF_SUPPORTED(san::instrument(b.module, ctx),
                              "already instrumented");
}

} // namespace
} // namespace ubfuzz
