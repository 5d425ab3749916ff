/**
 * @file
 * Lowering + VM execution semantics: arithmetic, control flow, memory,
 * traps, ground-truth UB detection, and execution tracing; plus the
 * execution keys that let a batch skip identical binaries and the
 * module verifier's rejection rules.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "ast/printer.h"
#include "frontend/parser.h"
#include "ir/lowering.h"
#include "vm/vm.h"

namespace ubfuzz {
namespace {

/** Compile a source string at "-O0, no sanitizer" and run it. */
vm::ExecResult
runSource(const std::string &src, vm::ExecOptions opts = {})
{
    auto prog = frontend::parseOrDie(src);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    ir::Module mod = ir::lowerProgram(*prog, printed.map);
    std::string verr = ir::verifyModule(mod);
    EXPECT_EQ(verr, "") << ir::printModule(mod);
    return vm::execute(mod, opts);
}

int64_t
exitOf(const std::string &src)
{
    vm::ExecResult r = runSource(src);
    EXPECT_EQ(r.kind, vm::ExecResult::Kind::Clean) << r.str();
    return r.exitCode;
}

TEST(VM, ArithmeticAndConversions)
{
    EXPECT_EQ(exitOf("int main(void) { return 2 + 3 * 4; }"), 14);
    EXPECT_EQ(exitOf("int main(void) { return 7 / 2; }"), 3);
    EXPECT_EQ(exitOf("int main(void) { return -7 % 3; }"), -1);
    EXPECT_EQ(exitOf("int main(void) { return 1 << 5; }"), 32);
    EXPECT_EQ(exitOf("int main(void) { return -8 >> 1; }"), -4);
    EXPECT_EQ(exitOf("int main(void) { char c = 200; return c; }"),
              static_cast<int8_t>(200));
    EXPECT_EQ(exitOf("int main(void) { unsigned char c = 200; "
                     "return c; }"),
              200);
    // Unsigned comparison: 4000000000u > 1.
    EXPECT_EQ(exitOf("int main(void) { unsigned int u = 4000000000u; "
                     "return u > 1u; }"),
              1);
    // Mixed signed/unsigned comparison follows C: -1 converts to huge.
    EXPECT_EQ(exitOf("int main(void) { int a = -1; unsigned int b = 1u; "
                     "return a > b; }"),
              1);
}

TEST(VM, ShortCircuitIsLazy)
{
    // Division by zero on the unevaluated side must not trap.
    EXPECT_EQ(exitOf("int main(void) { int z = 0; int ok = 1; "
                     "return (z != 0) && (10 / z > 0) ? 7 : ok; }"),
              1);
    EXPECT_EQ(exitOf("int main(void) { int z = 0; "
                     "return (z == 0) || (10 / z > 0); }"),
              1);
}

TEST(VM, SelectIsLazy)
{
    EXPECT_EQ(exitOf("int main(void) { int z = 0; "
                     "return (z == 0) ? 5 : (10 / z); }"),
              5);
}

TEST(VM, ControlFlow)
{
    EXPECT_EQ(exitOf(R"(int main(void) {
    int s = 0;
    for (int i = 0; i < 10; i += 1) {
        if (i % 2 == 0) {
            s += i;
        }
    }
    return s;
}
)"),
              20);
    EXPECT_EQ(exitOf(R"(int main(void) {
    int i = 0;
    int n = 0;
    while (1) {
        i += 1;
        if (i > 5) {
            break;
        }
        if (i == 2) {
            continue;
        }
        n += i;
    }
    return n;
}
)"),
              13);
}

TEST(VM, ArraysPointersStructs)
{
    EXPECT_EQ(exitOf(R"(int a[5] = {1, 2, 3, 4, 5};
int main(void) {
    int *p = &a[1];
    p[2] = 40;
    return a[3] + *(p + 1) + a[0];
}
)"),
              44);
    EXPECT_EQ(exitOf(R"(struct S {
    int x;
    long y;
};
struct S s;
struct S t;
int main(void) {
    s.x = 11;
    s.y = 31l;
    t = s;
    return t.x + (int)t.y;
}
)"),
              42);
    // Pointer difference.
    EXPECT_EQ(exitOf(R"(int a[8];
int main(void) {
    int *p = &a[6];
    int *q = &a[2];
    return (int)(p - q);
}
)"),
              4);
}

TEST(VM, GlobalInitializersAndRelocations)
{
    EXPECT_EQ(exitOf(R"(int g = 5;
int a[3] = {10, 20, 30};
int *p = &a[1];
int **pp = &p;
int main(void) {
    **pp = g;
    return a[1];
}
)"),
              5);
}

TEST(VM, FunctionsAndRecursion)
{
    EXPECT_EQ(exitOf(R"(int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}
int main(void) {
    return fib(10);
}
)"),
              55);
}

TEST(VM, MallocFreeAndChecksum)
{
    vm::ExecResult r = runSource(R"(int main(void) {
    long *p = (long*)__malloc(16l);
    p[0] = 7l;
    p[1] = 9l;
    __checksum(p[0] + p[1]);
    __free((char*)p);
    return 0;
}
)");
    EXPECT_EQ(r.kind, vm::ExecResult::Kind::Clean);
    EXPECT_NE(r.checksum, 0u);
}

TEST(VM, HardwareTraps)
{
    // Unchecked division by zero traps like SIGFPE.
    vm::ExecResult r1 = runSource(
        "int main(void) { int z = 0; return 5 / z; }");
    EXPECT_EQ(r1.kind, vm::ExecResult::Kind::Trap);
    EXPECT_EQ(r1.trap, vm::TrapKind::DivByZero);

    // Null dereference traps like SIGSEGV.
    vm::ExecResult r2 = runSource(
        "int main(void) { int *p = 0; return *p; }");
    EXPECT_EQ(r2.kind, vm::ExecResult::Kind::Trap);
    EXPECT_EQ(r2.trap, vm::TrapKind::Segfault);

    // Small OOB inside a mapped segment is silent (like hardware).
    vm::ExecResult r3 = runSource(R"(int a[4];
int b[4];
int main(void) {
    int *p = &a[0];
    return p[5] * 0;
}
)");
    EXPECT_EQ(r3.kind, vm::ExecResult::Kind::Clean);
}

TEST(VM, InfiniteLoopTimesOut)
{
    vm::ExecOptions opts;
    opts.stepLimit = 10000;
    vm::ExecResult r = runSource("int main(void) { while (1) { } "
                                 "return 0; }",
                                 opts);
    EXPECT_EQ(r.kind, vm::ExecResult::Kind::Timeout);
}

TEST(VM, UninitializedMemoryIsDeterministic)
{
    int64_t a = exitOf("int main(void) { int x; return x * 0 + 3; }");
    int64_t b = exitOf("int main(void) { int x; return x * 0 + 3; }");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, 3);
}

//===--------------------------------------------------------------===//
// Ground-truth UB detection (the reference checker used by Table 4)
//===--------------------------------------------------------------===//

vm::ExecResult
runGroundTruth(const std::string &src)
{
    vm::ExecOptions opts;
    opts.groundTruth = true;
    return runSource(src, opts);
}

TEST(GroundTruth, DetectsStackBufferOverflow)
{
    vm::ExecResult r = runGroundTruth(R"(int main(void) {
    int a[4];
    int i = 4;
    a[0] = 1;
    return a[i];
}
)");
    ASSERT_EQ(r.kind, vm::ExecResult::Kind::Report) << r.str();
    EXPECT_EQ(r.report, vm::ReportKind::StackBufferOverflow);
}

TEST(GroundTruth, DetectsGlobalBufferOverflowViaPointer)
{
    vm::ExecResult r = runGroundTruth(R"(int b[2];
int *d = &b[0];
int k = 0;
int main(void) {
    k = 2;
    return *(d + k);
}
)");
    ASSERT_EQ(r.kind, vm::ExecResult::Kind::Report) << r.str();
    EXPECT_EQ(r.report, vm::ReportKind::GlobalBufferOverflow);
}

TEST(GroundTruth, DetectsUseAfterFree)
{
    vm::ExecResult r = runGroundTruth(R"(int main(void) {
    int *p = (int*)__malloc(8l);
    *p = 1;
    __free((char*)p);
    return *p;
}
)");
    ASSERT_EQ(r.kind, vm::ExecResult::Kind::Report) << r.str();
    EXPECT_EQ(r.report, vm::ReportKind::HeapUseAfterFree);
}

TEST(GroundTruth, DetectsSignedOverflowAndShiftAndDiv)
{
    vm::ExecResult r1 = runGroundTruth(R"(int main(void) {
    int x = 2147483647;
    int y = 1;
    return x + y;
}
)");
    ASSERT_EQ(r1.kind, vm::ExecResult::Kind::Report) << r1.str();
    EXPECT_EQ(r1.report, vm::ReportKind::SignedIntegerOverflow);

    vm::ExecResult r2 = runGroundTruth(R"(int main(void) {
    int x = 1;
    int y = 40;
    return x << y;
}
)");
    ASSERT_EQ(r2.kind, vm::ExecResult::Kind::Report) << r2.str();
    EXPECT_EQ(r2.report, vm::ReportKind::ShiftOutOfBounds);

    vm::ExecResult r3 = runGroundTruth(R"(int main(void) {
    int z = 0;
    return 7 / z;
}
)");
    ASSERT_EQ(r3.kind, vm::ExecResult::Kind::Report) << r3.str();
    EXPECT_EQ(r3.report, vm::ReportKind::DivByZero);
}

TEST(GroundTruth, DetectsUninitUse)
{
    vm::ExecResult r = runGroundTruth(R"(int main(void) {
    int x;
    if (x > 0) {
        return 1;
    }
    return 0;
}
)");
    ASSERT_EQ(r.kind, vm::ExecResult::Kind::Report) << r.str();
    EXPECT_EQ(r.report, vm::ReportKind::UninitValue);
}

TEST(GroundTruth, CleanProgramStaysClean)
{
    vm::ExecResult r = runGroundTruth(R"(int a[4] = {1, 2, 3, 4};
int main(void) {
    int s = 0;
    for (int i = 0; i < 4; i += 1) {
        s += a[i];
    }
    __checksum((long)s);
    return s;
}
)");
    EXPECT_EQ(r.kind, vm::ExecResult::Kind::Clean) << r.str();
    EXPECT_EQ(r.exitCode, 10);
}

//===--------------------------------------------------------------===//
// Tracing (the debugger of Algorithm 2)
//===--------------------------------------------------------------===//

TEST(Trace, RecordsExecutedSitesInOrder)
{
    vm::ExecOptions opts;
    opts.recordTrace = true;
    vm::ExecResult r = runSource(R"(int g = 0;
int main(void) {
    g = 1;
    g = 2;
    return g;
}
)",
                                 opts);
    ASSERT_EQ(r.kind, vm::ExecResult::Kind::Clean);
    ASSERT_FALSE(r.trace.empty());
    // Both assignment lines appear, in order.
    bool saw3 = false, saw4 = false;
    int32_t line3_pos = -1, line4_pos = -1;
    for (size_t i = 0; i < r.trace.size(); i++) {
        if (r.trace[i].line == 3 && !saw3) {
            saw3 = true;
            line3_pos = static_cast<int32_t>(i);
        }
        if (r.trace[i].line == 4 && !saw4) {
            saw4 = true;
            line4_pos = static_cast<int32_t>(i);
        }
    }
    EXPECT_TRUE(saw3);
    EXPECT_TRUE(saw4);
    EXPECT_LT(line3_pos, line4_pos);
}

//===--------------------------------------------------------------===//
// Machine reuse (the batched execution engine)
//===--------------------------------------------------------------===//

ir::Module
lowerSource(const std::string &src)
{
    auto prog = frontend::parseOrDie(src);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    ir::Module mod = ir::lowerProgram(*prog, printed.map);
    EXPECT_EQ(ir::verifyModule(mod), "");
    return mod;
}

void
expectSameResult(const vm::ExecResult &fresh, const vm::ExecResult &reused)
{
    EXPECT_EQ(fresh.kind, reused.kind)
        << fresh.str() << " vs " << reused.str();
    EXPECT_EQ(fresh.report, reused.report);
    EXPECT_EQ(fresh.reportLoc, reused.reportLoc);
    EXPECT_EQ(fresh.trap, reused.trap);
    EXPECT_EQ(fresh.trapLoc, reused.trapLoc);
    EXPECT_EQ(fresh.exitCode, reused.exitCode);
    EXPECT_EQ(fresh.checksum, reused.checksum);
    EXPECT_EQ(fresh.steps, reused.steps);
    EXPECT_EQ(fresh.trace, reused.trace);
}

/** reset() + re-run must be bit-identical to a fresh vm::execute, for
 *  every result field, across every outcome kind. */
void
expectReuseIdentical(const std::string &src, vm::ExecOptions opts = {})
{
    ir::Module mod = lowerSource(src);
    vm::ExecResult fresh = vm::execute(mod, opts);
    vm::Machine m;
    expectSameResult(fresh, m.run(mod, opts));
    m.reset();
    expectSameResult(fresh, m.run(mod, opts));
    // And without the explicit reset (run() re-arms on demand).
    expectSameResult(fresh, m.run(mod, opts));
}

TEST(MachineReuse, CleanProgramWithChecksum)
{
    expectReuseIdentical(R"(int main(void) {
    long *p = (long*)__malloc(16l);
    p[0] = 7l;
    p[1] = 9l;
    __checksum(p[0] + p[1]);
    __free((char*)p);
    return 3;
}
)");
}

TEST(MachineReuse, TrapProgram)
{
    expectReuseIdentical(
        "int main(void) { int z = 0; return 5 / z; }");
}

TEST(MachineReuse, TimeoutProgram)
{
    vm::ExecOptions opts;
    opts.stepLimit = 5000;
    expectReuseIdentical("int main(void) { while (1) { } return 0; }",
                         opts);
}

TEST(MachineReuse, GroundTruthReportProgram)
{
    vm::ExecOptions opts;
    opts.groundTruth = true;
    expectReuseIdentical(R"(int main(void) {
    int a[4];
    int i = 4;
    a[0] = 1;
    return a[i];
}
)",
                         opts);
}

TEST(MachineReuse, TraceProgram)
{
    vm::ExecOptions opts;
    opts.recordTrace = true;
    expectReuseIdentical(R"(int g = 0;
int main(void) {
    g = 1;
    g = 2;
    return g;
}
)",
                         opts);
}

TEST(MachineReuse, SilentOutOfBoundsWriteDoesNotLeakAcrossRuns)
{
    // The writer's OOB store lands inside the mapped stack segment
    // beyond its frame layout — exactly the bytes a lazy reset would
    // miss. The reader then loads that address uninitialized; on a
    // properly reset machine it must see the deterministic 0xAA fill,
    // not the 77 the previous run planted there.
    ir::Module writer = lowerSource(R"(int main(void) {
    int a[4];
    int i = 9;
    a[i] = 77;
    return a[i];
}
)");
    ir::Module reader = lowerSource(R"(int main(void) {
    int a[4];
    int i = 9;
    return a[i];
}
)");
    vm::ExecResult freshWriter = vm::execute(writer);
    vm::ExecResult freshReader = vm::execute(reader);
    ASSERT_EQ(freshWriter.exitCode, 77);
    ASSERT_NE(freshReader.exitCode, 77); // 0xAA fill, not the plant

    vm::Machine m;
    expectSameResult(freshWriter, m.run(writer));
    expectSameResult(freshReader, m.run(reader));
    expectSameResult(freshWriter, m.run(writer));
    expectSameResult(freshReader, m.run(reader));
}

TEST(MachineReuse, FarEndOfTheStackArenaBehavesLikeAFilledOne)
{
    // a[100000] lies ~400 KiB above main's frame: far past what any
    // run's frames touch, still inside the 1 MiB stack arena. Its
    // bytes must read as the 0xAA fill (-1431655766 as an int) however
    // the machine got there; a[300000] lies past the arena and traps.
    ir::Module reader = lowerSource(R"(int main(void) {
    int a[4];
    int i = 100000;
    return a[i] == -1431655766;
}
)");
    ir::Module writer = lowerSource(R"(int main(void) {
    int a[4];
    int i = 100000;
    a[i] = 77;
    return a[i];
}
)");
    ir::Module beyond = lowerSource(R"(int main(void) {
    int a[4];
    int i = 300000;
    return a[i];
}
)");
    auto expectExit = [](const vm::ExecResult &r, int64_t code) {
        EXPECT_EQ(r.kind, vm::ExecResult::Kind::Clean) << r.str();
        EXPECT_EQ(r.exitCode, code) << r.str();
    };
    auto expectSegfault = [](const vm::ExecResult &r) {
        EXPECT_EQ(r.kind, vm::ExecResult::Kind::Trap) << r.str();
        EXPECT_EQ(r.trap, vm::TrapKind::Segfault) << r.str();
    };

    expectExit(vm::execute(reader), 1);
    expectExit(vm::Machine().runReference(reader), 1);

    vm::Machine m;
    expectSegfault(m.run(beyond));
    expectExit(m.run(reader), 1);
    expectExit(m.run(writer), 77);
    expectExit(m.run(reader), 1);
    expectExit(m.run(writer), 77);
    expectExit(m.runReference(reader), 1);
    expectSegfault(m.run(beyond));
    expectSegfault(m.runReference(beyond));
}

TEST(MachineReuse, UninitReadIsDeterministicAcrossRuns)
{
    expectReuseIdentical("int main(void) { int x; return x * 0 + 3; }");
}

TEST(MachineReuse, InterleavedModulesStayIndependent)
{
    ir::Module a = lowerSource(
        "int main(void) { int x = 6; __checksum((long)x); return x; }");
    ir::Module b = lowerSource(R"(int main(void) {
    int v[3] = {1, 2, 3};
    return v[0] + v[1] + v[2];
}
)");
    vm::ExecResult fa = vm::execute(a);
    vm::ExecResult fb = vm::execute(b);
    vm::Machine m;
    expectSameResult(fa, m.run(a));
    expectSameResult(fb, m.run(b));
    expectSameResult(fa, m.run(a));
    expectSameResult(fb, m.run(b));
    EXPECT_EQ(m.stats().machinesBuilt, 1u);
    EXPECT_EQ(m.stats().executions, 4u);
    EXPECT_EQ(m.stats().resets, 3u);
    // Interleaving does not thrash the code cache: each distinct
    // binary is flattened once, the re-runs hit.
    EXPECT_EQ(m.stats().translations, 2u);
    EXPECT_EQ(m.stats().translationHits, 2u);
}

TEST(MachineReuse, OptionsChangeBetweenRuns)
{
    // The same machine serves a silent run, then a ground-truth run,
    // then a traced run — the differential runner's exact sequence.
    ir::Module mod = lowerSource(R"(int main(void) {
    int a[4];
    int i = 4;
    a[0] = 1;
    return a[i] * 0;
}
)");
    vm::ExecOptions gt;
    gt.groundTruth = true;
    vm::ExecOptions tr;
    tr.recordTrace = true;

    vm::Machine m;
    expectSameResult(vm::execute(mod), m.run(mod));
    expectSameResult(vm::execute(mod, gt), m.run(mod, gt));
    expectSameResult(vm::execute(mod, tr), m.run(mod, tr));
    expectSameResult(vm::execute(mod), m.run(mod));
}

TEST(MachineReuse, StatsCountWork)
{
    ir::Module mod = lowerSource("int main(void) { return 1; }");
    vm::Machine m;
    EXPECT_EQ(m.stats().machinesBuilt, 1u);
    EXPECT_EQ(m.stats().executions, 0u);
    m.run(mod);
    m.run(mod);
    m.noteDedupSkip();
    EXPECT_EQ(m.stats().executions, 2u);
    EXPECT_EQ(m.stats().resets, 1u);
    EXPECT_EQ(m.stats().dedupSkips, 1u);
    EXPECT_EQ(m.stats().translations, 1u);
    EXPECT_EQ(m.stats().translationHits, 1u);
}

TEST(MachineReuse, ReferenceInterpreterAgreesAfterBytecodeRuns)
{
    // The two interpreters share the machine's arenas; alternating
    // between them must not perturb either (reset restores the same
    // construction-time state for both).
    ir::Module mod = lowerSource(R"(int main(void) {
    int a[4];
    int i = 4;
    a[0] = 1;
    return a[i] * 0;
}
)");
    vm::Machine m;
    vm::ExecResult fast = m.run(mod);
    vm::ExecResult ref = m.runReference(mod);
    expectSameResult(fast, ref);
    expectSameResult(fast, m.run(mod));
}

//===--------------------------------------------------------------===//
// Execution keys (what lets a batch skip identical binaries)
//===--------------------------------------------------------------===//

/** Both identities agree that @p a and @p b are the same binary, and
 *  each BinaryKey's length is its executionKey's size. */
void
expectSameKeys(const ir::Module &a, const ir::Module &b)
{
    EXPECT_EQ(ir::executionKey(a), ir::executionKey(b));
    EXPECT_EQ(ir::binaryKey(a), ir::binaryKey(b));
    EXPECT_EQ(ir::binaryKey(a).len, ir::executionKey(a).size());
}

/** Both identities tell @p a and @p b apart. */
void
expectDifferentKeys(const ir::Module &a, const ir::Module &b)
{
    EXPECT_NE(ir::executionKey(a), ir::executionKey(b));
    EXPECT_NE(ir::binaryKey(a), ir::binaryKey(b));
    EXPECT_EQ(ir::binaryKey(a).len, ir::executionKey(a).size());
    EXPECT_EQ(ir::binaryKey(b).len, ir::executionKey(b).size());
}

TEST(ExecutionKey, IdenticalModulesShareAKey)
{
    ir::Module a = lowerSource("int main(void) { return 4; }");
    ir::Module b = lowerSource("int main(void) { return 4; }");
    expectSameKeys(a, b);
}

TEST(ExecutionKey, BehavioralFlagsChangeTheKey)
{
    // printModule ignores these flags, but the VM does not — the key
    // must see them or a batch would copy results across binaries that
    // behave differently.
    ir::Module a = lowerSource("int main(void) { int x; return x * 0; }");
    ir::Module b = lowerSource("int main(void) { int x; return x * 0; }");
    b.msan.enabled = true;
    expectDifferentKeys(a, b);
    ir::Module c = lowerSource("int main(void) { int x; return x * 0; }");
    c.asanHeap = true;
    expectDifferentKeys(a, c);
}

TEST(ExecutionKey, GlobalInitBytesChangeTheKey)
{
    ir::Module a = lowerSource("int g = 1;\nint main(void) { return g; }");
    ir::Module b = lowerSource("int g = 2;\nint main(void) { return g; }");
    expectDifferentKeys(a, b);
}

TEST(ExecutionKey, LastByteOfAPartialInitWordChangesTheKey)
{
    // binaryKey reads init bytes 8 at a time; the 1-7 bytes past the
    // last whole word go through the tail path and must still count.
    for (size_t size : {1u, 7u, 9u, 13u, 15u}) {
        ir::Module a = lowerSource("int main(void) { return 0; }");
        ir::GlobalObject g;
        g.size = size;
        g.init.assign(size, 0x5a);
        a.globals.push_back(g);
        ir::Module b = a;
        b.globals.back().init.back() ^= 1;
        SCOPED_TRACE(size);
        expectDifferentKeys(a, b);
        expectSameKeys(a, ir::Module(a));
    }
}

//===--------------------------------------------------------------===//
// Module verifier (the post-compile structural check)
//===--------------------------------------------------------------===//

TEST(VerifyModule, RejectsOneMalformedModulePerRule)
{
    // A well-formed base whose main has a call, a frame object and a
    // global, so every rule has an instruction in main to break, and
    // two blocks (the return parks lowering on a fresh one), so every
    // range rule has a boundary to break.
    const ir::Module base = lowerSource(R"(int g;
int f(int x) { return x; }
int main(void) { int y = f(g); return y; }
)");
    ASSERT_EQ(ir::verifyModule(base), "");
    ASSERT_EQ(base.functions.at(base.mainIndex).blocks.size(), 2u);

    auto mainOf = [](ir::Module &m) -> ir::Function & {
        return m.functions.at(m.mainIndex);
    };
    /** main's first instruction of opcode @p op. */
    auto inst = [&](ir::Module &m, ir::Opcode op) -> ir::Inst & {
        for (ir::Inst &i : mainOf(m).insts)
            if (i.op == op)
                return i;
        throw std::logic_error(std::string("no ") + ir::opcodeName(op) +
                               " in main");
    };
    auto reg = [](uint32_t r) { return ir::Value::makeReg(r); };
    /** main's block @p b. */
    auto block = [&](ir::Module &m, size_t b) -> ir::BasicBlock & {
        return mainOf(m).blocks.at(b);
    };
    /** Give main's call one more argument, @p v: its slice moves to
     *  the end of main's argument pool. */
    auto addArg = [&](ir::Module &m, ir::Value v) {
        ir::Function &f = mainOf(m);
        ir::Inst &call = inst(m, ir::Opcode::Call);
        std::vector<ir::Value> args(f.argsOf(call).begin(),
                                    f.argsOf(call).end());
        args.push_back(v);
        call.argBegin = static_cast<uint32_t>(f.callArgs.size());
        call.argCount = static_cast<uint32_t>(args.size());
        f.callArgs.insert(f.callArgs.end(), args.begin(), args.end());
    };

    struct Case
    {
        const char *rule;
        std::function<void(ir::Module &)> breakIt;
    };
    const std::vector<Case> cases = {
        {"no blocks", [&](ir::Module &m) { mainOf(m).blocks.clear(); }},
        // The block ranges must tile the body.
        {"first block not at 0",
         [&](ir::Module &m) {
             block(m, 0).begin++;
             block(m, 0).count--;
         }},
        {"gap before bb1",
         [&](ir::Module &m) {
             block(m, 1).begin++;
             block(m, 1).count--;
         }},
        {"overlap at bb1",
         [&](ir::Module &m) {
             block(m, 1).begin--;
             block(m, 1).count++;
         }},
        {"bb1 range past the end of the body",
         [&](ir::Module &m) { block(m, 1).count++; }},
        {"instructions after the last block",
         [&](ir::Module &m) { block(m, 1).count--; }},
        {"empty block bb2",
         [&](ir::Module &m) {
             ir::Function &f = mainOf(m);
             f.blocks.push_back(
                 {static_cast<uint32_t>(f.insts.size()), 0});
         }},
        // Tiled, but bb0's terminator now opens bb1.
        {"terminator placement in bb0",
         [&](ir::Module &m) {
             block(m, 0).count--;
             block(m, 1).begin--;
             block(m, 1).count++;
         }},
        {"branch target out of range",
         [&](ir::Module &m) {
             ir::Function &f = mainOf(m);
             ir::Inst br;
             br.op = ir::Opcode::Br;
             br.targets[0] = static_cast<uint32_t>(f.blocks.size());
             f.instsOf(f.blocks[0]).back() = br;
         }},
        {"register out of range",
         [&](ir::Module &m) {
             inst(m, ir::Opcode::Ret).a = reg(mainOf(m).numRegs);
         }},
        {"register out of range",
         [&](ir::Module &m) {
             inst(m, ir::Opcode::Call).dst = mainOf(m).numRegs;
         }},
        {"register out of range",
         [&](ir::Module &m) { addArg(m, reg(mainOf(m).numRegs + 5)); }},
        {"call arguments out of range",
         [&](ir::Module &m) { inst(m, ir::Opcode::Call).argCount++; }},
        {"callee out of range",
         [&](ir::Module &m) {
             inst(m, ir::Opcode::Call).callee =
                 static_cast<uint32_t>(m.functions.size());
         }},
        {"frame object out of range",
         [&](ir::Module &m) {
             inst(m, ir::Opcode::FrameAddr).object =
                 static_cast<uint32_t>(mainOf(m).frame.size());
         }},
        {"global out of range",
         [&](ir::Module &m) {
             inst(m, ir::Opcode::GlobalAddr).object =
                 static_cast<uint32_t>(m.globals.size());
         }},
        {"use of undefined register",
         [&](ir::Module &m) {
             inst(m, ir::Opcode::Ret).a = reg(mainOf(m).newReg());
         }},
        {"use of undefined arg register",
         [&](ir::Module &m) { addArg(m, reg(mainOf(m).newReg())); }},
    };
    for (const Case &c : cases) {
        ir::Module m = base;
        c.breakIt(m);
        std::string err = ir::verifyModule(m);
        EXPECT_NE(err.find(c.rule), std::string::npos)
            << "want \"" << c.rule << "\", got \"" << err << "\"\n"
            << ir::printModule(m);
    }
}

} // namespace
} // namespace ubfuzz
