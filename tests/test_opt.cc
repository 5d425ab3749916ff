/**
 * @file
 * Optimizer pass tests: each pass individually on crafted programs,
 * pipeline behaviour per level/vendor, and UB-elimination semantics
 * (the "optimizers assume no UB" behaviour of §1 Challenge 2).
 */

#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "compiler/compiler.h"
#include "frontend/parser.h"
#include "generator/generator.h"
#include "ir/lowering.h"
#include "ir/reg_table.h"
#include "opt/pass.h"
#include "support/rng.h"
#include "ubgen/ubgen.h"
#include "vm/vm.h"

namespace ubfuzz::opt {
namespace {

ir::Module
lower(const std::string &src)
{
    auto prog = frontend::parseOrDie(src);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    return ir::lowerProgram(*prog, printed.map);
}

size_t
countOp(const ir::Module &m, ir::Opcode op)
{
    size_t n = 0;
    for (const auto &f : m.functions)
        for (const auto &inst : f.insts)
            n += inst.op == op ? 1 : 0;
    return n;
}

size_t
countBin(const ir::Module &m)
{
    return countOp(m, ir::Opcode::Bin);
}

TEST(ConstFold, FoldsLiteralArithmetic)
{
    ir::Module m = lower("int main(void) { return 2 + 3 * 4; }");
    size_t before = countBin(m);
    ASSERT_GT(before, 0u);
    auto fold = createPass(PassKind::ConstFold);
    auto dce = createPass(PassKind::DCE);
    for (auto &f : m.functions) {
        fold->run(f);
        fold->run(f);
        dce->run(f);
    }
    EXPECT_EQ(countBin(m), 0u);
    EXPECT_EQ(vm::execute(m).exitCode, 14);
}

TEST(ConstFold, NeverFoldsTrappingDivision)
{
    ir::Module m = lower("int main(void) { return 7 / 0; }");
    auto fold = createPass(PassKind::ConstFold);
    for (auto &f : m.functions)
        fold->run(f);
    // The division must survive folding and still trap at runtime.
    EXPECT_GT(countBin(m), 0u);
    EXPECT_EQ(vm::execute(m).kind, vm::ExecResult::Kind::Trap);
}

TEST(ConstFold, FoldsConstantBranches)
{
    ir::Module m = lower(R"(int main(void) {
    if (0) {
        return 1;
    }
    return 2;
}
)");
    size_t cond_before = countOp(m, ir::Opcode::CondBr);
    ASSERT_GT(cond_before, 0u);
    auto fold = createPass(PassKind::ConstFold);
    for (auto &f : m.functions)
        fold->run(f);
    EXPECT_EQ(countOp(m, ir::Opcode::CondBr), 0u);
    EXPECT_EQ(vm::execute(m).exitCode, 2);
}

TEST(Peephole, LlvmReassociationFoldsConstants)
{
    // ((x + c1) + c2): LLVM folds c1+c2; GCC's flavour does not.
    const char *src = R"(int x = 5;
int main(void) {
    return (x + 3) + 4;
}
)";
    ir::Module mllvm = lower(src);
    auto peep_llvm = createPass(PassKind::PeepholeLLVM);
    bool changed = false;
    for (auto &f : mllvm.functions)
        changed |= peep_llvm->run(f);
    EXPECT_TRUE(changed);
    EXPECT_EQ(vm::execute(mllvm).exitCode, 12);

    ir::Module mgcc = lower(src);
    auto peep_gcc = createPass(PassKind::PeepholeGCC);
    for (auto &f : mgcc.functions)
        peep_gcc->run(f);
    EXPECT_EQ(vm::execute(mgcc).exitCode, 12);
}

TEST(Peephole, MulByZeroKillsValue)
{
    ir::Module m = lower(R"(int x = 9;
int main(void) {
    return x * 0;
}
)");
    auto peep = createPass(PassKind::PeepholeGCC);
    auto dce = createPass(PassKind::DCE);
    bool changed = false;
    for (auto &f : m.functions) {
        changed |= peep->run(f);
        dce->run(f);
    }
    EXPECT_TRUE(changed);
    // The load of x is dead after x*0 -> 0.
    EXPECT_EQ(countOp(m, ir::Opcode::Load), 0u);
    EXPECT_EQ(vm::execute(m).exitCode, 0);
}

TEST(StoreForward, ForwardsStoresAndElidesLoads)
{
    ir::Module m = lower(R"(int main(void) {
    int x = 41;
    int y = x + 1;
    return y;
}
)");
    size_t loads_before = countOp(m, ir::Opcode::Load);
    auto fwd = createPass(PassKind::StoreForward);
    auto fold = createPass(PassKind::ConstFold);
    auto dce = createPass(PassKind::DCE);
    for (auto &f : m.functions) {
        fwd->run(f);
        fold->run(f);
        dce->run(f);
    }
    EXPECT_LT(countOp(m, ir::Opcode::Load), loads_before);
    EXPECT_EQ(vm::execute(m).exitCode, 42);
}

TEST(DSE, RemovesDeadOOBStore)
{
    // The Figure 3 transform: a write-only local array's OOB store
    // disappears — and with it, the UB.
    ir::Module m = lower(R"(int main(void) {
    int d[2];
    int i = 2;
    d[i] = 1;
    return 0;
}
)");
    vm::ExecOptions gt;
    gt.groundTruth = true;
    EXPECT_EQ(vm::execute(m, gt).kind, vm::ExecResult::Kind::Report);

    auto dse = createPass(PassKind::DSE);
    bool changed = false;
    for (auto &f : m.functions)
        changed |= dse->run(f);
    EXPECT_TRUE(changed);
    EXPECT_EQ(vm::execute(m, gt).kind, vm::ExecResult::Kind::Clean);
}

TEST(DSE, KeepsObservableStores)
{
    ir::Module m = lower(R"(int g[2];
int main(void) {
    g[0] = 7;
    __checksum((long)g[0]);
    return g[0];
}
)");
    auto dse = createPass(PassKind::DSE);
    for (auto &f : m.functions)
        dse->run(f);
    EXPECT_EQ(vm::execute(m).exitCode, 7);
}

TEST(SimplifyCFG, PrunesUnreachableUB)
{
    ir::Module m = lower(R"(int z = 0;
int main(void) {
    if (1) {
        return 3;
    }
    return 5 / z;
}
)");
    auto fold = createPass(PassKind::ConstFold);
    auto simp = createPass(PassKind::SimplifyCFG);
    for (auto &f : m.functions) {
        fold->run(f);
        simp->run(f);
    }
    // The division is unreachable and must be gone.
    bool has_div = false;
    for (const auto &f : m.functions)
        for (const auto &inst : f.insts)
            has_div |= inst.op == ir::Opcode::Bin &&
                       inst.binOp == ast::BinaryOp::Div;
    EXPECT_FALSE(has_div);
    EXPECT_EQ(vm::execute(m).exitCode, 3);
}

TEST(LifetimeHoist, RemovesLoopLocalMarkers)
{
    ir::Module m = lower(R"(int g = 0;
int *p = &g;
int main(void) {
    for (int i = 0; i < 3; i += 1) {
        int inner = i;
        p = &inner;
    }
    return *p;
}
)");
    size_t markers_before = countOp(m, ir::Opcode::LifetimeStart) +
                            countOp(m, ir::Opcode::LifetimeEnd);
    ASSERT_GT(markers_before, 0u);
    auto hoist = createPass(PassKind::LifetimeHoist);
    bool changed = false;
    for (auto &f : m.functions)
        changed |= hoist->run(f);
    EXPECT_TRUE(changed);
    size_t markers_after = countOp(m, ir::Opcode::LifetimeStart) +
                           countOp(m, ir::Opcode::LifetimeEnd);
    EXPECT_LT(markers_after, markers_before);
}

//===--------------------------------------------------------------===//
// Scratch resets: hand-built IR
//===--------------------------------------------------------------===//

using ir::Opcode;
using ir::Value;

Value
reg(uint32_t r)
{
    return Value::makeReg(r);
}

Value
imm(uint64_t x)
{
    return Value::makeImm(x);
}

ir::Inst
inst(Opcode op, uint32_t dst = 0, Value a = {}, Value b = {},
     uint64_t immediate = 0)
{
    ir::Inst i;
    i.op = op;
    i.dst = dst;
    i.a = a;
    i.b = b;
    i.imm = immediate;
    if (op == Opcode::Load)
        i.kind = ast::ScalarKind::S32;
    return i;
}

ir::Inst
br(uint32_t target)
{
    ir::Inst i = inst(Opcode::Br);
    i.targets[0] = target;
    return i;
}

/** A void function with one 8-byte frame object and @p blocks. */
ir::Function
makeFunction(std::vector<std::vector<ir::Inst>> blocks, uint32_t numRegs)
{
    ir::Function f;
    f.name = "f" + std::to_string(numRegs);
    f.frame.push_back({"slot", 8, 8, false, 0, 0});
    for (const auto &insts : blocks)
        f.appendBlock(insts);
    f.numRegs = numRegs;
    return f;
}

ir::Module
makeModule(std::vector<ir::Function> functions)
{
    ir::Module m;
    m.functions = std::move(functions);
    m.mainIndex = 0;
    return m;
}

/** Run one pass object over every function, in order, as runPasses
 *  does: the object's scratch carries over from function to function. */
void
runOne(PassKind kind, ir::Module &m)
{
    auto pass = createPass(kind);
    for (ir::Function &f : m.functions)
        pass->run(f);
}

/**
 * The passes keep their per-block facts in tables that outlive the
 * block (and the function). Each row plants a fact in one block or
 * function and checks that the next block or function, whose register
 * ids overlap, does not see it.
 */
TEST(Opt, PerBlockFactsStayInTheirBlock)
{
    const Value none;
    struct Case
    {
        const char *name;
        PassKind pass;
        ir::Module m;
        std::function<void(const ir::Module &)> check;
    };
    std::vector<Case> cases;
    cases.push_back(
        {"constfold: a block-1 use of a block-0 Const stays a register",
         PassKind::ConstFold,
         makeModule({makeFunction(
             {{inst(Opcode::Const, 1, none, none, 5), br(1)},
              {inst(Opcode::Checksum, 0, reg(1)), inst(Opcode::Ret)}},
             2)}),
         [](const ir::Module &m) {
             const ir::Function &f = m.functions[0];
             const ir::Inst &use = f.instsOf(f.blocks[1])[0];
             EXPECT_TRUE(use.a.isReg());
             EXPECT_EQ(use.a.reg, 1u);
         }});
    cases.push_back(
        {"cse: identical Bins in two blocks are not merged",
         PassKind::CSE,
         makeModule({makeFunction(
             {{inst(Opcode::Bin, 1, imm(2), imm(3)),
               inst(Opcode::Checksum, 0, reg(1)), br(1)},
              {inst(Opcode::Bin, 2, imm(2), imm(3)),
               inst(Opcode::Checksum, 0, reg(2)), inst(Opcode::Ret)}},
             3)}),
         [](const ir::Module &m) {
             const ir::Function &f = m.functions[0];
             const std::span<const ir::Inst> bb = f.instsOf(f.blocks[1]);
             EXPECT_EQ(bb[0].op, Opcode::Bin);
             EXPECT_EQ(bb[1].a.reg, 2u);
         }});
    cases.push_back(
        {"peephole: a block-1 use of a block-0 Bin is not reassociated",
         PassKind::PeepholeLLVM,
         makeModule({makeFunction(
             {{inst(Opcode::FrameAddr, 2),
               inst(Opcode::Load, 1, reg(2), none, 4),
               inst(Opcode::Bin, 3, reg(1), imm(3)), br(1)},
              {inst(Opcode::Bin, 4, reg(3), imm(4)),
               inst(Opcode::Checksum, 0, reg(4)),
               inst(Opcode::Bin, 5, reg(4), imm(5)),
               inst(Opcode::Checksum, 0, reg(5)), inst(Opcode::Ret)}},
             6)}),
         [](const ir::Module &m) {
             // r3 has no definition in block 1 (its block-0 index
             // would name r5's Bin there).
             const ir::Function &f = m.functions[0];
             const ir::Inst &add = f.instsOf(f.blocks[1])[0];
             EXPECT_EQ(add.a.reg, 3u);
             EXPECT_EQ(add.b.imm, 4u);
         }});
    cases.push_back(
        {"storeforward: a block-0 store and address stay in block 0",
         PassKind::StoreForward,
         makeModule({makeFunction(
             {{inst(Opcode::FrameAddr, 1),
               inst(Opcode::Store, 0, reg(1), imm(42), 4), br(1)},
              {inst(Opcode::FrameAddr, 2),
               inst(Opcode::Load, 3, reg(2), none, 4),
               inst(Opcode::Store, 0, reg(1), imm(7), 4),
               inst(Opcode::Load, 4, reg(1), none, 4),
               inst(Opcode::Checksum, 0, reg(3)),
               inst(Opcode::Checksum, 0, reg(4)), inst(Opcode::Ret)}},
             5)}),
         [](const ir::Module &m) {
             // Block 1 cannot resolve r1, so neither load forwards.
             const ir::Function &f = m.functions[0];
             const std::span<const ir::Inst> bb = f.instsOf(f.blocks[1]);
             EXPECT_EQ(bb[1].op, Opcode::Load);
             EXPECT_EQ(bb[3].op, Opcode::Load);
         }});
    cases.push_back(
        {"dce: function 0's uses do not keep function 1's r1 alive",
         PassKind::DCE,
         makeModule({makeFunction({{inst(Opcode::Const, 1, none, none, 5),
                                    inst(Opcode::Checksum, 0, reg(1)),
                                    inst(Opcode::Ret)}},
                                  2),
                     makeFunction({{inst(Opcode::Const, 1, none, none, 9),
                                    inst(Opcode::Ret)}},
                                  2)}),
         [](const ir::Module &m) {
             EXPECT_EQ(m.functions[0].blocks[0].count, 3u);
             EXPECT_EQ(m.functions[1].blocks[0].count, 1u);
         }});
    for (Case &c : cases) {
        SCOPED_TRACE(c.name);
        runOne(c.pass, c.m);
        c.check(c.m);
    }

    // Every pass: function 1 comes out the same whether or not the
    // pass object ran on function 0 first. Function 0 defines a Const,
    // a Bin and an address under ids that function 1 reuses for a
    // Load, an identical Bin and an unused Const.
    auto f0 = [&] {
        return makeFunction(
            {{inst(Opcode::FrameAddr, 1),
              inst(Opcode::Const, 2, none, none, 5),
              inst(Opcode::Store, 0, reg(1), reg(2), 4),
              inst(Opcode::Bin, 3, imm(2), imm(3)),
              inst(Opcode::Checksum, 0, reg(3)),
              inst(Opcode::Load, 4, reg(1), none, 4),
              inst(Opcode::Checksum, 0, reg(4)),
              inst(Opcode::Const, 6, none, none, 1),
              inst(Opcode::Checksum, 0, reg(6)), inst(Opcode::Ret)}},
            8);
    };
    auto f1 = [&] {
        return makeFunction(
            {{inst(Opcode::FrameAddr, 1),
              inst(Opcode::Load, 2, reg(1), none, 4),
              inst(Opcode::Bin, 3, reg(2), imm(1)),
              inst(Opcode::Bin, 5, imm(2), imm(3)),
              inst(Opcode::Checksum, 0, reg(3)),
              inst(Opcode::Checksum, 0, reg(5)),
              inst(Opcode::Const, 4, none, none, 9),
              inst(Opcode::Bin, 6, reg(2), imm(2)), inst(Opcode::Ret)}},
            7);
    };
    for (PassKind kind :
         {PassKind::ConstFold, PassKind::PeepholeGCC,
          PassKind::PeepholeLLVM, PassKind::CSE, PassKind::StoreForward,
          PassKind::DSE, PassKind::DCE, PassKind::SimplifyCFG,
          PassKind::LifetimeHoist}) {
        ir::Module both = makeModule({f0(), f1()});
        ir::Module alone = makeModule({f1()});
        runOne(kind, both);
        runOne(kind, alone);
        ir::Module second = makeModule({both.functions[1]});
        EXPECT_EQ(ir::printModule(second), ir::printModule(alone))
            << "pass " << static_cast<int>(kind);
    }
}

TEST(RegTable, ResetForgetsEntriesAcrossTheEpochWrap)
{
    // An 8-bit stamp wraps every 255 resets. An entry written once, in
    // the first epoch, must stay forgotten when the epoch comes round
    // again, and an id past the reset size grows the table.
    ir::RegTable<int, uint8_t> t;
    t.reset(4);
    t.set(3, 42);
    ASSERT_EQ(*t.find(3), 42);
    for (int round = 0; round < 600; round++) {
        t.reset(4);
        ASSERT_FALSE(t.contains(3)) << "round " << round;
        t.set(static_cast<uint32_t>(round % 3), round);
        EXPECT_EQ(*t.find(static_cast<uint32_t>(round % 3)), round);
        EXPECT_EQ(++t.at(100), 1) << "round " << round;
    }
}

/** The per-block search ir::CycleFinder replaced, kept as its
 *  reference: block b is cyclic iff a walk from b's successors comes
 *  back to b. O(blocks x edges). */
std::vector<uint8_t>
searchFromEveryBlock(const ir::Function &f)
{
    const uint32_t n = static_cast<uint32_t>(f.blocks.size());
    std::vector<uint8_t> cyclic(n, 0);
    std::vector<uint32_t> seen(n, 0), work;
    auto pushSuccs = [&](uint32_t b) {
        const ir::Inst &term = f.instsOf(f.blocks[b]).back();
        if (term.op == Opcode::Br)
            work.push_back(term.targets[0]);
        if (term.op == Opcode::CondBr) {
            work.push_back(term.targets[0]);
            work.push_back(term.targets[1]);
        }
    };
    for (uint32_t start = 0; start < n; start++) {
        work.clear();
        pushSuccs(start);
        while (!work.empty()) {
            uint32_t b = work.back();
            work.pop_back();
            if (b == start) {
                cyclic[start] = 1;
                break;
            }
            if (seen[b] == start + 1)
                continue;
            seen[b] = start + 1;
            pushSuccs(b);
        }
    }
    return cyclic;
}

TEST(CycleFinder, MarksExactlyTheBlocksOnALoop)
{
    // Hand-built CFGs, one successor list per block (none: Ret, one:
    // Br, two: CondBr). One finder serves them all, to check that the
    // reused buffers hold nothing over.
    struct Case
    {
        const char *name;
        std::vector<std::vector<uint32_t>> succs;
        std::vector<uint8_t> cyclic;
    };
    const std::vector<Case> cases = {
        {"loop after the entry", {{1}, {2}, {1, 3}, {}}, {0, 1, 1, 0}},
        {"self-loop", {{1}, {1, 2}, {}}, {0, 1, 0}},
        {"nested loops",
         {{1}, {2, 5}, {3, 4}, {2}, {1}, {}},
         {0, 1, 1, 1, 1, 0}},
        {"cycle unreachable from the entry", {{}, {2}, {1}}, {0, 1, 1}},
        {"block reaching a loop off it",
         {{1, 2}, {2}, {3}, {2, 4}, {}},
         {0, 0, 1, 1, 0}},
        {"one block", {{}}, {0}},
    };
    ir::CycleFinder finder;
    for (const Case &c : cases) {
        std::vector<std::vector<ir::Inst>> blocks;
        for (const std::vector<uint32_t> &succs : c.succs) {
            if (succs.empty()) {
                blocks.push_back({inst(Opcode::Ret)});
            } else if (succs.size() == 1) {
                blocks.push_back({br(succs[0])});
            } else {
                ir::Inst cond = inst(Opcode::CondBr, 0, reg(1));
                cond.targets[0] = succs[0];
                cond.targets[1] = succs[1];
                blocks.push_back({inst(Opcode::Const, 1), cond});
            }
        }
        const ir::Function f = makeFunction(blocks, 2);
        EXPECT_EQ(finder.cyclicBlocks(f), c.cyclic) << c.name;
        EXPECT_EQ(searchFromEveryBlock(f), c.cyclic) << c.name;
    }

    // Every function of the UB-program sweep (test_passes.cc), as
    // lowered and as each early-opt point leaves it: the CFGs ASan's
    // scope poisoning and -O3 lifetime hoisting really see.
    size_t functions = 0, withLoops = 0;
    Rng rng(20240427);
    for (uint64_t seed = 1; seed <= 6; seed++) {
        gen::GeneratorConfig gc;
        gc.seed = seed;
        auto prog = gen::generateProgram(gc);
        ubgen::UBGenerator ubg(*prog);
        ASSERT_TRUE(ubg.profiled()) << "seed " << seed;
        for (const ubgen::UBProgram &ub : ubg.generateAll(rng, 4)) {
            ast::PrintedProgram printed = ast::printProgram(*ub.program);
            const ir::Module base =
                ir::lowerProgram(*ub.program, printed.map);
            std::vector<ir::Module> modules;
            modules.push_back(ir::cloneModule(base));
            for (Vendor v : {Vendor::GCC, Vendor::LLVM})
                for (OptLevel l : kAllOptLevels)
                    if (canonicalEarlyOptPoint(v, l) ==
                        std::pair{v, l})
                        modules.push_back(compiler::earlyOptimize(
                            ir::cloneModule(base), v, l));
            for (const ir::Module &m : modules) {
                for (const ir::Function &f : m.functions) {
                    const std::vector<uint8_t> expected =
                        searchFromEveryBlock(f);
                    ASSERT_EQ(finder.cyclicBlocks(f), expected)
                        << "seed " << seed << ", fn " << f.name;
                    functions++;
                    withLoops += std::count(expected.begin(),
                                            expected.end(), 1) > 0;
                }
            }
        }
    }
    EXPECT_GT(functions, 2000u);
    EXPECT_GT(withLoops, 1000u);
}

/** Pipelines at every (vendor, level) preserve semantics of valid
 *  parsed programs — a hand-written complement to the generator
 *  sweep. */
class PipelineSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(PipelineSweep, PreservesSemantics)
{
    Vendor v = std::get<0>(GetParam()) ? Vendor::LLVM : Vendor::GCC;
    OptLevel l = static_cast<OptLevel>(std::get<1>(GetParam()));
    const char *src = R"(int a[5] = {3, 1, 4, 1, 5};
int acc = 0;
long mix(int n) {
    long r = 1l;
    for (int i = 0; i < n; i += 1) {
        r = r * 3l + (long)a[i % 5];
        if (r > 500l) {
            r = r % 97l;
        }
    }
    return r;
}
int main(void) {
    acc = (int)mix(9);
    int t = acc;
    t = t << 2;
    t = t ^ (acc & 5);
    __checksum((long)t);
    return t & 255;
}
)";
    auto prog = frontend::parseOrDie(src);
    ast::PrintedProgram printed = ast::printProgram(*prog);
    ir::Module base = ir::lowerProgram(*prog, printed.map);
    vm::ExecResult ref = vm::execute(base);
    ASSERT_EQ(ref.kind, vm::ExecResult::Kind::Clean);

    compiler::CompilerConfig c;
    c.vendor = v;
    c.level = l;
    ir::Module m = compiler::compile(*prog, printed, c).module;
    vm::ExecResult r = vm::execute(m);
    ASSERT_EQ(r.kind, vm::ExecResult::Kind::Clean);
    EXPECT_EQ(r.exitCode, ref.exitCode)
        << vendorName(v) << " " << optLevelName(l);
    EXPECT_EQ(r.checksum, ref.checksum)
        << vendorName(v) << " " << optLevelName(l);
}

INSTANTIATE_TEST_SUITE_P(VendorsLevels, PipelineSweep,
                         ::testing::Combine(::testing::Range(0, 2),
                                            ::testing::Range(0, 5)));

/**
 * The compile-once cache keys early-opt modules by
 * canonicalEarlyOptPoint, so the claimed equivalences must really
 * produce bit-identical modules. Check every matrix point against its
 * representative on a spread of generated programs.
 */
TEST(CanonicalEarlyOpt, RepresentativeProducesIdenticalModules)
{
    for (uint64_t seed : {11u, 222u, 3333u, 44444u}) {
        gen::GeneratorConfig gc;
        gc.seed = seed;
        auto prog = gen::generateProgram(gc);
        ast::PrintedProgram printed = ast::printProgram(*prog);
        ir::Module base = ir::lowerProgram(*prog, printed.map);
        for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
            for (OptLevel l : kAllOptLevels) {
                auto [cv, cl] = canonicalEarlyOptPoint(v, l);
                ir::Module actual =
                    compiler::earlyOptimize(ir::cloneModule(base), v, l);
                ir::Module canon =
                    compiler::earlyOptimize(ir::cloneModule(base), cv, cl);
                EXPECT_EQ(ir::printModule(actual),
                          ir::printModule(canon))
                    << "seed " << seed << ": " << vendorName(v) << " "
                    << optLevelName(l) << " vs canonical "
                    << vendorName(cv) << " " << optLevelName(cl);
            }
        }
    }
}

/** The canonicalization is derived from the pass lists; pin the exact
 *  mapping it derives for all 10 points, so a pass-list edit that
 *  splits or merges a class shows up here by name. */
TEST(CanonicalEarlyOpt, PointsShareTheRegistryPipeline)
{
    using P = std::pair<Vendor, OptLevel>;
    const Vendor G = Vendor::GCC, L = Vendor::LLVM;
    const std::vector<std::pair<P, P>> expected = {
        {{G, OptLevel::O0}, {G, OptLevel::O0}},
        {{G, OptLevel::O1}, {G, OptLevel::O1}},
        {{G, OptLevel::Os}, {G, OptLevel::Os}},
        {{G, OptLevel::O2}, {G, OptLevel::O2}},
        {{G, OptLevel::O3}, {G, OptLevel::O3}},
        {{L, OptLevel::O0}, {G, OptLevel::O0}},
        {{L, OptLevel::O1}, {L, OptLevel::O1}},
        {{L, OptLevel::Os}, {L, OptLevel::O1}},
        {{L, OptLevel::O2}, {L, OptLevel::O2}},
        {{L, OptLevel::O3}, {L, OptLevel::O2}},
    };
    for (const auto &[point, rep] : expected) {
        EXPECT_EQ(canonicalEarlyOptPoint(point.first, point.second), rep)
            << vendorName(point.first) << " "
            << optLevelName(point.second);
    }
}

/** The early-opt prefix tree is derived from the pass lists too; pin
 *  every parent it derives, so a pass-list edit that orphans a point
 *  (which the CompilationCache would then silently rebuild from the
 *  base) or re-parents it shows up here by name. */
TEST(CanonicalEarlyOpt, ParentsAreTheLongestPrefixPoints)
{
    using P = std::pair<Vendor, OptLevel>;
    const Vendor G = Vendor::GCC, L = Vendor::LLVM;
    const std::vector<std::pair<P, std::optional<P>>> expected = {
        {{G, OptLevel::O0}, std::nullopt},
        {{G, OptLevel::O1}, P{G, OptLevel::O0}},
        {{G, OptLevel::Os}, P{G, OptLevel::O1}},
        {{G, OptLevel::O2}, P{G, OptLevel::Os}},
        {{G, OptLevel::O3}, P{G, OptLevel::O2}},
        // The other points answer for their canonical point.
        {{L, OptLevel::O0}, std::nullopt},
        {{L, OptLevel::O1}, P{G, OptLevel::O0}},
        {{L, OptLevel::Os}, P{G, OptLevel::O0}},
        {{L, OptLevel::O2}, P{L, OptLevel::O1}},
        {{L, OptLevel::O3}, P{L, OptLevel::O1}},
    };
    for (const auto &[point, parent] : expected) {
        const auto got = earlyOptParent(point.first, point.second);
        EXPECT_EQ(got, parent)
            << vendorName(point.first) << " "
            << optLevelName(point.second);
        if (!got)
            continue;
        // A parent is canonical and its list a proper prefix.
        EXPECT_EQ(canonicalEarlyOptPoint(got->first, got->second), *got);
        const std::vector<PassKind> own =
            earlyPasses(point.first, point.second);
        const std::vector<PassKind> prefix =
            earlyPasses(got->first, got->second);
        ASSERT_LT(prefix.size(), own.size());
        EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), own.begin()))
            << vendorName(point.first) << " "
            << optLevelName(point.second);
    }
}

/** The canonicalization collapses the 10-point matrix to 7 early-opt
 *  classes: shared -O0, four GCC levels, and two LLVM groups. */
TEST(CanonicalEarlyOpt, ExpectedEquivalenceClasses)
{
    std::set<std::pair<Vendor, OptLevel>> points;
    for (Vendor v : {Vendor::GCC, Vendor::LLVM})
        for (OptLevel l : kAllOptLevels)
            points.insert(canonicalEarlyOptPoint(v, l));
    EXPECT_EQ(points.size(), 7u);
    // A representative must map to itself (idempotence).
    for (const auto &[v, l] : points) {
        auto again = canonicalEarlyOptPoint(v, l);
        EXPECT_EQ(again.first, v);
        EXPECT_EQ(again.second, l);
    }
}

} // namespace
} // namespace ubfuzz::opt
