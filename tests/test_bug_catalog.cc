/**
 * @file
 * Injected-bug catalog tests: metadata invariants over all 30 entries
 * (parameterized), plus mechanism regression tests for defects with
 * intricate trigger patterns — each one compiles a crafted program on
 * the buggy configuration, asserts the miss + firing, and confirms a
 * bug-free version still reports.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.h"
#include "frontend/parser.h"
#include "sanitizer/bug_catalog.h"
#include "vm/vm.h"

namespace ubfuzz::san {
namespace {

class CatalogSweep : public ::testing::TestWithParam<int>
{};

TEST_P(CatalogSweep, MetadataInvariants)
{
    const BugInfo &b = bugCatalog()[static_cast<size_t>(GetParam())];
    EXPECT_EQ(static_cast<int>(b.id), GetParam());
    // The vendor must ship the sanitizer the bug lives in.
    EXPECT_TRUE(vendorSupports(b.vendor, b.sanitizer));
    // Introduced in some simulated release window.
    EXPECT_GE(b.introducedVersion, firstStableVersion(b.vendor));
    EXPECT_LE(b.introducedVersion, trunkVersion(b.vendor));
    // Level window is well-formed and active on trunk somewhere.
    EXPECT_TRUE(optAtLeast(b.maxLevel, b.minLevel));
    bool active_somewhere = false;
    for (OptLevel l : kAllOptLevels) {
        active_somewhere |=
            ActiveBugs(b.vendor, trunkVersion(b.vendor), l, b.sanitizer)
                .active(b.id);
    }
    EXPECT_TRUE(active_somewhere) << b.name;
    // Fixed bugs were confirmed first, as in the paper's process.
    if (b.fixedAfterReport)
        EXPECT_TRUE(b.confirmed) << b.name;
    EXPECT_NE(b.name, nullptr);
    EXPECT_NE(b.description, nullptr);
}

INSTANTIATE_TEST_SUITE_P(AllBugs, CatalogSweep,
                         ::testing::Range(0,
                                          static_cast<int>(kNumBugs)));

//===--------------------------------------------------------------===//
// Mechanism regressions
//===--------------------------------------------------------------===//

struct Mechanism
{
    const char *name;
    BugId bug;
    const char *source;
    Vendor vendor;
    OptLevel level;
    SanitizerKind sanitizer;
};

class MechanismTest : public ::testing::TestWithParam<Mechanism>
{};

TEST_P(MechanismTest, BuggyMissesCleanReports)
{
    const Mechanism &m = GetParam();
    auto prog = frontend::parseOrDie(m.source);
    ast::PrintedProgram printed = ast::printProgram(*prog);

    // Buggy (trunk) configuration: no report, defect fired.
    compiler::CompilerConfig buggy{m.vendor, 0, m.level, m.sanitizer};
    auto bin = compiler::compile(*prog, printed, buggy);
    vm::ExecResult r = vm::execute(bin.module);
    EXPECT_NE(r.kind, vm::ExecResult::Kind::Report)
        << m.name << ": " << r.str();
    bool fired = false;
    for (const auto &f : bin.log.firings)
        fired |= f.id == m.bug;
    EXPECT_TRUE(fired) << m.name;

    // Pre-introduction version: same level, UB reported.
    compiler::CompilerConfig clean = buggy;
    clean.version = 1;
    auto clean_bin = compiler::compile(*prog, printed, clean);
    vm::ExecResult rc = vm::execute(clean_bin.module);
    EXPECT_EQ(rc.kind, vm::ExecResult::Kind::Report)
        << m.name << ": " << rc.str();
}

const Mechanism kMechanisms[] = {
    {"struct_copy", BugId::GccAsanStructCopyNoCheck,
     R"(struct a {
    int x;
};
struct a b[2];
struct a *c = &b[0];
struct a *d = &b[0];
int k = 0;
int main(void) {
    k = 2;
    *c = *(d + k);
    return c->x;
}
)",
     Vendor::GCC, OptLevel::O2, SanitizerKind::ASan},
    {"global_ptr_store", BugId::GccAsanGlobalPtrStoreNoCheck,
     R"(int g;
int *ptr = &g;
int buf[3] = {1, 2, 3};
int **p_ptr = &ptr;
int main(void) {
    *ptr = 1;
    *p_ptr = &buf[2];
    *ptr = 4095;
    ptr = &buf[0];
    ptr = ptr + 4;
    *ptr = 7;
    return 0;
}
)",
     Vendor::GCC, OptLevel::O1, SanitizerKind::ASan},
    {"dup_across_free", BugId::GccAsanSanOptDupAcrossFree,
     R"(int main(void) {
    int *hp = (int*)__malloc(8l);
    hp[0] = 1;
    int a = *hp;
    __free((char*)hp);
    int b = *hp;
    return a + b;
}
)",
     Vendor::GCC, OptLevel::O1, SanitizerKind::ASan},
    {"rem_no_check", BugId::LlvmUbsanRemNoCheck,
     R"(int z = 0;
int main(void) {
    return 9 % z;
}
)",
     Vendor::LLVM, OptLevel::O1, SanitizerKind::UBSan},
    {"shift_neg_only", BugId::LlvmUbsanShiftNegOnly,
     R"(int n = 40;
int main(void) {
    return 1 << n;
}
)",
     Vendor::LLVM, OptLevel::O2, SanitizerKind::UBSan},
    {"mul_as_add", BugId::LlvmUbsanMulAsAdd,
     R"(int a = 100000;
int b = 100000;
int main(void) {
    return (a * b) != 0;
}
)",
     Vendor::LLVM, OptLevel::Os, SanitizerKind::UBSan},
    {"store_merged_arith", BugId::LlvmUbsanStoreMergedArithSkipped,
     R"(int g = 0;
int x = 2147483000;
int y = 2147483000;
int main(void) {
    g = x + y;
    __checksum((long)g);
    return 0;
}
)",
     Vendor::LLVM, OptLevel::O2, SanitizerKind::UBSan},
    {"small_array_bounds", BugId::LlvmUbsanSmallArrayBoundsSkipped,
     R"(int i = 4;
int main(void) {
    int a[3] = {1, 2, 3};
    int r = a[i];
    __checksum((long)r);
    return 0;
}
)",
     Vendor::LLVM, OptLevel::O1, SanitizerKind::UBSan},
    {"msan_sub_defined", BugId::LlvmMsanSubConstDefined,
     R"(int main(void) {
    int a;
    if (a - 1) {
        return 1;
    }
    return 0;
}
)",
     Vendor::LLVM, OptLevel::O1, SanitizerKind::MSan},
};

INSTANTIATE_TEST_SUITE_P(
    Regressions, MechanismTest, ::testing::ValuesIn(kMechanisms),
    [](const ::testing::TestParamInfo<Mechanism> &info) {
        return std::string(info.param.name);
    });

/** The version gates make Figure 10 monotone: once introduced, a bug
 *  stays active through trunk at its levels. */
TEST(Catalog, ActivityIsMonotoneInVersion)
{
    for (const BugInfo &b : bugCatalog()) {
        bool seen = false;
        for (int v = firstStableVersion(b.vendor);
             v <= trunkVersion(b.vendor); v++) {
            bool active = ActiveBugs(b.vendor, v, b.minLevel, b.sanitizer)
                              .active(b.id);
            if (seen)
                EXPECT_TRUE(active) << b.name << " v" << v;
            seen |= active;
        }
        EXPECT_TRUE(seen) << b.name;
    }
}

/** ActiveBugs answers from a mask built once per configuration and
 *  sanitizer; the mask must agree with the catalog's gate everywhere,
 *  including one version past either end of the release window, and
 *  hold no bug of another sanitizer: each row is one sanitizer's. */
TEST(Catalog, ActiveBugsMatchesTheCatalogPredicate)
{
    size_t active_pairs = 0;
    for (SanitizerKind s :
         {SanitizerKind::ASan, SanitizerKind::UBSan, SanitizerKind::MSan}) {
        for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
            for (int version = firstStableVersion(v) - 1;
                 version <= trunkVersion(v) + 1; version++) {
                for (OptLevel l : kAllOptLevels) {
                    ActiveBugs bugs(v, version, l, s);
                    EXPECT_EQ(bugs.vendor(), v);
                    EXPECT_EQ(bugs.sanitizer(), s);
                    uint64_t mask = 0;
                    for (const BugInfo &b : bugCatalog()) {
                        bool expected = b.sanitizer == s &&
                                        b.vendor == v &&
                                        version >= b.introducedVersion &&
                                        optAtLeast(l, b.minLevel) &&
                                        optAtLeast(b.maxLevel, l);
                        if (b.sanitizer == s) {
                            EXPECT_EQ(bugs.active(b.id), expected)
                                << b.name << " " << vendorName(v) << "-"
                                << version << " " << optLevelName(l);
                        }
                        if (expected)
                            mask |= uint64_t{1}
                                    << static_cast<unsigned>(b.id);
                        active_pairs += expected ? 1 : 0;
                    }
                    EXPECT_EQ(bugs.mask(), mask)
                        << sanitizerName(s) << " " << vendorName(v) << "-"
                        << version << " " << optLevelName(l);
                }
            }
        }
    }
    EXPECT_GT(active_pairs, 0u);
    // A default-constructed set (no configuration) enables nothing.
    EXPECT_EQ(ActiveBugs().mask(), 0u);
    EXPECT_EQ(ActiveBugs().sanitizer(), SanitizerKind::None);
}

/** A set answers only about its own sanitizer's bugs: a pass asking
 *  about another's would read an input the set does not carry. */
TEST(CatalogDeathTest, AskingAboutAnotherSanitizersBugPanics)
{
    const ActiveBugs ubsan(Vendor::GCC, trunkVersion(Vendor::GCC),
                           OptLevel::O2, SanitizerKind::UBSan);
    EXPECT_FALSE(ubsan.active(BugId::LlvmUbsanMulAsAdd));
    EXPECT_DEATH_IF_SUPPORTED(
        (void)ubsan.active(BugId::GccAsanSanOptDupAcrossFree),
        "a ubsan pass asked about gcc-asan-sanopt-dup-across-free");
    EXPECT_DEATH_IF_SUPPORTED(
        (void)ActiveBugs().active(BugId::LlvmMsanSubConstDefined),
        "a none pass asked about");
}

} // namespace
} // namespace ubfuzz::san
