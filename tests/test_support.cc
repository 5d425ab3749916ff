/**
 * @file
 * Support-layer tests: RNG determinism, coverage registry semantics,
 * toolchain metadata, and the test-case reducer.
 */

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "frontend/parser.h"
#include "fuzzer/fuzzer.h"
#include "harden/harden.h"
#include "reduce/reducer.h"
#include "support/coverage.h"
#include "support/parse_num.h"
#include "support/rng.h"
#include "support/toolchain.h"

namespace ubfuzz {
namespace {

TEST(ParseNum, AcceptsPlainDecimals)
{
    EXPECT_EQ(support::parseInt64("0"), 0);
    EXPECT_EQ(support::parseInt64("42"), 42);
    EXPECT_EQ(support::parseInt64("-7"), -7);
    EXPECT_EQ(support::parseInt64("9223372036854775807"), INT64_MAX);
    EXPECT_EQ(support::parseInt64("-9223372036854775808"), INT64_MIN);
    EXPECT_EQ(support::parseUint64("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(support::parseInt("123"), 123);
}

TEST(ParseNum, RejectsGarbageAndTrailingJunk)
{
    for (const char *bad :
         {"", "-", "4O0", "1e3", "12 ", " 12", "+5", "0x10", "--3",
          "12abc", "1.5"}) {
        EXPECT_EQ(support::parseInt64(bad), std::nullopt) << bad;
        EXPECT_EQ(support::parseUint64(bad), std::nullopt) << bad;
    }
    // Unsigned additionally rejects negatives instead of wrapping the
    // way raw strtoull does ("-4" -> 18446744073709551612).
    EXPECT_EQ(support::parseUint64("-4"), std::nullopt);
}

TEST(ParseNum, RejectsOverflowInsteadOfClamping)
{
    // Raw strtol clamps these with errno=ERANGE; the strict parser
    // must refuse them ("9e30"-sized inputs used to pass validation).
    const char *huge = "9000000000000000000000000000000";
    EXPECT_EQ(support::parseInt64(huge), std::nullopt);
    EXPECT_EQ(support::parseUint64(huge), std::nullopt);
    EXPECT_EQ(support::parseInt64("-9000000000000000000000000000000"),
              std::nullopt);
    EXPECT_EQ(support::parseInt64("9223372036854775808"), std::nullopt);
    EXPECT_EQ(support::parseUint64("18446744073709551616"), std::nullopt);
    // And out-of-int values are rejected by the int window, not
    // truncated through a cast ("--seeds 99999999999").
    EXPECT_EQ(support::parseInt("99999999999"), std::nullopt);
}

TEST(ParseNum, EnforcesInclusiveWindows)
{
    EXPECT_EQ(support::parseInt64("5", 5, 10), 5);
    EXPECT_EQ(support::parseInt64("10", 5, 10), 10);
    EXPECT_EQ(support::parseInt64("4", 5, 10), std::nullopt);
    EXPECT_EQ(support::parseInt64("11", 5, 10), std::nullopt);
    // The campaign's flag policies: --jobs >= 0, seed counts >= 1.
    EXPECT_EQ(support::parseInt("-4", 0), std::nullopt);
    EXPECT_EQ(support::parseInt("0", 0), 0);
    EXPECT_EQ(support::parseInt("0", 1), std::nullopt);
    EXPECT_EQ(support::parseUint64("0", 1), std::nullopt);
}

TEST(ParseHarden, AcceptsExactFamilyLists)
{
    // --harden-passes takes a strict comma list of known families.
    EXPECT_EQ(harden::parseMask("dup"), harden::kDuplicateCompare);
    EXPECT_EQ(harden::parseMask("sig"), harden::kCfgSignature);
    EXPECT_EQ(harden::parseMask("dup,sig"), harden::kAllFamilies);
    EXPECT_EQ(harden::parseMask("sig,dup"), harden::kAllFamilies);
    // maskStr renders canonical names parseMask accepts back.
    EXPECT_EQ(harden::maskStr(harden::kAllFamilies), "dup,sig");
    EXPECT_EQ(harden::parseMask(harden::maskStr(harden::kCfgSignature)),
              harden::kCfgSignature);
}

TEST(ParseHarden, RejectsEmptyDuplicateAndJunkLists)
{
    for (const char *bad :
         {"", "dup,dup", "sig,sig", "dup,", ",sig", "dup,,sig", "bogus",
          "dup,sig,x", "DUP", "dup sig", "dup;sig", "all"})
        EXPECT_EQ(harden::parseMask(bad), std::nullopt) << bad;
}

TEST(ParseSourceMode, AcceptsExactModeNames)
{
    using fuzzer::SourceMode;
    EXPECT_EQ(fuzzer::parseSourceMode("ubfuzz"), SourceMode::UBFuzz);
    EXPECT_EQ(fuzzer::parseSourceMode("music"), SourceMode::Music);
    EXPECT_EQ(fuzzer::parseSourceMode("nosafe"),
              SourceMode::CsmithNoSafe);
    EXPECT_EQ(fuzzer::parseSourceMode("juliet"), SourceMode::Juliet);
    EXPECT_EQ(fuzzer::parseSourceMode("harden"), SourceMode::Harden);
    // Every mode's printed name is one the CLI accepts, back to it.
    for (SourceMode m : {SourceMode::UBFuzz, SourceMode::Music,
                         SourceMode::CsmithNoSafe, SourceMode::Juliet,
                         SourceMode::Harden})
        EXPECT_EQ(fuzzer::parseSourceMode(fuzzer::sourceModeName(m)), m)
            << fuzzer::sourceModeName(m);
}

TEST(ParseSourceMode, RejectsUnknownPrefixAndCaseVariants)
{
    for (const char *bad : {"", "hardened", "harden ", " harden",
                            "Harden", "ub", "ubfuzz,music", "default"})
        EXPECT_EQ(fuzzer::parseSourceMode(bad), std::nullopt) << bad;
}

TEST(ParseShard, AcceptsOneBasedSlices)
{
    EXPECT_EQ(support::parseShard("1/1"), std::make_pair(1, 1));
    EXPECT_EQ(support::parseShard("2/4"), std::make_pair(2, 4));
    EXPECT_EQ(support::parseShard("4/4"), std::make_pair(4, 4));
    EXPECT_EQ(support::parseShard("10/128"), std::make_pair(10, 128));
}

TEST(ParseShard, RejectsMalformedSlices)
{
    // Shards are 1-based and the index must fit the count; everything
    // that is not exactly "i/N" with 1 <= i <= N is a usage error.
    for (const char *bad :
         {"0/4", "5/4", "2/0", "0/0", "-1/4", "2/-4", "2/", "/4", "/",
          "", "2", "2/4/8", "2x4", "a/4", "2/b", "2 /4", "2/ 4",
          "+2/4", "99999999999/4", "2/99999999999"}) {
        EXPECT_EQ(support::parseShard(bad), std::nullopt) << bad;
    }
}

TEST(ParseSupervisionFlags, UnitTimeoutAndRetriesWindows)
{
    // --unit-timeout: any uint64 >= 1 ms, same strict grammar as the
    // other numeric flags (no sign, no suffix, no embedded junk).
    EXPECT_EQ(support::parseUint64("1", 1), 1u);
    EXPECT_EQ(support::parseUint64("250", 1), 250u);
    EXPECT_EQ(support::parseUint64("86400000", 1), 86400000u);
    for (const char *bad : {"0", "", "-1", "+5", "5s0", "5s", "s5",
                            "5 ", " 5", "5.0", "0x10", "1e3",
                            "99999999999999999999"})
        EXPECT_EQ(support::parseUint64(bad, 1), std::nullopt) << bad;

    // --retries: any int >= 0 (0 = quarantine on the first failure).
    EXPECT_EQ(support::parseInt("0", 0), 0);
    EXPECT_EQ(support::parseInt("2", 0), 2);
    EXPECT_EQ(support::parseInt("100", 0), 100);
    for (const char *bad :
         {"-1", "", "2x", "x2", "2 ", " 2", "+2", "99999999999"})
        EXPECT_EQ(support::parseInt(bad, 0), std::nullopt) << bad;
}

TEST(ParseFailureInjection, AcceptsTheThreeKinds)
{
    using FI = fuzzer::FailureInjection;
    auto crash = fuzzer::parseFailureInjection("crash:7:2");
    ASSERT_TRUE(crash.has_value());
    EXPECT_EQ(crash->kind, FI::Kind::Crash);
    EXPECT_EQ(crash->unit, 7);
    EXPECT_EQ(crash->attempts, 2);

    auto hang = fuzzer::parseFailureInjection("hang:0:-1");
    ASSERT_TRUE(hang.has_value());
    EXPECT_EQ(hang->kind, FI::Kind::Hang);
    EXPECT_EQ(hang->unit, 0);
    EXPECT_EQ(hang->attempts, -1); // every attempt

    auto torn = fuzzer::parseFailureInjection("torn:3:1:17");
    ASSERT_TRUE(torn.has_value());
    EXPECT_EQ(torn->kind, FI::Kind::TornPipe);
    EXPECT_EQ(torn->unit, 3);
    EXPECT_EQ(torn->attempts, 1);
    EXPECT_EQ(torn->tornBytes, 17u);

    // firesOn: the chosen unit's first `attempts` attempts, all of
    // them for -1.
    EXPECT_TRUE(crash->firesOn(7, 0));
    EXPECT_TRUE(crash->firesOn(7, 1));
    EXPECT_FALSE(crash->firesOn(7, 2));
    EXPECT_FALSE(crash->firesOn(6, 0));
    EXPECT_TRUE(hang->firesOn(0, 999));
    EXPECT_FALSE(FI{}.firesOn(0, 0)); // Kind::None never fires
}

TEST(ParseFailureInjection, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"", "crash", "crash:", "crash:7", "crash:7:", "crash:7:0",
          "crash:-1:1", "crash:7:2:9", "torn:3:1", "torn:3:1:",
          "torn:3:1:-1", "torn:3:1:9:9", "hang:0:2x", "hang:x:1",
          "boom:7:1", "Crash:7:1", "crash:7:1 ", " crash:7:1",
          "crash::1", "crash:7:+1"}) {
        EXPECT_EQ(fuzzer::parseFailureInjection(bad), std::nullopt)
            << bad;
    }
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; i++)
        ASSERT_EQ(a.next(), b.next());
    Rng r(7);
    for (int i = 0; i < 1000; i++) {
        EXPECT_LT(r.below(13), 13u);
        int64_t v = r.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
    Rng c(42);
    Rng child = c.fork();
    EXPECT_NE(child.next(), Rng(42).next());
}

UBF_COV_DECLARE(testLine, "test.support.line");
UBF_COV_DECLARE_FUNC(testFunc, "test.support.func");
UBF_COV_DECLARE_BRANCH(testBranch, "test.support.branch");

TEST(Coverage, RegistryCountsSitesAndHits)
{
    auto &reg = CoverageRegistry::instance();
    reg.resetHits();
    CovReport before = reg.report("test.support.");
    EXPECT_EQ(before.lineTotal, 2u); // line + func-as-line
    EXPECT_EQ(before.funcTotal, 1u);
    EXPECT_EQ(before.branchTotal, 2u);
    EXPECT_EQ(before.lineHit, 0u);

    UBF_COV_HIT(testLine);
    UBF_COV_HIT(testFunc);
    UBF_COV_BRANCH(testBranch, true);
    CovReport mid = reg.report("test.support.");
    EXPECT_EQ(mid.lineHit, 2u);
    EXPECT_EQ(mid.funcHit, 1u);
    EXPECT_EQ(mid.branchHit, 1u);

    UBF_COV_BRANCH(testBranch, false);
    CovReport after = reg.report("test.support.");
    EXPECT_EQ(after.branchHit, 2u);
    EXPECT_DOUBLE_EQ(after.branchPct(), 100.0);
}

TEST(Toolchain, VersionsAndSupport)
{
    EXPECT_TRUE(vendorSupports(Vendor::LLVM, SanitizerKind::MSan));
    EXPECT_FALSE(vendorSupports(Vendor::GCC, SanitizerKind::MSan));
    EXPECT_EQ(trunkVersion(Vendor::GCC), 14);
    EXPECT_EQ(trunkVersion(Vendor::LLVM), 18);
    EXPECT_TRUE(optAtLeast(OptLevel::O2, OptLevel::Os));
    EXPECT_FALSE(optAtLeast(OptLevel::O1, OptLevel::Os));
}

TEST(Reducer, ShrinksWhilePreservingPredicate)
{
    auto prog = frontend::parseOrDie(R"(int g = 3;
int unused_global = 9;
int helper(int x) {
    return x * 2;
}
int main(void) {
    int a = 1;
    int b = 2;
    g = a + b;
    g = helper(g);
    g = 7;
    __checksum((long)g);
    return g;
}
)");
    // Predicate: main still ends with g == 7 (the final assignment).
    auto predicate = [](const ast::Program &p) {
        std::string text = ast::programText(p);
        return text.find("g = 7;") != std::string::npos &&
               text.find("return g;") != std::string::npos;
    };
    ASSERT_TRUE(predicate(*prog));
    reduce::ReduceStats stats;
    auto reduced = reduce::reduceProgram(*prog, predicate, &stats);
    EXPECT_TRUE(predicate(*reduced));
    EXPECT_GT(stats.statementsRemoved, 0);
    std::string text = ast::programText(*reduced);
    // The unused global and the helper are gone.
    EXPECT_EQ(text.find("unused_global"), std::string::npos);
    EXPECT_EQ(text.find("helper"), std::string::npos);
    EXPECT_LT(text.size(), ast::programText(*prog).size());
}

TEST(Reducer, NeverBreaksValidity)
{
    auto prog = frontend::parseOrDie(R"(int a[3] = {1, 2, 3};
int main(void) {
    int x = a[0];
    int y = x + a[1];
    __checksum((long)y);
    return y;
}
)");
    auto predicate = [](const ast::Program &p) {
        // Any candidate must still round-trip through the parser.
        auto r = frontend::parseProgram(ast::programText(p));
        return r.ok();
    };
    auto reduced = reduce::reduceProgram(*prog, predicate);
    EXPECT_TRUE(predicate(*reduced));
}

} // namespace
} // namespace ubfuzz
