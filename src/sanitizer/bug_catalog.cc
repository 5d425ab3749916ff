#include "sanitizer/bug_catalog.h"

#include "support/diagnostics.h"

namespace ubfuzz::san {

const char *
bugCategoryName(BugCategory c)
{
    switch (c) {
      case BugCategory::NoSanitizerCheck:
        return "No Sanitizer Check";
      case BugCategory::IncorrectSanitizerOptimization:
        return "Incorrect Sanitizer Optimization";
      case BugCategory::WrongRedZoneBuffer:
        return "Wrong Red-Zone Buffer";
      case BugCategory::IncorrectSanitizerCheck:
        return "Incorrect Sanitizer Check";
      case BugCategory::IncorrectExpressionFolding:
        return "Incorrect Expression Folding/Shorten";
      case BugCategory::IncorrectOperationHandling:
        return "Incorrect Operation Handling";
      case BugCategory::WrongLineInformation:
        return "Wrong Line Information";
    }
    return "?";
}

const std::vector<BugInfo> &
bugCatalog()
{
    using V = Vendor;
    using S = SanitizerKind;
    using C = BugCategory;
    using L = OptLevel;
    static const std::vector<BugInfo> catalog = {
        // ---------------- GCC ASan (8) ----------------
        {BugId::GccAsanGlobalPtrStoreNoCheck, V::GCC, S::ASan,
         C::NoSanitizerCheck, 10, L::O1, L::O3, true, true,
         "gcc-asan-global-ptr-store-no-check",
         "stores through pointers loaded from globals are not "
         "instrumented (models Figure 12a / GCC PR106558)"},
        {BugId::GccAsanStructCopyNoCheck, V::GCC, S::ASan,
         C::NoSanitizerCheck, 5, L::O2, L::O3, true, true,
         "gcc-asan-struct-copy-no-check",
         "aggregate copies through runtime pointers skip "
         "instrumentation (models Figure 1 / GCC PR105714)"},
        {BugId::GccAsanSanOptDupAcrossFree, V::GCC, S::ASan,
         C::IncorrectSanitizerOptimization, 8, L::O1, L::O3, true, true,
         "gcc-asan-sanopt-dup-across-free",
         "redundant-check elimination treats free() as a no-op and "
         "removes the check that would catch the use-after-free"},
        {BugId::GccAsanScopePoisonLoopRemoved, V::GCC, S::ASan,
         C::IncorrectSanitizerOptimization, 9, L::O3, L::O3, true, false,
         "gcc-asan-scope-poison-loop-removed",
         "scope-end poisoning of loop-local arrays is removed when "
         "exiting the loop (models Figure 12c / GCC PR108085)"},
        {BugId::GccAsanSanOptConstGepRemoved, V::GCC, S::ASan,
         C::IncorrectSanitizerOptimization, 10, L::O2, L::O3, true,
         false, "gcc-asan-sanopt-const-gep-removed",
         "checks on constant-index element addresses are removed as "
         "'provably in bounds' without consulting the bound"},
        {BugId::GccAsanStackRedzoneMultiple32, V::GCC, S::ASan,
         C::WrongRedZoneBuffer, 5, L::O0, L::O3, true, false,
         "gcc-asan-stack-redzone-multiple-32",
         "stack arrays whose size is a multiple of 16 get an 8-byte "
         "redzone instead of 32, so overflows of 8..32 bytes escape"},
        {BugId::GccAsanWideLoadCheckSkipped, V::GCC, S::ASan,
         C::IncorrectSanitizerCheck, 11, L::Os, L::O3, true, false,
         "gcc-asan-wide-load-check-skipped",
         "8-byte loads are given a zero-width shadow check"},
        {BugId::GccAsanMemCopyCheckWrongLoc, V::GCC, S::ASan,
         C::WrongLineInformation, 12, L::O2, L::O3, true, false,
         "gcc-asan-memcopy-check-wrong-loc",
         "checks for aggregate copies carry the location of the "
         "enclosing block's first statement (wrong-report bug)"},
        // ---------------- GCC UBSan (7) ----------------
        {BugId::GccUbsanNarrowedDividendNoCheck, V::GCC, S::UBSan,
         C::IncorrectExpressionFolding, 5, L::O0, L::O3, true, true,
         "gcc-ubsan-narrowed-dividend-no-check",
         "divisions whose dividend was narrowed from a wider compare "
         "result lose their check (models Figure 12b / GCC PR109151)"},
        {BugId::GccUbsanWidenedNarrowAddNoCheck, V::GCC, S::UBSan,
         C::IncorrectExpressionFolding, 5, L::O1, L::O3, true, true,
         "gcc-ubsan-widened-narrow-add-no-check",
         "arithmetic with an operand widened from char/short is "
         "shortened past the overflow check"},
        {BugId::GccUbsanShiftCharCountNoCheck, V::GCC, S::UBSan,
         C::IncorrectExpressionFolding, 6, L::O0, L::O3, true, true,
         "gcc-ubsan-shift-char-count-no-check",
         "shift counts derived from 8-bit values are assumed valid"},
        {BugId::GccUbsanNegationNoCheck, V::GCC, S::UBSan,
         C::IncorrectExpressionFolding, 5, L::O0, L::O3, true, false,
         "gcc-ubsan-negation-no-check",
         "negation (0 - x) skips the signed-overflow check, missing "
         "-INT_MIN"},
        {BugId::GccUbsanSanOptWidenedResultRemoved, V::GCC, S::UBSan,
         C::IncorrectSanitizerOptimization, 9, L::O2, L::O3, true,
         false, "gcc-ubsan-sanopt-widened-result-removed",
         "overflow checks whose result is immediately widened are "
         "removed as if the arithmetic happened in the wider type"},
        {BugId::GccUbsanBoundsOffByOne, V::GCC, S::UBSan,
         C::IncorrectSanitizerCheck, 11, L::O1, L::O3, true, false,
         "gcc-ubsan-bounds-off-by-one",
         "array bounds checks for arrays of >= 8 elements test "
         "index <= size instead of index < size"},
        {BugId::GccUbsanDivCheckWrongLoc, V::GCC, S::UBSan,
         C::WrongLineInformation, 10, L::O2, L::O3, true, false,
         "gcc-ubsan-div-check-wrong-loc",
         "division checks report column 0 of the statement "
         "(wrong-report bug)"},
        // ---------------- LLVM ASan (6) ----------------
        {BugId::LlvmAsanParamPtrGepLoadNoCheck, V::LLVM, S::ASan,
         C::NoSanitizerCheck, 9, L::O2, L::O3, true, false,
         "llvm-asan-param-ptr-gep-load-no-check",
         "indexed loads through pointer parameters are not "
         "instrumented"},
        {BugId::LlvmAsanAdjacentStoreNoCheck, V::LLVM, S::ASan,
         C::NoSanitizerCheck, 12, L::O2, L::O3, false, false,
         "llvm-asan-adjacent-store-no-check",
         "a store into an object already checked earlier in the block "
         "is treated as covered, whatever its offset"},
        {BugId::LlvmAsanGlobalSmallArrayRedzoneSkip, V::LLVM, S::ASan,
         C::WrongRedZoneBuffer, 5, L::O0, L::O3, true, false,
         "llvm-asan-global-small-array-redzone-skip",
         "small global arrays leave their first 8 redzone bytes "
         "unpoisoned as 'padding' (models Figure 12d / LLVM #55189)"},
        {BugId::LlvmAsanSanOptSameBaseRemoved, V::LLVM, S::ASan,
         C::IncorrectSanitizerOptimization, 8, L::O1, L::O3, false,
         false, "llvm-asan-sanopt-same-base-removed",
         "checks on element addresses sharing a base with an earlier "
         "check are removed regardless of the index"},
        {BugId::LlvmAsanEscapedScopeNoPoison, V::LLVM, S::ASan,
         C::IncorrectSanitizerOptimization, 10, L::O2, L::O3, false,
         false, "llvm-asan-escaped-scope-no-poison",
         "locals whose address escapes the block are not poisoned at "
         "scope end, missing use-after-scope"},
        {BugId::LlvmAsanCharPtrBaseChecked, V::LLVM, S::ASan,
         C::IncorrectSanitizerCheck, 7, L::O1, L::O3, false, false,
         "llvm-asan-char-ptr-base-checked",
         "byte-sized accesses check the base pointer of the address "
         "computation instead of the final address"},
        // ---------------- LLVM UBSan (8) ----------------
        {BugId::LlvmUbsanCompoundAssignNullSkipped, V::LLVM, S::UBSan,
         C::IncorrectSanitizerCheck, 5, L::O0, L::O3, true, false,
         "llvm-ubsan-compound-assign-null-skipped",
         "null checks are not placed before read-modify-write "
         "dereferences (models Figure 12e / LLVM #60236)"},
        {BugId::LlvmUbsanRemNoCheck, V::LLVM, S::UBSan,
         C::IncorrectSanitizerCheck, 6, L::O1, L::O3, true, false,
         "llvm-ubsan-rem-no-check",
         "the remainder operator is not given a divide-by-zero check"},
        {BugId::LlvmUbsanShiftNegOnly, V::LLVM, S::UBSan,
         C::IncorrectSanitizerCheck, 8, L::O2, L::O3, false, false,
         "llvm-ubsan-shift-neg-only",
         "shift checks flag negative counts but not counts >= width"},
        {BugId::LlvmUbsanMulAsAdd, V::LLVM, S::UBSan,
         C::IncorrectSanitizerCheck, 9, L::Os, L::O3, false, false,
         "llvm-ubsan-mul-as-add",
         "multiplication overflow checks test addition overflow"},
        {BugId::LlvmUbsanSmallArrayBoundsSkipped, V::LLVM, S::UBSan,
         C::IncorrectSanitizerCheck, 7, L::O1, L::O3, false, false,
         "llvm-ubsan-small-array-bounds-skipped",
         "arrays of <= 4 elements skip the bounds check"},
        {BugId::LlvmUbsanStructPtrNullSkipped, V::LLVM, S::UBSan,
         C::IncorrectSanitizerCheck, 10, L::O0, L::O3, false, false,
         "llvm-ubsan-struct-ptr-null-skipped",
         "aggregate copies through pointers skip the null check"},
        {BugId::LlvmUbsanCheckBudgetDropped, V::LLVM, S::UBSan,
         C::IncorrectSanitizerOptimization, 11, L::O2, L::O3, false,
         false, "llvm-ubsan-check-budget-dropped",
         "only the first 4 arithmetic checks of a block survive the "
         "check-throttling optimization"},
        {BugId::LlvmUbsanStoreMergedArithSkipped, V::LLVM, S::UBSan,
         C::IncorrectExpressionFolding, 12, L::O2, L::O3, false, false,
         "llvm-ubsan-store-merged-arith-skipped",
         "arithmetic merged into a store to a global loses its check"},
        // ---------------- LLVM MSan (1) ----------------
        {BugId::LlvmMsanSubConstDefined, V::LLVM, S::MSan,
         C::IncorrectOperationHandling, 5, L::O1, L::O3, true, false,
         "llvm-msan-sub-const-defined",
         "subtraction with a constant operand is treated as producing "
         "a fully-defined value (models Figure 12f / LLVM #61982)"},
    };
    UBF_ASSERT(catalog.size() == kNumBugs, "catalog size mismatch");
    for (size_t i = 0; i < catalog.size(); i++) {
        UBF_ASSERT(catalog[i].id == static_cast<BugId>(i),
                   "catalog order mismatch at ", i);
    }
    return catalog;
}

const BugInfo &
bugInfo(BugId id)
{
    return bugCatalog()[static_cast<size_t>(id)];
}

ActiveBugs::ActiveBugs(Vendor vendor, int version, OptLevel level,
                       SanitizerKind sanitizer)
    : vendor_(vendor), sanitizer_(sanitizer)
{
    for (const BugInfo &b : bugCatalog()) {
        if (b.sanitizer != sanitizer)
            continue;
        const uint64_t bit = uint64_t{1} << static_cast<unsigned>(b.id);
        scope_ |= bit;
        if (b.vendor == vendor && version >= b.introducedVersion &&
            optAtLeast(level, b.minLevel) && optAtLeast(b.maxLevel, level))
            mask_ |= bit;
    }
}

void
ActiveBugs::foreignBug(BugId id) const
{
    UBF_PANIC("a ", sanitizerName(sanitizer_), " pass asked about ",
              bugInfo(id).name, ", a ",
              sanitizerName(bugInfo(id).sanitizer), " bug");
}

} // namespace ubfuzz::san
