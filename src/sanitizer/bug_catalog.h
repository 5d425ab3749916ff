/**
 * @file
 * The injected sanitizer-bug catalog.
 *
 * The paper tests real GCC/LLVM trunk and reports 31 bugs (Table 3).
 * This repository tests *simulated* compilers, so the ground truth is a
 * catalog of 30 injected defects in the simulated sanitizer passes,
 * distributed exactly like the paper's findings:
 *
 *     GCC:  ASan 8 + UBSan 7      LLVM: ASan 6 + UBSan 8 + MSan 1
 *
 * (The paper's 31st report — GCC ASan "Invalid" in Table 3 — was an
 * oracle false alarm caused by a legitimate -O3 loop transform, Figure
 * 8. That report is *not* an injected bug here either: it emerges
 * organically from the LifetimeHoist optimization pass, and the
 * campaign reports it as an invalid finding.)
 *
 * Every bug models one of the paper's root-cause categories (Table 6)
 * and several reproduce specific case studies (Figures 1, 12a-f). Each
 * is gated by vendor, version window, and optimization level; the
 * behavioural hook lives in the corresponding pass, guarded by
 * ActiveBugs::active(id).
 */

#ifndef UBFUZZ_SANITIZER_BUG_CATALOG_H
#define UBFUZZ_SANITIZER_BUG_CATALOG_H

#include <cstdint>
#include <vector>

#include "support/source_loc.h"
#include "support/toolchain.h"

namespace ubfuzz::san {

/** Root-cause categories, Table 6. */
enum class BugCategory : uint8_t {
    NoSanitizerCheck,
    IncorrectSanitizerOptimization,
    WrongRedZoneBuffer,
    IncorrectSanitizerCheck,
    IncorrectExpressionFolding,
    IncorrectOperationHandling,
    WrongLineInformation,
};

const char *bugCategoryName(BugCategory c);

/** Identity of every injected bug. Names encode vendor + sanitizer. */
enum class BugId : uint8_t {
    // --- GCC ASan (8) ---
    GccAsanGlobalPtrStoreNoCheck,  ///< Fig 12a: store via global ptr
    GccAsanStructCopyNoCheck,      ///< Fig 1: struct copy unchecked
    GccAsanSanOptDupAcrossFree,    ///< dup-check removal crosses free()
    GccAsanScopePoisonLoopRemoved, ///< Fig 12c: loop scope unpoisoned
    GccAsanSanOptConstGepRemoved,  ///< "const index proven safe"
    GccAsanStackRedzoneMultiple32, ///< 32k-sized arrays: tiny redzone
    GccAsanWideLoadCheckSkipped,   ///< 8-byte reads uninstrumented
    GccAsanMemCopyCheckWrongLoc,   ///< wrong-report bug (line info)
    // --- GCC UBSan (7) ---
    GccUbsanNarrowedDividendNoCheck, ///< Fig 12b: widened bool / x
    GccUbsanWidenedNarrowAddNoCheck, ///< operand from narrow cast
    GccUbsanShiftCharCountNoCheck,   ///< char shift count "trusted"
    GccUbsanNegationNoCheck,         ///< 0 - x treated as safe
    GccUbsanSanOptWidenedResultRemoved, ///< result widened => "safe"
    GccUbsanBoundsOffByOne,          ///< bound+1 for arrays >= 8
    GccUbsanDivCheckWrongLoc,        ///< wrong-report bug (line info)
    // --- LLVM ASan (6) ---
    LlvmAsanParamPtrGepLoadNoCheck,  ///< loads via param pointers
    LlvmAsanAdjacentStoreNoCheck,    ///< "batched" neighbouring stores
    LlvmAsanGlobalSmallArrayRedzoneSkip, ///< Fig 12d: global padding
    LlvmAsanSanOptSameBaseRemoved,   ///< same-base checks merged
    LlvmAsanEscapedScopeNoPoison,    ///< escaped locals not poisoned
    LlvmAsanCharPtrBaseChecked,      ///< byte access checks gep base
    // --- LLVM UBSan (8) ---
    LlvmUbsanCompoundAssignNullSkipped, ///< Fig 12e: ++(*p)
    LlvmUbsanRemNoCheck,             ///< % not checked, only /
    LlvmUbsanShiftNegOnly,           ///< only negative counts flagged
    LlvmUbsanMulAsAdd,               ///< Mul check tests Add overflow
    LlvmUbsanSmallArrayBoundsSkipped,///< arrays <= 4 elide bounds
    LlvmUbsanStructPtrNullSkipped,   ///< struct copies skip null check
    LlvmUbsanCheckBudgetDropped,     ///< >8 checks per block throttled
    LlvmUbsanStoreMergedArithSkipped,///< result stored to global
    // --- LLVM MSan (1) ---
    LlvmMsanSubConstDefined,         ///< Fig 12f: x - const "defined"
    kCount,
};

constexpr size_t kNumBugs = static_cast<size_t>(BugId::kCount);

/** Static metadata of one injected bug. */
struct BugInfo
{
    BugId id;
    Vendor vendor;
    SanitizerKind sanitizer;
    BugCategory category;
    /** First simulated release containing the defect. */
    int introducedVersion;
    /** Minimum optimization level at which the defect manifests. */
    OptLevel minLevel;
    /**
     * Maximum level (inclusive); O3 means "all levels above minLevel".
     * A few bugs only exist in a band (e.g. only -Os/-O2).
     */
    OptLevel maxLevel;
    /** Did developers confirm the report? (Table 3 "Confirmed"). */
    bool confirmed;
    /** Was it fixed after our report? (Table 3 "Fixed"). */
    bool fixedAfterReport;
    const char *name;
    const char *description;
};

/** The full catalog, indexed by BugId. */
const std::vector<BugInfo> &bugCatalog();

const BugInfo &bugInfo(BugId id);

/**
 * The bugs of one sanitizer active for one compiler configuration.
 * Passes consult this before each (mis)behaving decision, so the
 * constructor evaluates every bug's gate once (vendor, version window,
 * level band) and active() is a bit test.
 *
 * The set is scoped to its sanitizer: asking about a bug of that
 * sanitizer (of either vendor) answers, asking about another
 * sanitizer's bug panics. So (vendor, sanitizer, mask) is all a
 * sanitizer pass can learn of its configuration's bugs, which is what
 * lets compiler::SpecializeInputs compare configurations by it. A
 * default-constructed set belongs to no sanitizer and holds nothing.
 */
class ActiveBugs
{
  public:
    ActiveBugs() = default;

    ActiveBugs(Vendor vendor, int version, OptLevel level,
               SanitizerKind sanitizer);

    bool
    active(BugId id) const
    {
        const uint64_t bit = uint64_t{1} << static_cast<unsigned>(id);
        if (!(scope_ & bit))
            foreignBug(id);
        return mask_ & bit;
    }

    Vendor vendor() const { return vendor_; }
    SanitizerKind sanitizer() const { return sanitizer_; }
    /** Bit i: BugId i is active. */
    uint64_t mask() const { return mask_; }

    friend bool operator==(const ActiveBugs &, const ActiveBugs &) =
        default;

  private:
    static_assert(kNumBugs <= 64, "ActiveBugs packs the catalog in a word");

    [[noreturn]] void foreignBug(BugId id) const;

    Vendor vendor_ = Vendor::GCC;
    SanitizerKind sanitizer_ = SanitizerKind::None;
    /** Bit i: BugId i belongs to sanitizer_. */
    uint64_t scope_ = 0;
    uint64_t mask_ = 0;
};

/** One defect actually influencing a compilation, with the source
 *  location whose check it affected — the fuzzer's ground truth. */
struct BugFiring
{
    BugId id;
    SourceLoc loc;

    friend bool operator==(const BugFiring &, const BugFiring &) = default;
};

/** Everything a compilation wants to tell the fuzzer about itself. */
struct CompileLog
{
    std::vector<BugFiring> firings;

    friend bool operator==(const CompileLog &, const CompileLog &) =
        default;

    void fire(BugId id, SourceLoc loc) { firings.push_back({id, loc}); }
};

} // namespace ubfuzz::san

#endif // UBFUZZ_SANITIZER_BUG_CATALOG_H
