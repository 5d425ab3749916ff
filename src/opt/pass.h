/**
 * @file
 * Optimization pass framework for the simulated compilers.
 *
 * Both vendors share pass implementations but build different pipelines
 * (order, aggressiveness, and which passes run at which level), which is
 * what creates cross-compiler discrepancies for the differential tester.
 * All passes assume the input program has no UB — exactly the assumption
 * that lets real optimizers delete UB code (§1, Challenge 2).
 *
 * The two optimizer halves of the Figure 2 pipeline are written down
 * once, as plain pass lists: earlyPasses (before the sanitizer pass)
 * and latePasses (after the sanitizer-check optimizer). compiler::
 * earlyOptimize and compiler::specialize run them with runPasses and
 * runRound.
 */

#ifndef UBFUZZ_OPT_PASS_H
#define UBFUZZ_OPT_PASS_H

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ir/ir.h"
#include "support/toolchain.h"

namespace ubfuzz::opt {

/**
 * A function pass. It reads and writes only the function it is given,
 * so a round of a list `L ++ E` over a module's functions leaves the
 * module exactly as a round of `L` followed by a round of `E` does:
 * the early-opt prefix tree (earlyOptParent) rests on that.
 */
class Pass
{
  public:
    virtual ~Pass() = default;
    /** Transform @p f. @return true if anything changed. */
    virtual bool run(ir::Function &f) = 0;
};

/** The function passes both vendors' pipelines are composed of. */
enum class PassKind : uint8_t {
    /** Local (block-scoped) constant folding and constant propagation. */
    ConstFold,
    /** Algebraic peepholes, GCC flavour. */
    PeepholeGCC,
    /** LLVM's peepholes: GCC's plus reassociation and x-x. */
    PeepholeLLVM,
    /** Block-local common-subexpression elimination. */
    CSE,
    /** Store-to-load forwarding and redundant load elimination. */
    StoreForward,
    /** Dead-store elimination (overwrite-based + write-only objects). */
    DSE,
    /** Dead pure-instruction elimination. */
    DCE,
    /** Constant branch folding + unreachable block pruning. */
    SimplifyCFG,
    /**
     * GCC -O3 stack-slot lifetime hoisting: small loop-scoped locals
     * are promoted to function scope. A *legitimate* transform that
     * can invalidate use-after-scope UB — the source of the paper's
     * one oracle false alarm (Figure 8).
     */
    LifetimeHoist,
};

inline constexpr size_t kNumPassKinds =
    static_cast<size_t>(PassKind::LifetimeHoist) + 1;

/** Instantiate one pass. */
std::unique_ptr<Pass> createPass(PassKind kind);

/**
 * One instance of each PassKind, created on first use, so the scratch
 * tables a pass grows are reused by every list, round and function
 * run through the set. A list that names one kind twice (ConstFold and
 * DCE at GCC -O2) runs the same instance twice: every pass resets its
 * tables per block or per function, so no result depends on what an
 * instance saw before.
 */
class PassSet
{
  public:
    Pass &get(PassKind kind);

  private:
    std::array<std::unique_ptr<Pass>, kNumPassKinds> passes_;
};

/**
 * The early optimizer for (vendor, level): the passes that run before
 * the sanitizer pass, which is where legitimate UB elimination happens.
 */
std::vector<PassKind> earlyPasses(Vendor vendor, OptLevel level);

/**
 * The late cleanup optimizer, run for one round after the sanitizer
 * pass and its check optimizer. Lighter than the early one and
 * vendor-independent; sanitizer checks are opaque side-effecting
 * instructions here, exactly like __asan_report calls in real
 * compilers.
 */
std::vector<PassKind> latePasses(OptLevel level);

/** Fixpoint rounds of the early optimizer (-O2 and up run it twice). */
int earlyRounds(OptLevel level);

/**
 * One round of @p passes over @p m, `for function { for pass }`,
 * through @p set's instances. @return whether any pass changed
 * anything.
 */
bool runRound(ir::Module &m, std::span<const PassKind> passes,
              PassSet &set);

/**
 * Run @p passes over @p m in the pinned order `for round { for
 * function { for pass } }` (runRound, on a PassSet of its own),
 * stopping after the first round that changes nothing. test_passes
 * pins the binary keys this order produces on a standard seed mix.
 */
void runPasses(ir::Module &m, const std::vector<PassKind> &passes,
               int rounds);

/**
 * The representative (vendor, level) whose early optimizer is
 * identical — same pass list, same fixpoint rounds — to the given
 * point's: the first point, in (vendor, level) order, that runs the
 * same earlyPasses for the same earlyRounds. Both vendors run bare
 * constant folding at -O0, and LLVM's list only changes at the -O2
 * boundary, so -O0 is vendor-independent, LLVM -Os folds into -O1, and
 * LLVM -O3 into -O2. The CompilationCache keys early-opt modules by
 * this point, letting equivalent matrix columns share one optimizer
 * run.
 */
std::pair<Vendor, OptLevel> canonicalEarlyOptPoint(Vendor vendor,
                                                   OptLevel level);

/**
 * The parent of the given point's canonical point in the early-opt
 * prefix tree: the canonical point whose earlyPasses list is the
 * longest proper prefix of its own (the first in (vendor, level) order
 * on a tie), or std::nullopt for a root. Derived once from the lists,
 * which make GCC -O0's bare ConstFold the one root, GCC -O1 <- -O0,
 * -Os <- -O1, -O2 <- -Os, -O3 <- -O2, LLVM -O1 <- GCC -O0 and LLVM
 * -O2 <- LLVM -O1. Round 1 of a point equals round 1 of its parent
 * followed by one round of the passes past the parent's list (see
 * Pass), which is how the CompilationCache builds it.
 */
std::optional<std::pair<Vendor, OptLevel>> earlyOptParent(Vendor vendor,
                                                          OptLevel level);

} // namespace ubfuzz::opt

#endif // UBFUZZ_OPT_PASS_H
