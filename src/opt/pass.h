/**
 * @file
 * Optimization pass framework for the simulated compilers.
 *
 * Both vendors share pass implementations but build different pipelines
 * (order, aggressiveness, and which passes run at which level), which is
 * what creates cross-compiler discrepancies for the differential tester.
 * All passes assume the input program has no UB — exactly the assumption
 * that lets real optimizers delete UB code (§1, Challenge 2).
 */

#ifndef UBFUZZ_OPT_PASS_H
#define UBFUZZ_OPT_PASS_H

#include <memory>
#include <string>
#include <utility>

#include "ir/ir.h"
#include "support/toolchain.h"

namespace ubfuzz::opt {

/** Which half of the pipeline a pass list belongs to (Figure 2). */
enum class Stage : uint8_t {
    EarlyOpt, ///< before the sanitizer pass
    LateOpt,  ///< after the sanitizer pass
};

class Pass
{
  public:
    virtual ~Pass() = default;
    virtual const char *name() const = 0;
    /** Transform one function. @return true if anything changed. */
    virtual bool run(ir::Module &m, ir::Function &f) = 0;
};

/** Local (block-scoped) constant folding and constant propagation. */
std::unique_ptr<Pass> createConstFold();
/** Algebraic peepholes; LLVM's flavour adds reassociation and x-x. */
std::unique_ptr<Pass> createPeephole(Vendor vendor);
/** Block-local common-subexpression elimination. */
std::unique_ptr<Pass> createCSE();
/** Store-to-load forwarding and redundant load elimination. */
std::unique_ptr<Pass> createStoreForward();
/** Dead-store elimination (overwrite-based + write-only objects). */
std::unique_ptr<Pass> createDSE();
/** Dead pure-instruction elimination. */
std::unique_ptr<Pass> createDCE();
/** Constant branch folding + unreachable block pruning. */
std::unique_ptr<Pass> createSimplifyCFG();
/**
 * GCC -O3 stack-slot lifetime hoisting: small loop-scoped locals are
 * promoted to function scope. A *legitimate* transform that can
 * invalidate use-after-scope UB — the source of the paper's one
 * oracle false alarm (Figure 8).
 */
std::unique_ptr<Pass> createLifetimeHoist();

/** Fixpoint rounds the Figure 2 pipeline grants @p stage at @p level
 *  (-O2 and up run the early optimizer twice). */
int stageIterations(OptLevel level, Stage stage);

/**
 * The representative (vendor, level) whose *early* pipeline is
 * identical — same pass list, same fixpoint rounds — to the given
 * point's. Both vendors run bare constant folding at -O0, and LLVM's
 * early pipeline only changes shape at the -O2 boundary, so -O0 is
 * vendor-independent, LLVM -Os folds into -O1, and LLVM -O3 into -O2.
 * The CompilationCache keys early-opt modules by this point, letting
 * equivalent matrix columns share one optimizer run.
 *
 * Must be kept in sync with passes::buildEarlyPipeline and
 * stageIterations; the test suite checks that every point shares its
 * representative's pipeline fingerprint and round count, and that both
 * produce identical modules on generated programs.
 */
std::pair<Vendor, OptLevel> canonicalEarlyOptPoint(Vendor vendor,
                                                   OptLevel level);

} // namespace ubfuzz::opt

#endif // UBFUZZ_OPT_PASS_H
