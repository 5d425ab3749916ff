/**
 * @file
 * Sanitizer instrumentation passes for the simulated compilers.
 *
 * Mirrors the paper's Figure 2 pipeline position: the passes run after
 * the early optimizer and before the late optimizer. Each pass consults
 * the ActiveBugs set of its own sanitizer (vendor + version + level
 * gates) and records every defect that influenced the output in the
 * CompileLog — the campaign's ground truth for oracle evaluation
 * (RQ3).
 */

#ifndef UBFUZZ_SANITIZER_SANITIZER_H
#define UBFUZZ_SANITIZER_SANITIZER_H

#include "ir/ir.h"
#include "sanitizer/bug_catalog.h"
#include "support/toolchain.h"

namespace ubfuzz::san {

/** Everything a sanitizer pass needs to know about its compilation. */
struct SanitizerContext
{
    SanitizerKind kind = SanitizerKind::None;
    /** The active bugs of `kind` alone (ActiveBugs panics when a pass
     *  asks about another sanitizer's). */
    ActiveBugs bugs;
    CompileLog *log = nullptr;

    void
    fire(BugId id, SourceLoc loc = {}) const
    {
        if (log)
            log->fire(id, loc);
    }
};

/*
 * The instrumenting passes read every body of @p src and write its
 * instrumented form into @p m, which starts as
 * ir::cloneModuleWithoutBodies(@p src): what a pass does not rewrite
 * (globals, frames, call arguments) is copied once, and no body is
 * copied only to be replaced.
 */

/** AddressSanitizer: redzones, shadow checks, lifetime poisoning. */
void runAsanPass(const ir::Module &src, ir::Module &m,
                 const SanitizerContext &ctx);

/** UndefinedBehaviorSanitizer: arith/shift/div/null/bounds checks. */
void runUbsanPass(const ir::Module &src, ir::Module &m,
                  const SanitizerContext &ctx);

/** MemorySanitizer: definedness checks at branches and outputs. */
void runMsanPass(const ir::Module &src, ir::Module &m,
                 const SanitizerContext &ctx);

/**
 * The sanitizer-check optimizer (GCC's sanopt / LLVM's check
 * elimination): removes provably-redundant checks. Several injected
 * bugs (the "Incorrect Sanitizer Optimization" category) live here.
 */
void runSanOpt(ir::Module &m, const SanitizerContext &ctx);

/**
 * @p src instrumented by the configured sanitizer pass followed by
 * sanopt, as a new module; @p src is only read, so a cached early-opt
 * module is instrumented without being cloned first. Without a
 * sanitizer the result is a copy of @p src. Panics when @p src was
 * already instrumented.
 */
ir::Module instrument(const ir::Module &src, const SanitizerContext &ctx);

} // namespace ubfuzz::san

#endif // UBFUZZ_SANITIZER_SANITIZER_H
