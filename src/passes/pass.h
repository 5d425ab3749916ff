/**
 * @file
 * The unified module-pass interface: one pass family for optimizers,
 * sanitizer instrumentation, and hardening.
 *
 * Before this layer existed the repository had two pass systems living
 * side by side: the seven `opt::Pass` function passes and the
 * sanitizer stage (a hardcoded triple of free functions dispatched by
 * san::instrument).
 * Every new instrumentation family meant another special case in
 * compiler::specialize and the caches. Now everything the compiler
 * runs between lowering and verification is an ir::ModulePass with a
 * stable pipelineId, and passes::PassRegistry builds the
 * per-(vendor, level, instrumentation-set) pipelines.
 *
 * Determinism contract: the function-to-module adapter groups in
 * passes::runModulePipeline execute in a fixed nested order (`for
 * iteration { for function { for pass } }` with a fixpoint break);
 * test_passes pins the binary keys it produces on a standard seed mix.
 */

#ifndef UBFUZZ_PASSES_PASS_H
#define UBFUZZ_PASSES_PASS_H

#include <cstdint>

#include "ir/ir.h"
#include "support/toolchain.h"

namespace ubfuzz::san {
struct SanitizerContext;
}

namespace ubfuzz::opt {
class Pass;
}

namespace ubfuzz::ir {

/**
 * Everything a module pass may consult about its compilation point.
 * Optimizer adapters read (vendor, level, iterations); instrumentation
 * passes read `san` / `hardenMask`. One context serves a whole
 * pipeline run.
 */
struct PassContext
{
    Vendor vendor = Vendor::GCC;
    OptLevel level = OptLevel::O0;
    /** Sanitizer stage inputs; null outside specialization. */
    const san::SanitizerContext *san = nullptr;
    /** Requested hardening families (harden::k* bits). */
    uint32_t hardenMask = 0;
    /** Fixpoint rounds granted to function-pass adapter groups
     *  (opt::stageIterations of the stage being run). */
    int iterations = 1;

    /**
     * The per-family-once invariant, generalized from what used to be
     * san::instrument's private panic: a module records which
     * instrumentation families ran on it (Module::instrumentedWith,
     * Module::hardenedWith), and re-running any family panics — the
     * symptom of specializing a cached module without cloning it
     * first. Instrumentation passes call these instead of assigning
     * the fields directly.
     */
    static void noteInstrumented(Module &m, SanitizerKind kind);
    /** @p familyBit is one harden::k* bit. Panics when already set. */
    static void noteHardened(Module &m, uint32_t familyBit);
};

/**
 * A whole-module transformation with a registry identity. `name` keys
 * registration and diagnostics; `pipelineId` is the stable 64-bit
 * identity that cache keys absorb (two registry builds of the same
 * point produce identical pipelineId sequences, and a pass whose
 * behaviour changes must change its id).
 */
class ModulePass
{
  public:
    virtual ~ModulePass() = default;
    virtual const char *name() const = 0;
    virtual uint64_t pipelineId() const = 0;
    virtual void run(Module &m, PassContext &ctx) = 0;
    /**
     * Non-null when this pass is a wrapped opt::Pass. The pipeline
     * runner batches maximal runs of adapters into one nested-order
     * fixpoint group.
     */
    virtual opt::Pass *asFunctionPass() { return nullptr; }
};

} // namespace ubfuzz::ir

#endif // UBFUZZ_PASSES_PASS_H
