/**
 * @file
 * The pass registry: one namespace of ModulePass factories, and the
 * pipeline builders that replaced the hardcoded sequences in
 * compiler::earlyOptimize / compiler::specialize.
 *
 * Three families are registered at startup:
 *  - the seven opt::Pass function passes, wrapped by a
 *    function-to-module adapter ("constfold", "peephole.gcc", ...),
 *  - the sanitizer stage ("asan"/"ubsan"/"msan" + "sanopt"),
 *  - the hardening passes ("harden.dup", "harden.sig").
 *
 * Registration panics on a duplicate name or a colliding pipelineId
 * (EXPECT_DEATH-tested): silently shadowing a pass would corrupt every
 * cache keyed by a pipeline fingerprint.
 */

#ifndef UBFUZZ_PASSES_REGISTRY_H
#define UBFUZZ_PASSES_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "passes/pass.h"

namespace ubfuzz::passes {

/** An instantiated pipeline: passes run in sequence. */
using Pipeline = std::vector<std::unique_ptr<ir::ModulePass>>;

class PassRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<ir::ModulePass>()>;

    /** The process-wide registry, with the built-in families already
     *  registered. */
    static PassRegistry &instance();

    /**
     * Register a pass. @p pipelineId must be unique across the
     * registry, like @p name; either collision panics. Thread-safety:
     * registration happens during static init / first use — callers
     * adding test passes do so single-threaded.
     */
    void add(const std::string &name, uint64_t pipelineId, Factory f);

    /** Instantiate a registered pass; panics on an unknown name. */
    std::unique_ptr<ir::ModulePass> create(const std::string &name) const;

    bool has(const std::string &name) const;

  private:
    PassRegistry() = default;
    struct Entry
    {
        uint64_t id;
        Factory factory;
    };
    std::vector<std::pair<std::string, Entry>> entries_;
};

/**
 * The early-optimizer pipeline for (vendor, level), built from
 * registry lookups. Both vendors share the pass implementations but
 * differ in order and in which passes run at which level, which is
 * what creates cross-compiler discrepancies.
 */
Pipeline buildEarlyPipeline(Vendor vendor, OptLevel level);

/**
 * The specialization pipeline for a full configuration: sanitizer
 * family + sanopt (when a sanitizer is on), the late-opt cleanup
 * round, then the requested hardening passes. Hardening runs last —
 * after every optimizer — so no pass ever sees (or deletes) the
 * duplicate/compare instrumentation, mirroring where ASPIS schedules
 * its passes in the real LLVM pipeline.
 */
Pipeline buildSpecializePipeline(Vendor vendor, OptLevel level,
                                 SanitizerKind sanitizer,
                                 uint32_t hardenMask);

/** FNV-1a over the pipeline's pipelineId sequence — the identity cache
 *  keys absorb. Byte-identical pipelines have equal fingerprints. */
uint64_t pipelineFingerprint(const Pipeline &pipeline);

/** Memoized fingerprint of buildEarlyPipeline(vendor, level) — the
 *  hot-path form CompilationCache keys on (no allocation per query). */
uint64_t earlyPipelineFingerprint(Vendor vendor, OptLevel level);

/**
 * Run @p pipeline over @p m. Module passes run once, in order; maximal
 * consecutive runs of function-pass adapters execute as one group in
 * nested order (`for iter < ctx.iterations { for function { for pass
 * } }`, breaking when an iteration changes nothing). test_passes pins
 * the binary keys this order produces on a standard seed mix.
 */
void runModulePipeline(ir::Module &m, const Pipeline &pipeline,
                       ir::PassContext &ctx);

} // namespace ubfuzz::passes

#endif // UBFUZZ_PASSES_REGISTRY_H
