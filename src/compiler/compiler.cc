#include "compiler/compiler.h"

#include "harden/harden.h"
#include "ir/lowering.h"
#include "opt/pass.h"
#include "sanitizer/sanitizer.h"
#include "support/diagnostics.h"
#include "support/serialize.h"

namespace ubfuzz::compiler {

std::string
CompilerConfig::str() const
{
    std::string s = vendorName(vendor);
    s += '-';
    s += std::to_string(effectiveVersion());
    s += " ";
    s += optLevelName(level);
    if (sanitizer != SanitizerKind::None) {
        s += " -fsanitize=";
        s += sanitizerName(sanitizer);
    }
    if (harden != 0) {
        s += " -fharden=";
        s += harden::maskStr(harden);
    }
    return s;
}

ir::Module
lowerOnce(const ast::Program &program, const ast::PrintedProgram &printed,
          CompileStats *stats)
{
    if (stats)
        stats->lowerings++;
    return ir::lowerProgram(program, printed.map);
}

ir::Module
earlyOptimize(ir::Module base, Vendor vendor, OptLevel level,
              CompileStats *stats)
{
    if (stats)
        stats->earlyOptRuns++;
    opt::runPasses(base, opt::earlyPasses(vendor, level),
                   opt::earlyRounds(level));
    return base;
}

Binary
specialize(ir::Module earlyOptimized, const CompilerConfig &config,
           CompileStats *stats)
{
    UBF_ASSERT(vendorSupports(config.vendor, config.sanitizer),
               "sanitizer unsupported by vendor");
    // The clone guard, hoisted from san::instrument so it also covers
    // plain (uninstrumented) specializations of a cached module.
    UBF_ASSERT(earlyOptimized.instrumentedWith == SanitizerKind::None &&
                   earlyOptimized.hardenedWith == 0,
               "module already specialized "
               "(missing ir::cloneModule before specialize?)");
    if (stats)
        stats->specializations++;
    Binary binary;
    binary.config = config;
    binary.module = std::move(earlyOptimized);

    // Figure 2 after the early optimizer: sanitizer pass + check
    // optimizer, one round of late cleanup, then hardening. Hardening
    // runs last — after every optimizer — so no pass ever sees (or
    // deletes) the duplicate/compare instrumentation, mirroring where
    // ASPIS schedules its passes in the real LLVM pipeline.
    san::SanitizerContext sanCtx;
    sanCtx.kind = config.sanitizer;
    sanCtx.bugs = san::ActiveBugs(config.vendor,
                                  config.effectiveVersion(),
                                  config.level);
    sanCtx.log = &binary.log;
    san::instrument(binary.module, sanCtx);
    opt::runPasses(binary.module, opt::latePasses(config.level), 1);
    harden::apply(binary.module, config.harden);

    std::string verr = ir::verifyModule(binary.module);
    UBF_ASSERT(verr.empty(), "post-compile verification failed: ", verr);
    return binary;
}

Binary
compile(const ast::Program &program, const ast::PrintedProgram &printed,
        const CompilerConfig &config)
{
    // One-off path: the module is private at every stage, so it moves
    // through the pipeline without a single clone — the same cost as
    // the pre-staged monolithic compile.
    return specialize(earlyOptimize(lowerOnce(program, printed),
                                    config.vendor, config.level),
                      config);
}

Binary
compileProgram(const ast::Program &program, const CompilerConfig &config)
{
    ast::PrintedProgram printed = ast::printProgram(program);
    return compile(program, printed, config);
}

uint64_t
CompilationCache::baseTextHash() const
{
    if (!baseTextHash_)
        baseTextHash_ = support::fnv1a(printed_.text);
    return *baseTextHash_;
}

Binary
CompilationCache::compile(const CompilerConfig &config)
{
    return specialize(
        ir::cloneModule(earlyOptModule(config.vendor, config.level)),
        config, &stats_);
}

void
CompilationCache::adoptBase(ir::Module base)
{
    UBF_ASSERT(!base_ && earlyOpt_.empty(),
               "adoptBase on a cache that already lowered");
    base_ = std::move(base);
}

SeedLoweringCache::SeedLoweringCache(const ast::Program &base,
                                     CompileStats *stats)
    : base_(lowerOnce(base, ast::printProgram(base), stats))
{
}

ir::Module
SeedLoweringCache::lowerDerived(const ast::Program &derived,
                                const ast::PrintedProgram &printedDerived,
                                uint32_t /*perturbedFnId*/,
                                CompileStats *stats)
{
    if (stats)
        stats->deltaLowerings++;
    return ir::lowerProgram(derived, printedDerived.map);
}

const ir::Module &
CompilationCache::earlyOptModule(Vendor vendor, OptLevel level)
{
    // Equivalent matrix columns (same early pipeline, same rounds)
    // share one entry — and one optimizer run.
    auto point = opt::canonicalEarlyOptPoint(vendor, level);
    auto it = earlyOpt_.find(point);
    if (it != earlyOpt_.end()) {
        stats_.earlyOptCacheHits++;
        return it->second;
    }
    if (!base_)
        base_ = lowerOnce(program_, printed_, &stats_);
    return earlyOpt_
        .emplace(point, earlyOptimize(ir::cloneModule(*base_),
                                      point.first, point.second, &stats_))
        .first->second;
}

} // namespace ubfuzz::compiler
