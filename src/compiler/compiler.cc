#include "compiler/compiler.h"

#include <algorithm>

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

SpecializeInputs
specializeInputs(const CompilerConfig &config)
{
    return {opt::canonicalEarlyOptPoint(config.vendor, config.level),
            opt::latePasses(config.level),
            san::ActiveBugs(config.vendor, config.effectiveVersion(),
                            config.level, config.sanitizer),
            config.harden};
}

namespace {

void
verifyBinary(const ir::Module &m)
{
    std::string verr = ir::verifyModule(m);
    UBF_ASSERT(verr.empty(), "post-compile verification failed: ", verr);
}

/** specialize, running the late round through @p passes. */
Binary
specializeWith(const ir::Module &earlyOptimized,
               const CompilerConfig &config, CompileStats *stats,
               opt::PassSet &passes)
{
    UBF_ASSERT(vendorSupports(config.vendor, config.sanitizer),
               "sanitizer unsupported by vendor");
    UBF_ASSERT(earlyOptimized.instrumentedWith == SanitizerKind::None &&
                   earlyOptimized.hardenedWith == 0,
               "module already specialized (specialize takes an "
               "early-opt module)");
    if (stats)
        stats->specializations++;
    // Everything below reads the configuration through these inputs
    // alone, which is what makes them a reuse key.
    const SpecializeInputs in = specializeInputs(config);
    Binary binary;
    binary.config = config;

    // Figure 2 after the early optimizer: sanitizer pass + check
    // optimizer, one round of late cleanup, then hardening. Hardening
    // runs last — after every optimizer — so no pass ever sees (or
    // deletes) the duplicate/compare instrumentation, mirroring where
    // ASPIS schedules its passes in the real LLVM pipeline.
    san::SanitizerContext sanCtx;
    sanCtx.kind = in.bugs.sanitizer();
    sanCtx.bugs = in.bugs;
    sanCtx.log = &binary.log;
    binary.module = san::instrument(earlyOptimized, sanCtx);
    opt::runRound(binary.module, in.latePasses, passes);
    harden::apply(binary.module, in.harden);
    verifyBinary(binary.module);
    return binary;
}

size_t
slotOf(std::pair<Vendor, OptLevel> point)
{
    return static_cast<size_t>(point.first) * kAllOptLevels.size() +
           static_cast<size_t>(point.second);
}

/** @p state for a new module to start from: moved out when @p last
 *  (nothing else reads it any more), else cloned. */
ir::Module
take(std::optional<ir::Module> &state, bool last)
{
    if (!last)
        return ir::cloneModule(*state);
    ir::Module m = std::move(*state);
    state.reset();
    return m;
}

} // namespace

Binary
specialize(ir::Module earlyOptimized, const CompilerConfig &config,
           CompileStats *stats)
{
    opt::PassSet passes;
    return specializeWith(earlyOptimized, config, stats, passes);
}

Binary
compile(const ast::Program &program, const ast::PrintedProgram &printed,
        const CompilerConfig &config)
{
    // One-off path: the module is private at every stage, so it moves
    // through the pipeline without a clone.
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
    return specializeWith(earlyOptModule(config.vendor, config.level),
                          config, &stats_, passes_);
}

void
CompilationCache::noteReuse(const CompilerConfig &config)
{
    const Point point =
        opt::canonicalEarlyOptPoint(config.vendor, config.level);
    UBF_ASSERT(earlyOpt_[slotOf(point)].requested, "reuse of ",
               config.str(), " before its early-opt point was built");
    stats_.earlyOptCacheHits++;
    stats_.specializations++;
}

ir::Module
CompilationCache::hardenedTwin(const ir::Module &plain,
                               const CompilerConfig &config)
{
    UBF_ASSERT(plain.hardenedWith == 0, "twin of a hardened binary");
    noteReuse(config);
    ir::Module twin = ir::cloneModule(plain);
    harden::apply(twin, config.harden);
    verifyBinary(twin);
    return twin;
}

void
CompilationCache::adoptBase(ir::Module base)
{
    UBF_ASSERT(!base_ && std::none_of(earlyOpt_.begin(), earlyOpt_.end(),
                                      [](const EarlyOptNode &n) {
                                          return n.built();
                                      }),
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

bool
CompilationCache::childPending(std::optional<Point> parent,
                               std::optional<Point> except) const
{
    for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
        for (OptLevel l : kAllOptLevels) {
            const Point p{v, l};
            if (p != except && opt::canonicalEarlyOptPoint(v, l) == p &&
                opt::earlyOptParent(v, l) == parent &&
                !earlyOpt_[slotOf(p)].built())
                return true;
        }
    }
    return false;
}

void
CompilationCache::buildRound1(Point point)
{
    EarlyOptNode &n = earlyOpt_[slotOf(point)];
    if (n.built())
        return;
    const std::vector<opt::PassKind> passes =
        opt::earlyPasses(point.first, point.second);
    const std::optional<Point> parent =
        opt::earlyOptParent(point.first, point.second);
    size_t prefix = 0;
    if (parent) {
        buildRound1(*parent);
        EarlyOptNode &p = earlyOpt_[slotOf(*parent)];
        // A one-round parent's state is its early-opt module, so it
        // is always cloned; a multi-round parent's is free to move
        // once its own module is built and no other child needs it.
        n.round1 = take(p.round1, p.module && !childPending(parent, point));
        n.changed = p.changed;
        prefix = opt::earlyPasses(parent->first, parent->second).size();
    } else {
        if (!base_)
            base_ = lowerOnce(program_, printed_, &stats_);
        n.round1 = take(base_, !childPending(std::nullopt, point));
    }
    n.changed |= opt::runRound(
        *n.round1, std::span(passes).subspan(prefix), passes_);
}

const ir::Module &
CompilationCache::earlyOptModule(Vendor vendor, OptLevel level)
{
    // Equivalent matrix columns (same early pipeline, same rounds)
    // share one entry — and one optimizer run.
    const Point point = opt::canonicalEarlyOptPoint(vendor, level);
    EarlyOptNode &n = earlyOpt_[slotOf(point)];
    if (n.requested) {
        stats_.earlyOptCacheHits++;
        return n.module ? *n.module : *n.round1;
    }
    n.requested = true;
    stats_.earlyOptRuns++;
    buildRound1(point);
    const int rounds = opt::earlyRounds(point.second);
    if (rounds == 1)
        return *n.round1;
    // The rounds after the first, as opt::runPasses runs them: each
    // one only while the last changed something.
    n.module = take(n.round1, !childPending(point));
    const std::vector<opt::PassKind> passes =
        opt::earlyPasses(point.first, point.second);
    bool changed = n.changed;
    for (int round = 1; round < rounds && changed; round++)
        changed = opt::runRound(*n.module, passes, passes_);
    return *n.module;
}

} // namespace ubfuzz::compiler
