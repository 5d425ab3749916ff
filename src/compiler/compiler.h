/**
 * @file
 * The compiler facade: one call that plays the role of
 * `gcc-13 -O2 -g -fsanitize=address a.c` in the paper.
 *
 * Pipeline (Figure 2): lower -> early optimizer passes -> sanitizer
 * pass -> sanitizer-check optimizer -> late optimizer passes, then the
 * optional hardening passes. The pass lists live in opt/pass.h. Debug
 * metadata (-g) is always on. The resulting Binary carries the compile
 * log of injected-bug firings, which the fuzzer uses as ground truth
 * when evaluating the crash-site mapping oracle.
 *
 * The pipeline is staged so the campaign's inner loop compiles once
 * and specializes many times:
 *
 *   lowerOnce      AST + SourceMap -> base module   (per program)
 *   earlyOptimize  base -> post-early-opt module    (per vendor/level)
 *   specialize     early-opt -> Binary              (per full config)
 *
 * Early optimization depends only on (vendor, level) — never on the
 * sanitizer or the simulated version — so a CompilationCache lets the
 * whole ASan/UBSan/MSan testing matrix share one lowering and one
 * early-opt run per (vendor, level). Caches are single-threaded by
 * design: the orchestrator gives every campaign unit its own, which
 * keeps `--jobs N` bit-identical to a sequential run.
 */

#ifndef UBFUZZ_COMPILER_COMPILER_H
#define UBFUZZ_COMPILER_COMPILER_H

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "ast/ast.h"
#include "ast/printer.h"
#include "ir/ir.h"
#include "ir/lowering.h"
#include "sanitizer/bug_catalog.h"
#include "support/toolchain.h"

namespace ubfuzz::compiler {

struct CompilerConfig
{
    Vendor vendor = Vendor::GCC;
    /** Simulated release; 0 means trunk (the campaign default). */
    int version = 0;
    OptLevel level = OptLevel::O0;
    SanitizerKind sanitizer = SanitizerKind::None;
    /** Hardening families to apply after every optimizer
     *  (harden::k* bits); 0 — the default — hardens nothing. */
    uint32_t harden = 0;

    int
    effectiveVersion() const
    {
        return version == 0 ? trunkVersion(vendor) : version;
    }

    /** Command-line-style rendering, e.g. "gcc-14 -O2 -fsanitize=asan". */
    std::string str() const;

    friend bool
    operator==(const CompilerConfig &a, const CompilerConfig &b)
    {
        return a.vendor == b.vendor && a.version == b.version &&
               a.level == b.level && a.sanitizer == b.sanitizer &&
               a.harden == b.harden;
    }
};

/** A compiled artifact: IR plus debug metadata plus the compile log. */
struct Binary
{
    ir::Module module;
    san::CompileLog log;
    CompilerConfig config;
};

/**
 * Execution counters for the staged pipeline. The campaign accumulates
 * these per unit (CampaignStats::compile) and bench_throughput prints
 * them, making hot-path regressions — a reintroduced re-lowering or
 * double compile — visible as a counter jump instead of a silent
 * slowdown.
 */
struct CompileStats
{
    /**
     * Full lowerings of a seed base (SeedLoweringCache) or of a
     * directly classified program (NoSafe, Juliet). A campaign does
     * one per productive seed: `lowerings == productive seeds`.
     */
    size_t lowerings = 0;
    /**
     * Full lowerings of derived programs (UB programs and MUSIC
     * mutants, through SeedLoweringCache::lowerDerived), one each,
     * counted apart from `lowerings` so that identity stays per seed.
     */
    size_t deltaLowerings = 0;
    /** Always 0: derived programs no longer have a cheaper path to
     *  fall back from. Kept because the serialized stats carry it. */
    size_t deltaFallbacks = 0;
    /** Early-optimizer pipeline executions. */
    size_t earlyOptRuns = 0;
    /** Early-opt requests served from a CompilationCache entry. */
    size_t earlyOptCacheHits = 0;
    /** Sanitizer + late-opt specializations (one per Binary built). */
    size_t specializations = 0;
    /**
     * Debugger (tracing) re-executions of retained modules, each of
     * which was a full second compile of a silent binary before the
     * staged pipeline. The pre-refactor campaign performed
     * `specializations + traceExecutions` compiles (each with its own
     * lowering and early opt); the staged one performs exactly
     * `specializations`.
     */
    size_t traceExecutions = 0;

    void
    merge(const CompileStats &o)
    {
        lowerings += o.lowerings;
        deltaLowerings += o.deltaLowerings;
        deltaFallbacks += o.deltaFallbacks;
        earlyOptRuns += o.earlyOptRuns;
        earlyOptCacheHits += o.earlyOptCacheHits;
        specializations += o.specializations;
        traceExecutions += o.traceExecutions;
    }

    friend bool operator==(const CompileStats &, const CompileStats &) =
        default;
};

/**
 * Stage 1: lower the printed program to the shared base module. The
 * PrintedProgram's SourceMap is the single source of truth for (line,
 * offset) debug locations, so binaries of the same printed text are
 * comparable by crash site.
 */
ir::Module lowerOnce(const ast::Program &program,
                     const ast::PrintedProgram &printed,
                     CompileStats *stats = nullptr);

/**
 * Stage 2: run the early optimizer on @p base and return it. Early
 * opt is where legitimate UB elimination happens (Challenge 2); it
 * depends only on (vendor, level), so its result is shared by every
 * sanitizer and version at that point of the matrix.
 *
 * Takes the module by value: move a throwaway in, or pass
 * ir::cloneModule(shared) when the original must survive.
 */
ir::Module earlyOptimize(ir::Module base, Vendor vendor, OptLevel level,
                         CompileStats *stats = nullptr);

/**
 * Stage 3: run everything that depends on the full configuration on
 * @p earlyOptimized — sanitizer instrumentation (with its
 * version-gated injected bugs), sanitizer-check optimization, one
 * round of opt::latePasses, harden::apply, and verification — and wrap
 * it in a Binary.
 *
 * Takes the module by value, like earlyOptimize: cached modules must
 * come in as ir::cloneModule copies (specialize panics if a module is
 * ever specialized twice).
 */
Binary specialize(ir::Module earlyOptimized,
                  const CompilerConfig &config,
                  CompileStats *stats = nullptr);

/**
 * Compile an already-printed program: lowerOnce + earlyOptimize +
 * specialize, uncached. One-off callers (examples, tests) use this;
 * the campaign hot path goes through CompilationCache.
 */
Binary compile(const ast::Program &program,
               const ast::PrintedProgram &printed,
               const CompilerConfig &config);

/** Convenience overload that prints internally. */
Binary compileProgram(const ast::Program &program,
                      const CompilerConfig &config);

/**
 * Per-program memoization of the compile-once stages: the lowered base
 * module, and the post-early-opt module per (vendor, level). One cache
 * serves a whole testing matrix — every sanitizer row reuses the same
 * early-opt modules. Not thread-safe; intended to live inside one
 * campaign unit (the orchestrator's parallelism is across units).
 */
class CompilationCache
{
  public:
    /** @p program and @p printed must outlive the cache. */
    CompilationCache(const ast::Program &program,
                     const ast::PrintedProgram &printed)
        : program_(program), printed_(printed)
    {
    }

    CompilationCache(const CompilationCache &) = delete;
    CompilationCache &operator=(const CompilationCache &) = delete;

    /** Compile under @p config, reusing every cached stage. The result
     *  is bit-identical to compile(program, printed, config). */
    Binary compile(const CompilerConfig &config);

    /** Account one debugger (tracing) re-execution of a binary built
     *  from this cache — what used to be a recompile. */
    void noteTraceExecution() { stats_.traceExecutions++; }

    /**
     * Hash of the printed base text every binary of this cache is
     * compiled from (memoized support::fnv1a(printed.text)). Two
     * caches with equal hashes compile identical binaries under every
     * config — the key the campaign's cross-seed corpus dedup is built
     * on.
     */
    uint64_t baseTextHash() const;

    /**
     * Seed the lowered base module instead of lowering on first use,
     * for callers that already lowered the program (e.g. the
     * campaign's ground-truth classifier). @p base must be the result
     * of lowering `program` against `printed.map`. Only valid on a
     * fresh cache.
     */
    void adoptBase(ir::Module base);

    const CompileStats &stats() const { return stats_; }

  private:
    const ir::Module &earlyOptModule(Vendor vendor, OptLevel level);

    const ast::Program &program_;
    const ast::PrintedProgram &printed_;
    /** Lowered base module; built on first use. */
    std::optional<ir::Module> base_;
    /**
     * Post-early-opt modules keyed by the canonical (vendor, level)
     * point, which opt::canonicalEarlyOptPoint derives from the early
     * pass lists themselves: two points share an entry only when they
     * run the same passes for the same rounds.
     */
    std::map<std::pair<Vendor, OptLevel>, ir::Module> earlyOpt_;
    /** Memoized support::fnv1a(printed_.text); computed on first
     *  use. */
    mutable std::optional<uint64_t> baseTextHash_;
    CompileStats stats_;
};

/**
 * A seed's clean base module, lowered eagerly once per productive
 * seed; harden mode's fault oracle specializes it. The programs a
 * campaign derives from the seed (UB programs, MUSIC mutants) are
 * lowered from scratch through lowerDerived, which counts them.
 */
class SeedLoweringCache
{
  public:
    /** Print and lower @p base (the seed's clean program); counts one
     *  lowering in @p stats. Keeps no reference to @p base. */
    explicit SeedLoweringCache(const ast::Program &base,
                               CompileStats *stats = nullptr);

    SeedLoweringCache(const SeedLoweringCache &) = delete;
    SeedLoweringCache &operator=(const SeedLoweringCache &) = delete;

    /** ir::lowerProgram(@p derived, @p printedDerived.map), counted as
     *  one deltaLowering in @p stats. @p perturbedFnId is unused. */
    ir::Module lowerDerived(const ast::Program &derived,
                            const ast::PrintedProgram &printedDerived,
                            uint32_t perturbedFnId,
                            CompileStats *stats = nullptr);

    /** The seed's clean base module (lowered in the constructor). */
    const ir::Module &baseModule() const { return base_; }

  private:
    ir::Module base_;
};

} // namespace ubfuzz::compiler

#endif // UBFUZZ_COMPILER_COMPILER_H
