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
 *   specialize     early-opt -> Binary              (per distinct
 *                                                    SpecializeInputs)
 *
 * Early optimization depends only on (vendor, level) — never on the
 * sanitizer or the simulated version — so a CompilationCache lets the
 * whole ASan/UBSan/MSan testing matrix share one lowering and one
 * early-opt module per (vendor, level), each built by extending the
 * point whose pass list its own extends (opt::earlyOptParent). Caches
 * are single-threaded by design: the orchestrator gives every campaign
 * unit its own, which keeps `--jobs N` bit-identical to a sequential
 * run.
 */

#ifndef UBFUZZ_COMPILER_COMPILER_H
#define UBFUZZ_COMPILER_COMPILER_H

#include <array>
#include <optional>
#include <string>
#include <utility>

#include "ast/ast.h"
#include "ast/printer.h"
#include "ir/ir.h"
#include "ir/lowering.h"
#include "opt/pass.h"
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
 * Everything specialize reads besides the early-opt module it is
 * given. specialize builds its sanitizer context, late round and
 * hardening from these fields alone, so two configurations with equal
 * inputs specialize one early-opt module into the same binary and the
 * same compile log: the reuse key of oracle::ExecutionPlan::compile.
 * A configuration's level enters only through its early-opt point,
 * its late list and its bug set, and its version only through the bug
 * set: LLVM -O3 reuses -O2 in every row, and LLVM -Os reuses -O1 in
 * the ASan and MSan rows (llvm-ubsan-mul-as-add is the one LLVM bug
 * gated at -Os).
 */
struct SpecializeInputs
{
    /** The canonical early-opt point, opt::canonicalEarlyOptPoint:
     *  which early-opt module of a cache is specialized. */
    std::pair<Vendor, OptLevel> earlyOptPoint;
    /** The late round, opt::latePasses(level). */
    std::vector<opt::PassKind> latePasses;
    /** The sanitizer, the vendor (it picks the Table 5 coverage sites
     *  the passes hit) and that sanitizer's active bugs. */
    san::ActiveBugs bugs;
    /** harden::apply's mask. */
    uint32_t harden = 0;

    friend bool operator==(const SpecializeInputs &,
                           const SpecializeInputs &) = default;
};

SpecializeInputs specializeInputs(const CompilerConfig &config);

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
    /**
     * Early-opt modules built: each earlyOptimize call, and each
     * canonical point's first request to a CompilationCache. A point
     * the cache builds only as a prefix of another (opt::
     * earlyOptParent) counts nothing until it is asked for itself.
     * Every specialization asks for exactly one early-opt module, so
     * `earlyOptRuns + earlyOptCacheHits == specializations`.
     */
    size_t earlyOptRuns = 0;
    /** Early-opt requests served from a CompilationCache entry: a
     *  canonical point's every request after its first. */
    size_t earlyOptCacheHits = 0;
    /**
     * Specialization requests: one per matrix cell and one per
     * hardened twin, whether specialized, reused from a cell with the
     * same SpecializeInputs, or derived from its plain binary
     * (CompilationCache::noteReuse). Each asks for one early-opt
     * module, which a reused cell or a twin finds built.
     */
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

    /** Every counter once, in wire order: merge and the serializer
     *  (support/serialize.h) both walk this list. */
    static constexpr size_t CompileStats::*kCounters[] = {
        &CompileStats::lowerings,         &CompileStats::deltaLowerings,
        &CompileStats::deltaFallbacks,    &CompileStats::earlyOptRuns,
        &CompileStats::earlyOptCacheHits, &CompileStats::specializations,
        &CompileStats::traceExecutions,
    };

    void
    merge(const CompileStats &o)
    {
        for (auto counter : kCounters)
            this->*counter += o.*counter;
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
 * it in a Binary. It reads the configuration only through
 * specializeInputs.
 *
 * Takes the module by value, like earlyOptimize. The sanitizer pass
 * reads it and writes a new module, so CompilationCache::compile
 * specializes its cached modules in place of a clone. Panics when
 * @p earlyOptimized is a binary already (instrumented or hardened).
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
 * module, and the post-early-opt module per canonical (vendor, level)
 * point. One cache serves a whole testing matrix — every sanitizer row
 * reuses the same early-opt modules.
 *
 * The canonical points form a prefix tree (opt::earlyOptParent), and
 * the cache builds each point from its parent instead of from the
 * base. It keeps each point's round-1 state: one round of the point's
 * list over the base, and whether that changed anything. The root
 * takes the base by move; every other point takes its parent's state,
 * runs one round of only the passes past the parent's list and ORs
 * their changed bit into the parent's. That is exact because a pass
 * reads and writes only the function it is given (opt::Pass). A
 * point's early-opt module is its state plus the further rounds
 * opt::runPasses would run: one more full round at -O2 and up when
 * round 1 changed anything. A state is cloned while something else
 * still reads it and moved otherwise (a one-round point's state is
 * its early-opt module; a two-round point's feeds its children and
 * its own next round), so the cache never holds more modules than the
 * base plus one per point: GCC -O2's state lives beside its module
 * only until GCC -O3 takes it. For a full ASan or UBSan row that is
 * 50 pass runs per function where running each point from the base
 * took 79.
 *
 * The cache owns one opt::PassSet, which every early-opt round and
 * every specialization's late round run through. Not thread-safe;
 * intended to live inside one campaign unit (the orchestrator's
 * parallelism is across units).
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

    /**
     * Count a specialization of @p config that is served without
     * specializing: a cell whose SpecializeInputs equal a cell this
     * cache already built (oracle::ExecutionPlan::compile copies that
     * binary), or a hardened twin (hardenedTwin). It counts what
     * compile(@p config) would, one specialization and one early-opt
     * cache hit, and panics unless @p config's early-opt point was
     * asked for before, as the built cell's must have been.
     */
    void noteReuse(const CompilerConfig &config);

    /**
     * The module compile(@p config) builds, derived from @p plain:
     * this cache's binary of @p config at harden mask 0 (or one with
     * the same ir::BinaryKey). harden::apply runs last in specialize
     * and does nothing at mask 0, so hardening a copy of @p plain and
     * verifying it is all that differs; the twin's compile log is its
     * plain binary's, since hardening fires no bug. Counts
     * noteReuse(@p config).
     */
    ir::Module hardenedTwin(const ir::Module &plain,
                            const CompilerConfig &config);

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

    /**
     * The early-opt module compile specializes for (@p vendor,
     * @p level): bit-identical to earlyOptimize(cloneModule(base),
     * vendor, level). The point's first request counts one
     * earlyOptRun, every later one an earlyOptCacheHit; compile makes
     * exactly one request. Valid while the cache lives.
     */
    const ir::Module &earlyOptModule(Vendor vendor, OptLevel level);

  private:
    using Point = std::pair<Vendor, OptLevel>;

    /** A canonical early-opt point's node in the prefix tree. */
    struct EarlyOptNode
    {
        /** One round of the point's list over the base; dropped once
         *  it has moved into the last module that needs it. */
        std::optional<ir::Module> round1;
        /** Whether round 1 changed anything. */
        bool changed = false;
        /** A multi-round point's early-opt module (a one-round
         *  point's is round1), built on its first request. */
        std::optional<ir::Module> module;
        /** Asked for by compile (counted), not only built as a
         *  prefix. */
        bool requested = false;

        bool built() const { return round1 || module; }
    };

    /** Build @p point's round-1 state, and its ancestors' first. */
    void buildRound1(Point point);
    /** Is a canonical point whose parent is @p parent (a root when
     *  nullopt), other than @p except, not built yet? */
    bool childPending(std::optional<Point> parent,
                      std::optional<Point> except = std::nullopt) const;

    const ast::Program &program_;
    const ast::PrintedProgram &printed_;
    /** Lowered base module; built on first use, moved into the
     *  root's state. */
    std::optional<ir::Module> base_;
    /**
     * Early-opt nodes indexed by vendor * 5 + level; only the
     * canonical points' (opt::canonicalEarlyOptPoint, derived from the
     * early pass lists themselves) are used: two points share an
     * entry only when they run the same passes for the same rounds.
     */
    std::array<EarlyOptNode, 2 * kAllOptLevels.size()> earlyOpt_;
    opt::PassSet passes_;
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
