/**
 * @file
 * UBGen: the paper's UB program generator (Algorithm 1).
 *
 * Given a valid seed program, UBGen
 *   1. statically matches every expression with the potential for a
 *      target UB kind (GetMatchedExpr, Table 1 column "Code Construct"),
 *   2. instruments a clone of the seed with __log_* profiling calls and
 *      executes it to learn runtime state — pointer targets, buffer
 *      ranges, liveness of each site (Profile, Definition 1),
 *   3. synthesizes a *shadow statement* per matched site and inserts it
 *      into a fresh clone, producing one UB program per site, each with
 *      exactly one precisely-located UB (SynShadowStmt / Insert).
 *
 * The shadow instantiations follow Table 1's last column, with one
 * engineering twist: deltas are computed through unsigned arithmetic
 * (e.g. `bx = (int)((unsigned)v - (unsigned)x)`) so the shadow
 * statement itself can never overflow.
 */

#ifndef UBFUZZ_UBGEN_UBGEN_H
#define UBFUZZ_UBGEN_UBGEN_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "ast/printer.h"
#include "ir/ir.h"
#include "support/rng.h"
#include "ubgen/ub_kind.h"
#include "vm/profile_data.h"

namespace ubfuzz::ubgen {

/** One generated UB program: a mutated clone of the seed. */
struct UBProgram
{
    std::unique_ptr<ast::Program> program;
    UBKind kind = UBKind::BufferOverflowArray;
    /** Node id of the UB-triggering expression (stable across print). */
    uint32_t siteId = 0;
    /**
     * Node id of the FunctionDecl whose body the shadow statement and
     * expression rewrite live in (every structural change to the seed
     * is confined to it, plus appended auxiliary globals); 0 means
     * unknown. Informational: the campaign lowers every UB program
     * from scratch.
     */
    uint32_t perturbedFnId = 0;
    /** Human-readable description of the inserted shadow statement. */
    std::string shadowDesc;

    /** The expected UB location in @p printed (of this->program). */
    SourceLoc
    expectedLoc(const ast::PrintedProgram &printed) const
    {
        return printed.map.loc(siteId);
    }
};

/**
 * Matches and profiles a seed once, then generates UB programs for any
 * requested kind (the paper profiles once per seed for all kinds).
 */
class UBGenerator
{
  public:
    explicit UBGenerator(const ast::Program &seed);
    ~UBGenerator();

    UBGenerator(const UBGenerator &) = delete;
    UBGenerator &operator=(const UBGenerator &) = delete;

    /** Number of statically matched sites for a kind. */
    size_t matchCount(UBKind kind) const;

    /** Did the profiling execution complete? */
    bool profiled() const;

    /**
     * Algorithm 1: one UB program per matched, live site of @p kind
     * (capped at @p cap). Programs whose site was not reached during
     * profiling are skipped.
     */
    std::vector<UBProgram> generate(UBKind kind, Rng &rng,
                                    size_t cap = SIZE_MAX);

    /** All kinds at once (the default testing mode, §3.2.2). */
    std::vector<UBProgram> generateAll(Rng &rng,
                                       size_t capPerKind = SIZE_MAX);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Step budget of every ground-truth validation run. Deliberately fixed
 * — it bounds the precise checker, not the differential testing the
 * campaign's `--step-limit` controls — and shared by both validation
 * entry points so they can never drift apart.
 */
inline constexpr uint64_t kGroundTruthStepLimit = 2'000'000;

/**
 * Ground-truth validation: compile at -O0 without sanitizers and run
 * the precise checker. @return true iff the program exhibits exactly
 * the expected UB kind at the expected location.
 */
bool validateUBProgram(const UBProgram &ub);

/**
 * The same check against an already-lowered module of @p ub (printed
 * as @p printed), executed through @p machine — the campaign's hot
 * path, which reuses both the module (for the testing matrix) and one
 * classifier machine per unit.
 */
bool validateUBModule(const UBProgram &ub, const ir::Module &mod,
                      const ast::PrintedProgram &printed,
                      vm::Machine &machine);

} // namespace ubfuzz::ubgen

#endif // UBFUZZ_UBGEN_UBGEN_H
