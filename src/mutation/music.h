/**
 * @file
 * The MUSIC baseline (§4.3): a mutation-testing style program mutator.
 *
 * MUSIC mutates a valid program's AST into syntactically valid mutants
 * with *no* semantic guarantees — most mutants remain UB-free, which is
 * exactly why it is a weak UB program generator (Table 4: ~4% of its
 * mutants contain UB, covering few kinds).
 *
 * Operators modeled on MUSIC's classic set:
 *   OAAN  arithmetic operator replacement        (+ -> *, / -> -, ...)
 *   ORRN  relational operator replacement        (< -> >=, ...)
 *   OLLN  logical connector replacement          (&& <-> ||)
 *   OBBN  bitwise operator replacement           (& <-> |)
 *   CRCR  constant replacement                   (c -> 0, 1, -c, c±1)
 *   SDL   statement deletion
 *   OCNG  condition negation
 */

#ifndef UBFUZZ_MUTATION_MUSIC_H
#define UBFUZZ_MUTATION_MUSIC_H

#include <memory>

#include "ast/ast.h"
#include "support/rng.h"

namespace ubfuzz::mutation {

/**
 * Produce one random mutant of @p seed (nullptr when the program
 * offers no mutation opportunity). Deterministic in @p rng.
 *
 * Every MUSIC operator perturbs exactly one function body of a
 * node-id-preserving clone; when @p perturbedFnId is non-null it
 * receives the FunctionDecl nodeId of that function (0 when no mutant
 * was produced). Like UBGen's UBProgram::perturbedFnId, the handle is
 * informational: the campaign lowers every mutant from scratch.
 */
std::unique_ptr<ast::Program> musicMutate(const ast::Program &seed,
                                          Rng &rng,
                                          uint32_t *perturbedFnId = nullptr);

} // namespace ubfuzz::mutation

#endif // UBFUZZ_MUTATION_MUSIC_H
