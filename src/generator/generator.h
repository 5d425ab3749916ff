/**
 * @file
 * The random seed-program generator (the repository's Csmith).
 *
 * Generates valid, self-contained, deterministic MiniC programs that
 * are free of undefined behavior: array indices are masked into range,
 * pointers always reference live objects, divisions and shifts are
 * guarded by Csmith-style safe wrappers, and wide signed arithmetic is
 * performed through unsigned intermediates. Programs end with a
 * checksum epilogue over the global state so that semantic differences
 * between optimization levels are observable (§4.1: "programs
 * generated by Csmith are self-contained").
 *
 * `safeMath = false` reproduces the paper's Csmith-NoSafe baseline
 * (§4.3): wrappers around divisions, shifts, and wide signed
 * arithmetic are omitted, so the three arithmetic UB kinds can occur
 * at runtime — and only those.
 */

#ifndef UBFUZZ_GENERATOR_GENERATOR_H
#define UBFUZZ_GENERATOR_GENERATOR_H

#include <cstdint>
#include <memory>

#include "ast/ast.h"

namespace ubfuzz::gen {

struct GeneratorConfig
{
    uint64_t seed = 1;
    /** Csmith safe wrappers; false = Csmith-NoSafe baseline. */
    bool safeMath = true;
    /** Helper functions in addition to main. */
    int maxFunctions = 2;
    int maxGlobals = 10;
    int maxStmtsPerBlock = 7;
};

/** Generate one program. Deterministic in the config (incl. seed). */
std::unique_ptr<ast::Program> generateProgram(const GeneratorConfig &cfg);

} // namespace ubfuzz::gen

#endif // UBFUZZ_GENERATOR_GENERATOR_H
