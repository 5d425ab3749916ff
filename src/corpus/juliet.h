/**
 * @file
 * The embedded UB test corpus — our stand-in for the NIST Juliet test
 * suite (§4.3). Fixed, curated, minimal programs that each contain one
 * known, sanitizer-detectable UB. The paper's finding (reproduced in
 * bench_paper's Table 4): because these programs exercise only plain
 * textbook patterns, none of them reveals a sanitizer FN bug.
 */

#ifndef UBFUZZ_CORPUS_JULIET_H
#define UBFUZZ_CORPUS_JULIET_H

#include <memory>
#include <vector>

#include "ast/ast.h"
#include "ubgen/ub_kind.h"

namespace ubfuzz::corpus {

struct JulietCase
{
    const char *name;
    ubgen::UBKind kind;
    const char *source;
};

/** The full embedded suite. */
const std::vector<JulietCase> &julietSuite();

/** Parse one case (panics on malformed embedded source). */
std::unique_ptr<ast::Program> parseCase(const JulietCase &c);

} // namespace ubfuzz::corpus

#endif // UBFUZZ_CORPUS_JULIET_H
