/**
 * @file
 * AST -> IR lowering.
 *
 * Lowering consumes the SourceMap produced by printing the program, so
 * every instruction gets the (line, offset) of the expression it came
 * from — the debug metadata that crash-site mapping depends on.
 *
 * Every program — seed base, UB program, MUSIC mutant, NoSafe or
 * Juliet case — is lowered from scratch by this one entry point.
 * Derived programs are deliberately not lowered incrementally from
 * their seed's module: measured, proving a splice safe cost as much as
 * lowering the whole program.
 */

#ifndef UBFUZZ_IR_LOWERING_H
#define UBFUZZ_IR_LOWERING_H

#include "ast/ast.h"
#include "ast/printer.h"
#include "ir/ir.h"

namespace ubfuzz::ir {

/** Lower @p program to an IR module using @p map for debug locations. */
Module lowerProgram(const ast::Program &program, const ast::SourceMap &map);

/** The register-kind a MiniC type occupies (pointers/arrays are U64). */
ScalarKind scalarKindOf(const ast::Type *t);

} // namespace ubfuzz::ir

#endif // UBFUZZ_IR_LOWERING_H
