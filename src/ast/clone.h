/**
 * @file
 * Deep cloning of MiniC programs.
 *
 * UBGen generates one UB program per matched expression by cloning the
 * seed and mutating the clone. Node ids are preserved across the clone so
 * that anything recorded against the seed (matched expression ids,
 * profiling site ids, insertion points) can be located in the clone.
 *
 * With the arena representation a clone is a chunk memcpy plus a
 * context-pointer patch: node ids, arena indices, child indices, and
 * TypeRefs all carry over verbatim, so no per-node rebuild and no
 * id-map reconstruction happen.
 */

#ifndef UBFUZZ_AST_CLONE_H
#define UBFUZZ_AST_CLONE_H

#include <cstdint>
#include <memory>

#include "ast/ast.h"

namespace ubfuzz::ast {

/** A cloned program; node lookups go through the context's dense
 *  id -> arena-index vector (rebuilding a map per clone is gone). */
struct ClonedProgram
{
    std::unique_ptr<Program> program;

    /** Find a cloned node by the (preserved) node id; null if absent. */
    Node *
    find(uint32_t nodeId) const
    {
        return program->ctx().nodeById(nodeId);
    }

    template <typename T>
    T *
    findAs(uint32_t nodeId) const
    {
        Node *n = find(nodeId);
        UBF_ASSERT(n, "node id ", nodeId, " not present in clone");
        return n->as<T>();
    }
};

/** Deep-clone @p src, preserving node ids (arena memcpy + patch). */
ClonedProgram cloneProgram(const Program &src);

/** Number of cloneProgram calls so far in this process (monotonic).
 *  Lets callers assert how many clones an operation performed. */
uint64_t cloneProgramCallCount();

/**
 * Structurally copy an expression *within the same program*: the copy
 * gets fresh node ids but references the same declarations and types.
 * Used when an expression must appear twice (e.g. a profiling call
 * logging the value of a pointer sub-expression). @p e must be pure.
 */
Expr *cloneExprInto(Program &dst, const Expr *e);

} // namespace ubfuzz::ast

#endif // UBFUZZ_AST_CLONE_H
