/**
 * @file
 * MiniC pretty printer and source layout.
 *
 * Printing is the authority on source locations: the printer records, for
 * every statement and expression node, the (line, offset) where its first
 * token lands. IR lowering attaches these locations to instructions as
 * debug metadata, and the crash-site mapping oracle compares them — so
 * "the crash site at (line 10, offset 8)" means exactly what it does in
 * the paper's Figure 5.
 */

#ifndef UBFUZZ_AST_PRINTER_H
#define UBFUZZ_AST_PRINTER_H

#include <string>
#include <vector>

#include "ast/ast.h"
#include "support/source_loc.h"

namespace ubfuzz::ast {

/**
 * nodeId -> (line, offset) for a particular printing of a program: a
 * vector indexed by node id. Ids are dense from 1 per ASTContext (the
 * property ASTContext's own id index relies on), so the map is as
 * large as the program and a lookup is one bounds check and a load.
 */
class SourceMap
{
  public:
    void
    set(uint32_t nodeId, SourceLoc loc)
    {
        if (nodeId >= locs_.size())
            locs_.resize(nodeId + 1);
        locs_[nodeId] = loc;
    }

    /** Location of a node; invalid SourceLoc if not recorded. */
    SourceLoc
    loc(uint32_t nodeId) const
    {
        return nodeId < locs_.size() ? locs_[nodeId] : SourceLoc{};
    }

  private:
    /** Unrecorded ids hold the invalid default SourceLoc. */
    std::vector<SourceLoc> locs_;
};

/** The text of a program plus the node-location map for that text. */
struct PrintedProgram
{
    std::string text;
    SourceMap map;
};

/** Pretty-print @p program and record node locations. */
PrintedProgram printProgram(const Program &program);

/** Convenience: just the text. */
std::string programText(const Program &program);

} // namespace ubfuzz::ast

#endif // UBFUZZ_AST_PRINTER_H
