#include "ast/clone.h"

#include <atomic>
#include <vector>

namespace ubfuzz::ast {

namespace {

std::atomic<uint64_t> cloneCalls{0};

} // namespace

ClonedProgram
cloneProgram(const Program &src)
{
    cloneCalls.fetch_add(1, std::memory_order_relaxed);

    ClonedProgram result;
    result.program = std::make_unique<Program>();
    Program &dst = *result.program;
    const ASTContext &sctx = src.ctx();
    ASTContext &dctx = dst.ctx();

    // One memcpy per arena chunk plus a context-pointer patch; every
    // node id, child index, list range, and TypeRef carries over.
    dctx.copyFrom(sctx);

    // Re-root the program-level vectors at the copied slots.
    auto map = [&dctx](const Node *n) {
        return dctx.nodeAt(n->arenaIndex());
    };
    dst.structs_.reserve(src.structs_.size());
    for (const StructDecl *s : src.structs_)
        dst.structs_.push_back(map(s)->as<StructDecl>());
    dst.globals_.reserve(src.globals_.size());
    for (const VarDecl *g : src.globals_)
        dst.globals_.push_back(map(g)->as<VarDecl>());
    dst.functions_.reserve(src.functions_.size());
    for (const FunctionDecl *f : src.functions_)
        dst.functions_.push_back(map(f)->as<FunctionDecl>());
    dst.builtins_.reserve(src.builtins_.size());
    for (const FunctionDecl *f : src.builtins_)
        dst.builtins_.push_back(map(f)->as<FunctionDecl>());
    if (src.main_)
        dst.main_ = map(src.main_)->as<FunctionDecl>();

    return result;
}

uint64_t
cloneProgramCallCount()
{
    return cloneCalls.load(std::memory_order_relaxed);
}

Expr *
cloneExprInto(Program &dst, const Expr *e)
{
    ASTContext &ctx = dst.ctx();
    switch (e->kind()) {
      case NodeKind::IntLit:
        return ctx.make<IntLit>(e->as<IntLit>()->value(), e->type());
      case NodeKind::VarRef:
        return ctx.make<VarRef>(e->as<VarRef>()->decl(), e->type());
      case NodeKind::Unary: {
        auto *u = e->as<Unary>();
        return ctx.make<Unary>(u->op(), cloneExprInto(dst, u->sub()),
                               e->type());
      }
      case NodeKind::Binary: {
        auto *b = e->as<Binary>();
        return ctx.make<Binary>(b->op(), cloneExprInto(dst, b->lhs()),
                                cloneExprInto(dst, b->rhs()), e->type());
      }
      case NodeKind::Select: {
        auto *s = e->as<Select>();
        return ctx.make<Select>(cloneExprInto(dst, s->cond()),
                                cloneExprInto(dst, s->trueExpr()),
                                cloneExprInto(dst, s->falseExpr()),
                                e->type());
      }
      case NodeKind::Index: {
        auto *ix = e->as<Index>();
        return ctx.make<Index>(cloneExprInto(dst, ix->base()),
                               cloneExprInto(dst, ix->index()),
                               e->type());
      }
      case NodeKind::Member: {
        auto *m = e->as<Member>();
        return ctx.make<Member>(cloneExprInto(dst, m->base()),
                                m->field(), m->isArrow(), e->type());
      }
      case NodeKind::Cast:
        return ctx.make<Cast>(cloneExprInto(dst, e->as<Cast>()->sub()),
                              e->type());
      case NodeKind::Call: {
        auto *c = e->as<Call>();
        std::vector<Expr *> args;
        args.reserve(c->args().size());
        for (const Expr *a : c->args())
            args.push_back(cloneExprInto(dst, a));
        return ctx.make<Call>(c->callee(), std::move(args), e->type());
      }
      default:
        UBF_PANIC("cloneExprInto: unsupported expression");
    }
}

} // namespace ubfuzz::ast
