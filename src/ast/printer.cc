#include "ast/printer.h"

#include <string_view>

namespace ubfuzz::ast {

namespace {

/** True if the expression prints as a primary/postfix form that never
 *  needs parentheses when used as an operand. Negative literals print
 *  with a leading '-', so they are not primary: `!-1` must come back
 *  from the parser the way it went in. */
bool
isPrimary(const Expr *e)
{
    switch (e->kind()) {
      case NodeKind::IntLit: {
        const Type *t = e->type();
        if (t->isInteger() && ast::scalarSigned(t->scalar()))
            return e->as<IntLit>()->signedValue() >= 0;
        return true;
      }
      case NodeKind::VarRef:
      case NodeKind::Call:
      case NodeKind::Index:
      case NodeKind::Member:
        return true;
      default:
        return false;
    }
}

class Printer
{
  public:
    PrintedProgram
    run(const Program &p)
    {
        for (const StructDecl *s : p.structs())
            printStruct(s);
        for (const VarDecl *g : p.globals())
            printGlobal(g);
        for (const FunctionDecl *f : p.functions())
            printFunction(f);
        PrintedProgram result;
        result.text = std::move(out_);
        result.map = std::move(map_);
        return result;
    }

  private:
    void
    emit(std::string_view s)
    {
        out_ += s;
        col_ += static_cast<int>(s.size());
    }

    void
    newline()
    {
        out_ += '\n';
        line_++;
        col_ = 0;
    }

    void
    startLine()
    {
        for (int i = 0; i < indent_ * 4; i++)
            emit(" ");
    }

    void record(const Node *n) { map_.set(n->nodeId(), {line_, col_}); }

    std::string
    literalText(const IntLit *lit)
    {
        const Type *t = lit->type();
        ScalarKind k =
            t->isPointer() ? ScalarKind::S64 : t->scalar();
        switch (k) {
          case ScalarKind::U32:
            return std::to_string(static_cast<uint32_t>(lit->value())) +
                   "u";
          case ScalarKind::S64:
            return std::to_string(lit->signedValue()) + "l";
          case ScalarKind::U64:
            return std::to_string(lit->value()) + "ul";
          default:
            // Small/32-bit signed kinds print as plain decimals.
            return std::to_string(
                static_cast<int32_t>(lit->value()));
        }
    }

    void
    printOperand(const Expr *e, bool parenthesize)
    {
        if (parenthesize) {
            // Record the operand at the paren so nested rewrites keep
            // distinct, stable offsets.
            emit("(");
            printExpr(e);
            emit(")");
        } else {
            printExpr(e);
        }
    }

    void
    printExpr(const Expr *e)
    {
        record(e);
        switch (e->kind()) {
          case NodeKind::IntLit:
            emit(literalText(e->as<IntLit>()));
            break;
          case NodeKind::VarRef:
            emit(e->as<VarRef>()->decl()->name());
            break;
          case NodeKind::Unary: {
            auto *u = e->as<Unary>();
            emit(unaryOpSpelling(u->op()));
            printOperand(u->sub(), !isPrimary(u->sub()));
            break;
          }
          case NodeKind::Binary: {
            auto *b = e->as<Binary>();
            printOperand(b->lhs(), b->lhs()->kind() == NodeKind::Binary ||
                                       b->lhs()->kind() ==
                                           NodeKind::Select);
            emit(" ");
            emit(binaryOpSpelling(b->op()));
            emit(" ");
            printOperand(b->rhs(), b->rhs()->kind() == NodeKind::Binary ||
                                       b->rhs()->kind() ==
                                           NodeKind::Select);
            break;
          }
          case NodeKind::Select: {
            auto *s = e->as<Select>();
            printOperand(s->cond(), !isPrimary(s->cond()));
            emit(" ? ");
            printOperand(s->trueExpr(), !isPrimary(s->trueExpr()));
            emit(" : ");
            printOperand(s->falseExpr(), !isPrimary(s->falseExpr()));
            break;
          }
          case NodeKind::Index: {
            auto *ix = e->as<Index>();
            printOperand(ix->base(), !isPrimary(ix->base()));
            emit("[");
            printExpr(ix->index());
            emit("]");
            break;
          }
          case NodeKind::Member: {
            auto *m = e->as<Member>();
            printOperand(m->base(), !isPrimary(m->base()));
            emit(m->isArrow() ? "->" : ".");
            emit(m->field()->name());
            break;
          }
          case NodeKind::Cast: {
            auto *c = e->as<Cast>();
            emit("(");
            emit(c->type()->cName());
            emit(")");
            printOperand(c->sub(), !isPrimary(c->sub()));
            break;
          }
          case NodeKind::Call: {
            auto *c = e->as<Call>();
            emit(c->callee()->name());
            emit("(");
            bool first = true;
            for (const Expr *a : c->args()) {
                if (!first)
                    emit(", ");
                first = false;
                printExpr(a);
            }
            emit(")");
            break;
          }
          case NodeKind::InitList: {
            auto *il = e->as<InitList>();
            emit("{");
            bool first = true;
            for (const Expr *el : il->elems()) {
                if (!first)
                    emit(", ");
                first = false;
                printExpr(el);
            }
            emit("}");
            break;
          }
          default:
            UBF_PANIC("printExpr: not an expression");
        }
    }

    void
    printVarDecl(const VarDecl *v)
    {
        record(v);
        emit(v->type()->cName(std::string(v->name())));
        if (v->init()) {
            emit(" = ");
            printExpr(v->init());
        }
    }

    /** Print an assignment without the trailing semicolon. */
    void
    printAssign(const AssignStmt *a)
    {
        record(a);
        printExpr(a->lhs());
        emit(" ");
        emit(assignOpSpelling(a->op()));
        emit(" ");
        printExpr(a->rhs());
    }

    void
    printStruct(const StructDecl *s)
    {
        record(s);
        emit("struct ");
        emit(s->name());
        emit(" {");
        newline();
        for (const FieldDecl *f : s->fields()) {
            emit("    ");
            record(f);
            emit(f->type()->cName(std::string(f->name())));
            emit(";");
            newline();
        }
        emit("};");
        newline();
    }

    void
    printGlobal(const VarDecl *g)
    {
        printVarDecl(g);
        emit(";");
        newline();
    }

    void
    printFunction(const FunctionDecl *f)
    {
        record(f);
        emit(f->retType()->cName());
        emit(" ");
        emit(f->name());
        emit("(");
        if (f->params().empty()) {
            emit("void");
        } else {
            bool first = true;
            for (const VarDecl *p : f->params()) {
                if (!first)
                    emit(", ");
                first = false;
                record(p);
                emit(p->type()->cName(std::string(p->name())));
            }
        }
        emit(") ");
        printBlock(f->body());
        newline();
    }

    void
    printBlock(const Block *b)
    {
        record(b);
        emit("{");
        newline();
        indent_++;
        for (const Stmt *s : b->stmts())
            printStmt(s);
        indent_--;
        startLine();
        emit("}");
    }

    void
    printStmt(const Stmt *s)
    {
        startLine();
        switch (s->kind()) {
          case NodeKind::DeclStmt:
            record(s);
            printVarDecl(s->as<DeclStmt>()->var());
            emit(";");
            break;
          case NodeKind::AssignStmt:
            printAssign(s->as<AssignStmt>());
            emit(";");
            break;
          case NodeKind::ExprStmt:
            record(s);
            printExpr(s->as<ExprStmt>()->expr());
            emit(";");
            break;
          case NodeKind::IfStmt: {
            auto *i = s->as<IfStmt>();
            record(s);
            emit("if (");
            printExpr(i->cond());
            emit(") ");
            printBlock(i->thenBlock());
            if (i->elseBlock()) {
                emit(" else ");
                printBlock(i->elseBlock());
            }
            break;
          }
          case NodeKind::ForStmt: {
            auto *f = s->as<ForStmt>();
            record(s);
            emit("for (");
            if (f->init()) {
                if (auto *d = f->init()->dynCast<DeclStmt>()) {
                    record(d);
                    printVarDecl(d->var());
                } else {
                    printAssign(f->init()->as<AssignStmt>());
                }
            }
            emit("; ");
            if (f->cond())
                printExpr(f->cond());
            emit("; ");
            if (f->step())
                printAssign(f->step()->as<AssignStmt>());
            emit(") ");
            printBlock(f->body());
            break;
          }
          case NodeKind::WhileStmt: {
            auto *w = s->as<WhileStmt>();
            record(s);
            emit("while (");
            printExpr(w->cond());
            emit(") ");
            printBlock(w->body());
            break;
          }
          case NodeKind::Block:
            printBlock(s->as<Block>());
            break;
          case NodeKind::ReturnStmt: {
            auto *r = s->as<ReturnStmt>();
            record(s);
            emit("return");
            if (r->value()) {
                emit(" ");
                printExpr(r->value());
            }
            emit(";");
            break;
          }
          case NodeKind::BreakStmt:
            record(s);
            emit("break;");
            break;
          case NodeKind::ContinueStmt:
            record(s);
            emit("continue;");
            break;
          default:
            UBF_PANIC("printStmt: not a statement");
        }
        newline();
    }

    std::string out_;
    SourceMap map_;
    int line_ = 1;
    int col_ = 0;
    int indent_ = 0;
};

} // namespace

PrintedProgram
printProgram(const Program &program)
{
    return Printer().run(program);
}

std::string
programText(const Program &program)
{
    return printProgram(program).text;
}

} // namespace ubfuzz::ast
