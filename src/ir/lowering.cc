#include "ir/lowering.h"

#include <unordered_map>

#include "ast/typing.h"

namespace ubfuzz::ir {

using namespace ast;

ScalarKind
scalarKindOf(const Type *t)
{
    if (t->isPointer() || t->isArray())
        return ScalarKind::U64;
    UBF_ASSERT(t->isScalar(), "no register kind for struct values");
    return t->scalar();
}

namespace {

/** A lowered rvalue: an operand plus its kind. */
struct RV
{
    Value v;
    ScalarKind kind = ScalarKind::S64;
};

class Lowerer
{
  public:
    Lowerer(const Program &p, const SourceMap &map) : prog_(p), map_(map)
    {
    }

    Module
    run()
    {
        lowerGlobals();
        // Create all functions up front so calls can reference them.
        for (const FunctionDecl *f : prog_.functions()) {
            Function fn;
            fn.name = f->name();
            fn.retKind = f->retType()->isVoid()
                             ? ScalarKind::Void
                             : scalarKindOf(f->retType());
            funcIndex_[f] = static_cast<uint32_t>(module_.functions.size());
            module_.functions.push_back(std::move(fn));
        }
        for (const FunctionDecl *f : prog_.functions())
            lowerFunction(f);
        if (prog_.main())
            module_.mainIndex =
                static_cast<int32_t>(funcIndex_.at(prog_.main()));
        return std::move(module_);
    }

  private:
    //===------------------------------------------------------------===//
    // Globals
    //===------------------------------------------------------------===//

    void
    lowerGlobals()
    {
        // Two-phase: indices first (address-of initializers may refer to
        // later globals), then initial bytes.
        for (const VarDecl *g : prog_.globals()) {
            GlobalObject obj;
            obj.name = g->name();
            obj.size = g->type()->size();
            obj.align = static_cast<uint32_t>(g->type()->align());
            obj.init.assign(obj.size, 0);
            obj.declId = g->nodeId();
            globalIndex_[g] = static_cast<uint32_t>(module_.globals.size());
            module_.globals.push_back(std::move(obj));
        }
        for (const VarDecl *g : prog_.globals()) {
            if (!g->init())
                continue;
            GlobalObject &obj = module_.globals[globalIndex_.at(g)];
            if (auto *il = g->init()->dynCast<InitList>()) {
                UBF_ASSERT(g->type()->isArray(),
                           "init list on non-array global");
                uint64_t esz = g->type()->element()->size();
                for (size_t i = 0; i < il->elems().size(); i++) {
                    initScalar(obj, i * esz, il->elems()[i],
                               g->type()->element());
                }
            } else {
                initScalar(obj, 0, g->init(), g->type());
            }
        }
    }

    /** Evaluate a constant initializer into bytes/relocations. */
    void
    initScalar(GlobalObject &obj, uint64_t offset, const Expr *e,
               const Type *slotType)
    {
        // Address-of initializers become relocations.
        int64_t addend = 0;
        if (const VarDecl *target = constAddress(e, addend)) {
            obj.relocs.push_back(
                {offset, globalIndex_.at(target), addend});
            return;
        }
        uint64_t value = constEval(e);
        uint64_t size = slotType->size();
        for (uint64_t i = 0; i < size; i++)
            obj.init[offset + i] = static_cast<uint8_t>(value >> (8 * i));
    }

    /**
     * Recognize constant address expressions: &g, &g[i], &g.f, g (array
     * decay), possibly wrapped in pointer casts.
     */
    const VarDecl *
    constAddress(const Expr *e, int64_t &addend)
    {
        switch (e->kind()) {
          case NodeKind::Cast:
            return constAddress(e->as<Cast>()->sub(), addend);
          case NodeKind::VarRef: {
            const VarDecl *v = e->as<VarRef>()->decl();
            if (v->type()->isArray() && v->storage() == Storage::Global) {
                addend = 0;
                return v;
            }
            return nullptr;
          }
          case NodeKind::Unary: {
            auto *u = e->as<Unary>();
            if (u->op() != UnaryOp::AddrOf)
                return nullptr;
            return constLValue(u->sub(), addend);
          }
          default:
            return nullptr;
        }
    }

    const VarDecl *
    constLValue(const Expr *e, int64_t &addend)
    {
        switch (e->kind()) {
          case NodeKind::VarRef: {
            const VarDecl *v = e->as<VarRef>()->decl();
            if (v->storage() != Storage::Global)
                return nullptr;
            addend = 0;
            return v;
          }
          case NodeKind::Index: {
            auto *ix = e->as<Index>();
            int64_t base_add = 0;
            const VarDecl *v = constLValue(ix->base(), base_add);
            if (!v)
                return nullptr;
            int64_t idx = static_cast<int64_t>(constEval(ix->index()));
            addend =
                base_add +
                idx * static_cast<int64_t>(
                          indexResultType(ix->base()->type())->size());
            return v;
          }
          case NodeKind::Member: {
            auto *m = e->as<Member>();
            if (m->isArrow())
                return nullptr;
            int64_t base_add = 0;
            const VarDecl *v = constLValue(m->base(), base_add);
            if (!v)
                return nullptr;
            addend = base_add +
                     static_cast<int64_t>(m->field()->offset());
            return v;
          }
          default:
            return nullptr;
        }
    }

    uint64_t
    constEval(const Expr *e)
    {
        switch (e->kind()) {
          case NodeKind::IntLit:
            return e->as<IntLit>()->value();
          case NodeKind::Cast:
            return canonicalize(constEval(e->as<Cast>()->sub()),
                                scalarKindOf(e->type()));
          case NodeKind::Unary: {
            auto *u = e->as<Unary>();
            uint64_t s = constEval(u->sub());
            switch (u->op()) {
              case UnaryOp::Neg:
                return canonicalize(0 - s, scalarKindOf(e->type()));
              case UnaryOp::BitNot:
                return canonicalize(~s, scalarKindOf(e->type()));
              case UnaryOp::LogNot:
                return s == 0;
              default:
                break;
            }
            UBF_PANIC("non-constant unary initializer");
          }
          case NodeKind::Binary: {
            auto *b = e->as<Binary>();
            uint64_t l = constEval(b->lhs());
            uint64_t r = constEval(b->rhs());
            ScalarKind k = scalarKindOf(e->type());
            switch (b->op()) {
              case BinaryOp::Add: return canonicalize(l + r, k);
              case BinaryOp::Sub: return canonicalize(l - r, k);
              case BinaryOp::Mul: return canonicalize(l * r, k);
              default:
                UBF_PANIC("non-constant binary initializer");
            }
          }
          default:
            UBF_PANIC("non-constant global initializer");
        }
    }

    /** Canonical 64-bit representation of a value of kind @p k. */
    static uint64_t
    canonicalize(uint64_t raw, ScalarKind k)
    {
        int bits = scalarBits(k);
        if (bits >= 64)
            return raw;
        uint64_t mask = (1ULL << bits) - 1;
        raw &= mask;
        if (scalarSigned(k) && (raw & (1ULL << (bits - 1))))
            raw |= ~mask;
        return raw;
    }

    //===------------------------------------------------------------===//
    // Function lowering
    //===------------------------------------------------------------===//

    Function *fn_ = nullptr;
    uint32_t curBlock_ = 0;
    /**
     * The current function's blocks while it is lowered: structured
     * control flow creates then/else/join and loop blocks before it
     * fills them, so each block collects here and finalize() lays them
     * out in one body. Kept across functions so their capacity is
     * reused; only the first numBlocks_ belong to the current one.
     */
    std::vector<std::vector<Inst>> blockInsts_;
    uint32_t numBlocks_ = 0;
    /** A new scratch block's capacity: most blocks fit, so they grow
     *  without reallocating. */
    static constexpr size_t kBlockReserve = 8;
    SourceLoc curLoc_;
    std::vector<uint32_t> breakTargets_;
    std::vector<uint32_t> continueTargets_;

    void
    lowerFunction(const FunctionDecl *f)
    {
        fn_ = &module_.functions[funcIndex_.at(f)];
        localIndex_.clear();
        // Parameters occupy the first frame slots.
        for (const VarDecl *p : f->params()) {
            FrameObject obj;
            obj.name = p->name();
            obj.size = p->type()->size();
            obj.align = static_cast<uint32_t>(p->type()->align());
            obj.declId = p->nodeId();
            uint32_t idx = static_cast<uint32_t>(fn_->frame.size());
            localIndex_[p] = idx;
            fn_->frame.push_back(std::move(obj));
        }
        fn_->numParams = static_cast<uint32_t>(f->params().size());
        numBlocks_ = 0;
        curBlock_ = newBlock();
        lowerBlock(f->body());
        finalize();
        fn_ = nullptr;
    }

    uint32_t
    newBlock()
    {
        uint32_t id = numBlocks_++;
        if (id == blockInsts_.size())
            blockInsts_.emplace_back().reserve(kBlockReserve);
        else
            blockInsts_[id].clear();
        return id;
    }

    Inst &
    emit(Inst inst)
    {
        auto &insts = blockInsts_[curBlock_];
        if (!inst.loc.isValid())
            inst.loc = curLoc_;
        insts.push_back(std::move(inst));
        return insts.back();
    }

    uint32_t
    emitValue(Inst inst)
    {
        inst.dst = fn_->newReg();
        uint32_t dst = inst.dst;
        emit(std::move(inst));
        return dst;
    }

    void
    setLoc(const Node *n)
    {
        SourceLoc l = map_.loc(n->nodeId());
        if (l.isValid())
            curLoc_ = l;
    }

    /** Close every created block with a terminator and lay the
     *  blocks out, in creation order, as the function's body. */
    void
    finalize()
    {
        size_t total = 0;
        for (uint32_t b = 0; b < numBlocks_; b++) {
            std::vector<Inst> &insts = blockInsts_[b];
            if (insts.empty() || !insts.back().isTerminator()) {
                Inst ret;
                ret.op = Opcode::Ret;
                if (fn_->retKind != ScalarKind::Void)
                    ret.a = Value::makeImm(0);
                ret.loc = curLoc_;
                insts.push_back(std::move(ret));
            }
            total += insts.size();
        }
        fn_->blocks.reserve(numBlocks_);
        fn_->insts.reserve(total);
        for (uint32_t b = 0; b < numBlocks_; b++)
            fn_->appendBlock(blockInsts_[b]);
    }

    bool
    blockTerminated() const
    {
        const auto &insts = blockInsts_[curBlock_];
        return !insts.empty() && insts.back().isTerminator();
    }

    uint32_t
    allocTemp(uint64_t size = 8)
    {
        FrameObject obj;
        obj.name = "tmp" + std::to_string(fn_->frame.size());
        obj.size = size;
        uint32_t idx = static_cast<uint32_t>(fn_->frame.size());
        fn_->frame.push_back(std::move(obj));
        return idx;
    }

    //===------------------------------------------------------------===//
    // Statements
    //===------------------------------------------------------------===//

    void
    lowerBlock(const Block *b)
    {
        std::vector<uint32_t> scoped;
        for (const Stmt *s : b->stmts()) {
            if (auto *d = s->dynCast<DeclStmt>())
                scoped.push_back(lowerDecl(d));
            else
                lowerStmt(s);
            if (blockTerminated()) {
                // Everything after return/break is unreachable; park the
                // cursor on a fresh block that finalize() will close.
                curBlock_ = newBlock();
            }
        }
        // Close lexical scopes in reverse declaration order.
        for (auto it = scoped.rbegin(); it != scoped.rend(); ++it) {
            Inst end;
            end.op = Opcode::LifetimeEnd;
            end.object = *it;
            emit(std::move(end));
        }
    }

    uint32_t
    lowerDecl(const DeclStmt *d)
    {
        const VarDecl *v = d->var();
        setLoc(d);
        FrameObject obj;
        obj.name = v->name();
        obj.size = v->type()->size();
        obj.align = static_cast<uint32_t>(v->type()->align());
        obj.scoped = true;
        obj.declId = v->nodeId();
        uint32_t idx = static_cast<uint32_t>(fn_->frame.size());
        fn_->frame.push_back(std::move(obj));
        localIndex_[v] = idx;

        Inst start;
        start.op = Opcode::LifetimeStart;
        start.object = idx;
        emit(std::move(start));

        if (v->init()) {
            uint32_t addr = emitValue(
                [&] {
                    Inst fa;
                    fa.op = Opcode::FrameAddr;
                    fa.object = idx;
                    return fa;
                }());
            if (auto *il = v->init()->dynCast<InitList>()) {
                uint64_t esz = v->type()->element()->size();
                ScalarKind ek = scalarKindOf(v->type()->element());
                // Explicit elements, then zero-fill the rest (C
                // semantics for partial initializer lists).
                for (uint32_t i = 0; i < v->type()->arraySize(); i++) {
                    RV rv;
                    if (i < il->elems().size()) {
                        rv = lowerExpr(il->elems()[i]);
                        rv = convert(rv, ek);
                    } else {
                        rv = RV{Value::makeImm(0), ek};
                    }
                    Inst g;
                    g.op = Opcode::Gep;
                    g.a = Value::makeReg(addr);
                    g.b = Value::makeImm(i);
                    g.imm = esz;
                    uint32_t ea = fn_->newReg();
                    g.dst = ea;
                    emit(std::move(g));
                    Inst st;
                    st.op = Opcode::Store;
                    st.a = Value::makeReg(ea);
                    st.b = rv.v;
                    st.imm = esz;
                    emit(std::move(st));
                }
            } else {
                RV rv = lowerExpr(v->init());
                ScalarKind k = scalarKindOf(v->type());
                rv = convert(rv, k);
                Inst st;
                st.op = Opcode::Store;
                st.a = Value::makeReg(addr);
                st.b = rv.v;
                st.imm = v->type()->size();
                emit(std::move(st));
            }
        }
        return idx;
    }

    void
    lowerStmt(const Stmt *s)
    {
        switch (s->kind()) {
          case NodeKind::AssignStmt:
            lowerAssign(s->as<AssignStmt>());
            break;
          case NodeKind::ExprStmt:
            setLoc(s);
            lowerExpr(s->as<ExprStmt>()->expr());
            break;
          case NodeKind::IfStmt: {
            auto *i = s->as<IfStmt>();
            setLoc(i->cond());
            RV cond = lowerExpr(i->cond());
            uint32_t then_bb = newBlock();
            uint32_t else_bb = i->elseBlock() ? newBlock() : 0;
            uint32_t join_bb = newBlock();
            emitCondBr(cond, then_bb,
                       i->elseBlock() ? else_bb : join_bb,
                       map_.loc(i->cond()->nodeId()));
            curBlock_ = then_bb;
            lowerBlock(i->thenBlock());
            emitBr(join_bb);
            if (i->elseBlock()) {
                curBlock_ = else_bb;
                lowerBlock(i->elseBlock());
                emitBr(join_bb);
            }
            curBlock_ = join_bb;
            break;
          }
          case NodeKind::WhileStmt: {
            auto *w = s->as<WhileStmt>();
            uint32_t cond_bb = newBlock();
            uint32_t body_bb = newBlock();
            uint32_t exit_bb = newBlock();
            emitBr(cond_bb);
            curBlock_ = cond_bb;
            setLoc(w->cond());
            RV cond = lowerExpr(w->cond());
            emitCondBr(cond, body_bb, exit_bb,
                       map_.loc(w->cond()->nodeId()));
            breakTargets_.push_back(exit_bb);
            continueTargets_.push_back(cond_bb);
            curBlock_ = body_bb;
            lowerBlock(w->body());
            emitBr(cond_bb);
            breakTargets_.pop_back();
            continueTargets_.pop_back();
            curBlock_ = exit_bb;
            break;
          }
          case NodeKind::ForStmt: {
            auto *f = s->as<ForStmt>();
            uint32_t init_obj = UINT32_MAX;
            if (f->init()) {
                if (auto *d = f->init()->dynCast<DeclStmt>())
                    init_obj = lowerDecl(d);
                else
                    lowerAssign(f->init()->as<AssignStmt>());
            }
            uint32_t cond_bb = newBlock();
            uint32_t body_bb = newBlock();
            uint32_t step_bb = newBlock();
            uint32_t exit_bb = newBlock();
            emitBr(cond_bb);
            curBlock_ = cond_bb;
            if (f->cond()) {
                setLoc(f->cond());
                RV cond = lowerExpr(f->cond());
                emitCondBr(cond, body_bb, exit_bb,
                           map_.loc(f->cond()->nodeId()));
            } else {
                emitBr(body_bb);
            }
            breakTargets_.push_back(exit_bb);
            continueTargets_.push_back(step_bb);
            curBlock_ = body_bb;
            lowerBlock(f->body());
            emitBr(step_bb);
            curBlock_ = step_bb;
            if (f->step())
                lowerAssign(f->step()->as<AssignStmt>());
            emitBr(cond_bb);
            breakTargets_.pop_back();
            continueTargets_.pop_back();
            curBlock_ = exit_bb;
            if (init_obj != UINT32_MAX) {
                Inst end;
                end.op = Opcode::LifetimeEnd;
                end.object = init_obj;
                emit(std::move(end));
            }
            break;
          }
          case NodeKind::Block:
            lowerBlock(s->as<Block>());
            break;
          case NodeKind::ReturnStmt: {
            auto *r = s->as<ReturnStmt>();
            setLoc(s);
            Inst ret;
            ret.op = Opcode::Ret;
            if (r->value()) {
                RV rv = lowerExpr(r->value());
                rv = convert(rv, fn_->retKind);
                ret.a = rv.v;
            } else if (fn_->retKind != ScalarKind::Void) {
                ret.a = Value::makeImm(0);
            }
            emit(std::move(ret));
            break;
          }
          case NodeKind::BreakStmt:
            setLoc(s);
            UBF_ASSERT(!breakTargets_.empty(), "break outside loop");
            emitBr(breakTargets_.back());
            break;
          case NodeKind::ContinueStmt:
            setLoc(s);
            UBF_ASSERT(!continueTargets_.empty(),
                       "continue outside loop");
            emitBr(continueTargets_.back());
            break;
          default:
            UBF_PANIC("lowerStmt: unhandled statement");
        }
    }

    void
    emitBr(uint32_t target)
    {
        if (blockTerminated())
            return;
        Inst br;
        br.op = Opcode::Br;
        br.targets[0] = target;
        emit(std::move(br));
    }

    void
    emitCondBr(RV cond, uint32_t t, uint32_t f, SourceLoc loc)
    {
        Inst br;
        br.op = Opcode::CondBr;
        br.a = cond.v;
        br.kind = cond.kind;
        br.targets[0] = t;
        br.targets[1] = f;
        br.loc = loc;
        emit(std::move(br));
    }

    void
    lowerAssign(const AssignStmt *a)
    {
        setLoc(a);
        const Type *lt = a->lhs()->type();
        if (lt->isStruct()) {
            UBF_ASSERT(a->op() == AssignOp::Assign,
                       "compound assign on struct");
            Value dst = lowerAddr(a->lhs());
            Value src = lowerAddr(a->rhs());
            Inst mc;
            mc.op = Opcode::MemCopy;
            mc.a = dst;
            mc.b = src;
            mc.imm = lt->size();
            mc.loc = map_.loc(a->lhs()->nodeId());
            emit(std::move(mc));
            return;
        }
        Value addr = lowerAddr(a->lhs());
        ScalarKind lk = scalarKindOf(lt);
        RV rhs;
        if (a->op() == AssignOp::Assign) {
            rhs = lowerExpr(a->rhs());
        } else {
            // lhs op= rhs  ==  lhs = (T)(lhs op rhs)
            Inst ld;
            ld.op = Opcode::Load;
            ld.a = addr;
            ld.imm = lt->size();
            ld.kind = lk;
            ld.loc = map_.loc(a->lhs()->nodeId());
            RV cur{Value::makeReg(emitValue(std::move(ld))), lk};
            RV rv = lowerExpr(a->rhs());
            BinaryOp bop = assignOpBinary(a->op());
            const Type *common;
            if (lt->isPointer()) {
                common = lt;
            } else {
                common = binaryResultType(
                    const_cast<Program &>(prog_).types(), bop, lt,
                    a->rhs()->type());
            }
            ScalarKind ck = scalarKindOf(common);
            if (lt->isPointer()) {
                // Pointer += integer: scaled address arithmetic.
                RV idx = convert(rv, ScalarKind::S64);
                Inst g;
                g.op = Opcode::Gep;
                g.a = cur.v;
                g.b = idx.v;
                g.imm = lt->element()->size();
                if (bop == BinaryOp::Sub) {
                    Inst neg;
                    neg.op = Opcode::Bin;
                    neg.binOp = BinaryOp::Sub;
                    neg.kind = ScalarKind::S64;
                    neg.a = Value::makeImm(0);
                    neg.b = idx.v;
                    g.b = Value::makeReg(emitValue(std::move(neg)));
                }
                rhs = RV{Value::makeReg(emitValue(std::move(g))),
                         ScalarKind::U64};
            } else {
                cur = convert(cur, ck);
                rv = convert(rv, ck);
                Inst bin;
                bin.op = Opcode::Bin;
                bin.binOp = bop;
                bin.kind = ck;
                bin.a = cur.v;
                bin.b = rv.v;
                bin.flag = true; // from source arithmetic
                bin.loc = map_.loc(a->rhs()->nodeId());
                rhs = RV{Value::makeReg(emitValue(std::move(bin))), ck};
            }
        }
        rhs = convert(rhs, lk);
        Inst st;
        st.op = Opcode::Store;
        st.a = addr;
        st.b = rhs.v;
        st.imm = lt->size();
        st.loc = map_.loc(a->lhs()->nodeId());
        emit(std::move(st));
    }

    //===------------------------------------------------------------===//
    // Expressions
    //===------------------------------------------------------------===//

    RV
    convert(RV rv, ScalarKind to)
    {
        if (rv.kind == to || to == ScalarKind::Void)
            return rv;
        if (rv.v.isImm()) {
            return RV{Value::makeImm(canonicalize(rv.v.imm, to)), to};
        }
        Inst c;
        c.op = Opcode::Cast;
        c.kind = to;
        c.a = rv.v;
        return RV{Value::makeReg(emitValue(std::move(c))), to};
    }

    /** Address of an lvalue (or of an array/struct rvalue operand). */
    Value
    lowerAddr(const Expr *e)
    {
        switch (e->kind()) {
          case NodeKind::VarRef: {
            const VarDecl *v = e->as<VarRef>()->decl();
            Inst addr;
            if (v->storage() == Storage::Global) {
                addr.op = Opcode::GlobalAddr;
                addr.object = globalIndex_.at(v);
            } else {
                addr.op = Opcode::FrameAddr;
                addr.object = localIndex_.at(v);
            }
            addr.loc = map_.loc(e->nodeId());
            return Value::makeReg(emitValue(std::move(addr)));
          }
          case NodeKind::Unary: {
            auto *u = e->as<Unary>();
            UBF_ASSERT(u->op() == UnaryOp::Deref,
                       "address of non-lvalue unary");
            RV p = lowerExpr(u->sub());
            return p.v;
          }
          case NodeKind::Index: {
            auto *ix = e->as<Index>();
            const Type *bt = ix->base()->type();
            Value base;
            uint64_t bound = 0;
            if (bt->isArray()) {
                base = lowerAddr(ix->base());
                bound = bt->arraySize();
            } else {
                base = lowerExpr(ix->base()).v;
            }
            RV idx = convert(lowerExpr(ix->index()), ScalarKind::S64);
            Inst g;
            g.op = Opcode::Gep;
            g.a = base;
            g.b = idx.v;
            g.imm = indexResultType(bt)->size();
            g.bound = bound;
            g.loc = map_.loc(e->nodeId());
            return Value::makeReg(emitValue(std::move(g)));
          }
          case NodeKind::Member: {
            auto *m = e->as<Member>();
            Value base = m->isArrow() ? lowerExpr(m->base()).v
                                      : lowerAddr(m->base());
            Inst g;
            g.op = Opcode::Gep;
            g.a = base;
            g.b = Value::makeImm(m->field()->offset());
            g.imm = 1;
            g.loc = map_.loc(e->nodeId());
            return Value::makeReg(emitValue(std::move(g)));
          }
          default:
            UBF_PANIC("lowerAddr: not an lvalue");
        }
    }

    RV
    lowerExpr(const Expr *e)
    {
        switch (e->kind()) {
          case NodeKind::IntLit: {
            ScalarKind k = scalarKindOf(e->type());
            return RV{Value::makeImm(
                          canonicalize(e->as<IntLit>()->value(), k)),
                      k};
          }
          case NodeKind::VarRef: {
            const Type *t = e->type();
            if (t->isArray()) {
                // Array decay: the value is the address.
                return RV{lowerAddr(e), ScalarKind::U64};
            }
            Value addr = lowerAddr(e);
            Inst ld;
            ld.op = Opcode::Load;
            ld.a = addr;
            ld.imm = t->size();
            ld.kind = scalarKindOf(t);
            ld.loc = map_.loc(e->nodeId());
            return RV{Value::makeReg(emitValue(std::move(ld))),
                      scalarKindOf(t)};
          }
          case NodeKind::Unary:
            return lowerUnary(e->as<Unary>());
          case NodeKind::Binary:
            return lowerBinary(e->as<Binary>());
          case NodeKind::Select: {
            auto *s = e->as<Select>();
            ScalarKind k = scalarKindOf(e->type());
            uint32_t tmp = allocTemp();
            RV cond = lowerExpr(s->cond());
            uint32_t t_bb = newBlock();
            uint32_t f_bb = newBlock();
            uint32_t join_bb = newBlock();
            emitCondBr(cond, t_bb, f_bb, map_.loc(s->nodeId()));
            curBlock_ = t_bb;
            storeTemp(tmp, convert(lowerExpr(s->trueExpr()), k));
            emitBr(join_bb);
            curBlock_ = f_bb;
            storeTemp(tmp, convert(lowerExpr(s->falseExpr()), k));
            emitBr(join_bb);
            curBlock_ = join_bb;
            return loadTemp(tmp, k);
          }
          case NodeKind::Index:
          case NodeKind::Member: {
            const Type *t = e->type();
            if (t->isArray())
                return RV{lowerAddr(e), ScalarKind::U64};
            Value addr = lowerAddr(e);
            Inst ld;
            ld.op = Opcode::Load;
            ld.a = addr;
            ld.imm = t->size();
            ld.kind = scalarKindOf(t);
            ld.loc = map_.loc(e->nodeId());
            return RV{Value::makeReg(emitValue(std::move(ld))),
                      scalarKindOf(t)};
          }
          case NodeKind::Cast: {
            auto *c = e->as<Cast>();
            RV sub = lowerExpr(c->sub());
            return convert(sub, scalarKindOf(e->type()));
          }
          case NodeKind::Call:
            return lowerCall(e->as<Call>());
          default:
            UBF_PANIC("lowerExpr: unhandled expression kind");
        }
    }

    void
    storeTemp(uint32_t obj, RV rv)
    {
        Inst fa;
        fa.op = Opcode::FrameAddr;
        fa.object = obj;
        uint32_t addr = emitValue(std::move(fa));
        Inst st;
        st.op = Opcode::Store;
        st.a = Value::makeReg(addr);
        st.b = rv.v;
        st.imm = 8;
        emit(std::move(st));
    }

    RV
    loadTemp(uint32_t obj, ScalarKind k)
    {
        Inst fa;
        fa.op = Opcode::FrameAddr;
        fa.object = obj;
        uint32_t addr = emitValue(std::move(fa));
        Inst ld;
        ld.op = Opcode::Load;
        ld.a = Value::makeReg(addr);
        ld.imm = 8;
        ld.kind = k;
        return RV{Value::makeReg(emitValue(std::move(ld))), k};
    }

    RV
    lowerUnary(const Unary *u)
    {
        switch (u->op()) {
          case UnaryOp::Deref: {
            const Type *t = u->type();
            if (t->isArray())
                return RV{lowerAddr(u), ScalarKind::U64};
            Value addr = lowerAddr(u);
            Inst ld;
            ld.op = Opcode::Load;
            ld.a = addr;
            ld.imm = t->size();
            ld.kind = scalarKindOf(t);
            ld.loc = map_.loc(u->nodeId());
            return RV{Value::makeReg(emitValue(std::move(ld))),
                      scalarKindOf(t)};
          }
          case UnaryOp::AddrOf:
            return RV{lowerAddr(u->sub()), ScalarKind::U64};
          case UnaryOp::Neg: {
            ScalarKind k = scalarKindOf(u->type());
            RV sub = convert(lowerExpr(u->sub()), k);
            Inst bin;
            bin.op = Opcode::Bin;
            bin.binOp = BinaryOp::Sub;
            bin.kind = k;
            bin.a = Value::makeImm(0);
            bin.b = sub.v;
            bin.flag = true; // -INT_MIN is real signed overflow
            bin.loc = map_.loc(u->nodeId());
            return RV{Value::makeReg(emitValue(std::move(bin))), k};
          }
          case UnaryOp::BitNot: {
            ScalarKind k = scalarKindOf(u->type());
            RV sub = convert(lowerExpr(u->sub()), k);
            Inst bin;
            bin.op = Opcode::Bin;
            bin.binOp = BinaryOp::BitXor;
            bin.kind = k;
            bin.a = sub.v;
            bin.b = Value::makeImm(canonicalize(~0ULL, k));
            bin.loc = map_.loc(u->nodeId());
            return RV{Value::makeReg(emitValue(std::move(bin))), k};
          }
          case UnaryOp::LogNot: {
            RV sub = lowerExpr(u->sub());
            Inst bin;
            bin.op = Opcode::Bin;
            bin.binOp = BinaryOp::Eq;
            bin.kind = sub.kind;
            bin.a = sub.v;
            bin.b = Value::makeImm(0);
            bin.loc = map_.loc(u->nodeId());
            return RV{Value::makeReg(emitValue(std::move(bin))),
                      ScalarKind::S32};
          }
        }
        UBF_PANIC("unknown unary op");
    }

    RV
    lowerBinary(const Binary *b)
    {
        BinaryOp op = b->op();
        if (isLogicalOp(op)) {
            // Short circuit: tmp = lhs ? (op==&& ? rhs!=0 : 1)
            //                          : (op==&& ? 0 : rhs!=0)
            uint32_t tmp = allocTemp();
            RV lhs = lowerExpr(b->lhs());
            uint32_t rhs_bb = newBlock();
            uint32_t short_bb = newBlock();
            uint32_t join_bb = newBlock();
            bool is_and = op == BinaryOp::LAnd;
            emitCondBr(lhs, is_and ? rhs_bb : short_bb,
                       is_and ? short_bb : rhs_bb,
                       map_.loc(b->nodeId()));
            curBlock_ = rhs_bb;
            {
                RV rhs = lowerExpr(b->rhs());
                Inst ne;
                ne.op = Opcode::Bin;
                ne.binOp = BinaryOp::Ne;
                ne.kind = rhs.kind;
                ne.a = rhs.v;
                ne.b = Value::makeImm(0);
                RV norm{Value::makeReg(emitValue(std::move(ne))),
                        ScalarKind::S32};
                storeTemp(tmp, norm);
            }
            emitBr(join_bb);
            curBlock_ = short_bb;
            storeTemp(tmp,
                      RV{Value::makeImm(is_and ? 0 : 1), ScalarKind::S32});
            emitBr(join_bb);
            curBlock_ = join_bb;
            return loadTemp(tmp, ScalarKind::S32);
        }

        const Type *lt = b->lhs()->type();
        const Type *rt = b->rhs()->type();
        bool lptr = lt->isPointer() || lt->isArray();
        bool rptr = rt->isPointer() || rt->isArray();

        if ((lptr || rptr) && (op == BinaryOp::Add ||
                               op == BinaryOp::Sub)) {
            if (lptr && rptr) {
                // Pointer difference in elements.
                RV l = lowerExpr(b->lhs());
                RV r = lowerExpr(b->rhs());
                Inst sub;
                sub.op = Opcode::Bin;
                sub.binOp = BinaryOp::Sub;
                sub.kind = ScalarKind::S64;
                sub.a = l.v;
                sub.b = r.v;
                uint32_t diff = emitValue(std::move(sub));
                uint64_t esz = lt->element()->size();
                if (esz > 1) {
                    Inst div;
                    div.op = Opcode::Bin;
                    div.binOp = BinaryOp::Div;
                    div.kind = ScalarKind::S64;
                    div.a = Value::makeReg(diff);
                    div.b = Value::makeImm(esz);
                    diff = emitValue(std::move(div));
                }
                return RV{Value::makeReg(diff), ScalarKind::S64};
            }
            const Expr *pe = lptr ? b->lhs() : b->rhs();
            const Expr *ie = lptr ? b->rhs() : b->lhs();
            RV p = lowerExpr(pe);
            RV idx = convert(lowerExpr(ie), ScalarKind::S64);
            if (op == BinaryOp::Sub) {
                Inst neg;
                neg.op = Opcode::Bin;
                neg.binOp = BinaryOp::Sub;
                neg.kind = ScalarKind::S64;
                neg.a = Value::makeImm(0);
                neg.b = idx.v;
                idx = RV{Value::makeReg(emitValue(std::move(neg))),
                         ScalarKind::S64};
            }
            const Type *et =
                (lptr ? lt : rt)->element();
            Inst g;
            g.op = Opcode::Gep;
            g.a = p.v;
            g.b = idx.v;
            g.imm = et->size();
            g.loc = map_.loc(b->nodeId());
            return RV{Value::makeReg(emitValue(std::move(g))),
                      ScalarKind::U64};
        }

        // Pointer comparisons happen in U64.
        if (lptr || rptr) {
            UBF_ASSERT(isComparisonOp(op), "bad pointer operator");
            RV l = lowerExpr(b->lhs());
            RV r = lowerExpr(b->rhs());
            Inst cmp;
            cmp.op = Opcode::Bin;
            cmp.binOp = op;
            cmp.kind = ScalarKind::U64;
            cmp.a = l.v;
            cmp.b = r.v;
            cmp.loc = map_.loc(b->nodeId());
            return RV{Value::makeReg(emitValue(std::move(cmp))),
                      ScalarKind::S32};
        }

        TypeTable &tt = const_cast<Program &>(prog_).types();
        if (isComparisonOp(op)) {
            const Type *common = commonType(tt, lt, rt);
            ScalarKind ck = scalarKindOf(common);
            RV l = convert(lowerExpr(b->lhs()), ck);
            RV r = convert(lowerExpr(b->rhs()), ck);
            Inst cmp;
            cmp.op = Opcode::Bin;
            cmp.binOp = op;
            cmp.kind = ck;
            cmp.a = l.v;
            cmp.b = r.v;
            cmp.loc = map_.loc(b->nodeId());
            return RV{Value::makeReg(emitValue(std::move(cmp))),
                      ScalarKind::S32};
        }

        ScalarKind rk = scalarKindOf(b->type());
        RV l, r;
        if (isShiftOp(op)) {
            l = convert(lowerExpr(b->lhs()), rk);
            r = convert(lowerExpr(b->rhs()), ScalarKind::S64);
        } else {
            l = convert(lowerExpr(b->lhs()), rk);
            r = convert(lowerExpr(b->rhs()), rk);
        }
        Inst bin;
        bin.op = Opcode::Bin;
        bin.binOp = op;
        bin.kind = rk;
        bin.a = l.v;
        bin.b = r.v;
        bin.flag = true; // source-level arithmetic: sanitizer-checkable
        bin.loc = map_.loc(b->nodeId());
        return RV{Value::makeReg(emitValue(std::move(bin))), rk};
    }

    RV
    lowerCall(const Call *c)
    {
        const FunctionDecl *callee = c->callee();
        std::vector<RV> args;
        args.reserve(c->args().size());
        for (size_t i = 0; i < c->args().size(); i++) {
            RV a = lowerExpr(c->args()[i]);
            a = convert(a, scalarKindOf(callee->params()[i]->type()));
            args.push_back(a);
        }
        SourceLoc loc = map_.loc(c->nodeId());
        auto simple = [&](Opcode op) {
            Inst inst;
            inst.op = op;
            if (args.size() > 0)
                inst.a = args[0].v;
            if (args.size() > 1)
                inst.b = args[1].v;
            if (args.size() > 2)
                inst.c = args[2].v;
            inst.loc = loc;
            return inst;
        };
        switch (callee->builtin()) {
          case Builtin::Malloc: {
            Inst m = simple(Opcode::Malloc);
            return RV{Value::makeReg(emitValue(std::move(m))),
                      ScalarKind::U64};
          }
          case Builtin::Free:
            emit(simple(Opcode::Free));
            return RV{Value::makeImm(0), ScalarKind::S32};
          case Builtin::Checksum:
            emit(simple(Opcode::Checksum));
            return RV{Value::makeImm(0), ScalarKind::S32};
          case Builtin::LogVal:
            emit(simple(Opcode::LogVal));
            return RV{Value::makeImm(0), ScalarKind::S32};
          case Builtin::LogPtr:
            emit(simple(Opcode::LogPtr));
            return RV{Value::makeImm(0), ScalarKind::S32};
          case Builtin::LogBuf:
            emit(simple(Opcode::LogBuf));
            return RV{Value::makeImm(0), ScalarKind::S32};
          case Builtin::LogScopeEnter:
            emit(simple(Opcode::LogScopeEnter));
            return RV{Value::makeImm(0), ScalarKind::S32};
          case Builtin::LogScopeExit:
            emit(simple(Opcode::LogScopeExit));
            return RV{Value::makeImm(0), ScalarKind::S32};
          case Builtin::None:
            break;
        }
        Inst call;
        call.op = Opcode::Call;
        call.callee = funcIndex_.at(callee);
        call.kind = callee->retType()->isVoid()
                        ? ScalarKind::Void
                        : scalarKindOf(callee->retType());
        call.argBegin = static_cast<uint32_t>(fn_->callArgs.size());
        call.argCount = static_cast<uint32_t>(args.size());
        for (const RV &a : args)
            fn_->callArgs.push_back(a.v);
        call.loc = loc;
        if (call.kind == ScalarKind::Void) {
            emit(std::move(call));
            return RV{Value::makeImm(0), ScalarKind::S32};
        }
        ScalarKind k = call.kind;
        return RV{Value::makeReg(emitValue(std::move(call))), k};
    }

    const Program &prog_;
    const SourceMap &map_;
    Module module_;
    std::unordered_map<const VarDecl *, uint32_t> globalIndex_;
    std::unordered_map<const VarDecl *, uint32_t> localIndex_;
    std::unordered_map<const FunctionDecl *, uint32_t> funcIndex_;
};

} // namespace

Module
lowerProgram(const Program &program, const SourceMap &map)
{
    return Lowerer(program, map).run();
}

} // namespace ubfuzz::ir
