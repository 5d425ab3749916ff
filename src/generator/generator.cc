#include "generator/generator.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/typing.h"
#include "support/rng.h"

namespace ubfuzz::gen {

using namespace ast;

namespace {

/** Nesting bounds of a statement's blocks and of an expression. */
constexpr int kMaxBlockDepth = 3;
constexpr int kMaxExprDepth = 3;

const ScalarKind kVarKinds[] = {
    ScalarKind::S8, ScalarKind::S8, ScalarKind::U8, ScalarKind::S16,
    ScalarKind::S16, ScalarKind::U16, ScalarKind::S32, ScalarKind::S32,
    ScalarKind::S32, ScalarKind::U32, ScalarKind::S64, ScalarKind::S64,
    ScalarKind::U64,
};

class Generator
{
  public:
    explicit Generator(const GeneratorConfig &cfg)
        : cfg_(cfg), rng_(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x1234567),
          prog_(std::make_unique<Program>()), eb_(*prog_)
    {}

    std::unique_ptr<Program>
    run()
    {
        makeStructs();
        makeGlobals();
        makeHelpers();
        makeMain();
        return std::move(prog_);
    }

  private:
    /** Static points-to fact for a pointer variable: it addresses
     *  element `offset` of `target` (arraySize 1 for scalars). */
    struct PtrInfo
    {
        VarDecl *target = nullptr;
        const Type *elemType = nullptr;
        uint32_t offset = 0;
        uint32_t arraySize = 1;
    };

    GeneratorConfig cfg_;
    Rng rng_;
    std::unique_ptr<Program> prog_;
    ExprBuilder eb_;
    int nameCounter_ = 0;

    std::vector<std::vector<VarDecl *>> scopes_;
    std::unordered_map<VarDecl *, PtrInfo> ptrInfo_;
    std::unordered_set<VarDecl *> frozen_; ///< loop counters etc.
    std::vector<VarDecl *> heapPtrs_;      ///< freed in the epilogue
    /** Helpers: generated functions callable from later code. */
    struct Helper
    {
        FunctionDecl *fn;
        bool wantsBuffer; ///< first param: int* with >= 4 elements
    };
    std::vector<Helper> helpers_;
    /** A global int array with >= 4 elements (helper buffer arg). */
    VarDecl *bufferArray_ = nullptr;
    /** Suppress calls inside re-evaluated wrapper operands. */
    bool noCalls_ = false;

    std::string
    freshName(const char *stem)
    {
        return std::string(stem) + std::to_string(nameCounter_++);
    }

    TypeTable &tt() { return prog_->types(); }

    ScalarKind
    pickKind()
    {
        return kVarKinds[rng_.below(std::size(kVarKinds))];
    }

    //===------------------------------------------------------------===//
    // Scopes and variable selection
    //===------------------------------------------------------------===//

    void pushScope() { scopes_.emplace_back(); }
    void
    popScope()
    {
        for (VarDecl *v : scopes_.back())
            ptrInfo_.erase(v);
        scopes_.pop_back();
    }

    void declare(VarDecl *v) { scopes_.back().push_back(v); }

    template <typename Pred>
    VarDecl *
    pickVar(Pred &&pred)
    {
        std::vector<VarDecl *> candidates;
        for (const auto &scope : scopes_)
            for (VarDecl *v : scope)
                if (pred(v))
                    candidates.push_back(v);
        if (candidates.empty())
            return nullptr;
        return candidates[rng_.index(candidates)];
    }

    VarDecl *
    pickScalarVar()
    {
        return pickVar([](VarDecl *v) { return v->type()->isInteger(); });
    }

    VarDecl *
    pickMutableScalar()
    {
        return pickVar([this](VarDecl *v) {
            return v->type()->isInteger() && !frozen_.count(v);
        });
    }

    VarDecl *
    pickArrayVar()
    {
        return pickVar([](VarDecl *v) {
            return v->type()->isArray() &&
                   v->type()->element()->isInteger();
        });
    }

    VarDecl *
    pickPointerVar()
    {
        return pickVar([this](VarDecl *v) {
            return v->type()->isPointer() && ptrInfo_.count(v) &&
                   ptrInfo_.at(v).elemType->isInteger();
        });
    }

    VarDecl *
    pickStructVar()
    {
        return pickVar([](VarDecl *v) { return v->type()->isStruct(); });
    }

    VarDecl *
    pickStructPtrVar()
    {
        return pickVar([this](VarDecl *v) {
            return v->type()->isPointer() &&
                   v->type()->element()->isStruct() &&
                   ptrInfo_.count(v);
        });
    }

    //===------------------------------------------------------------===//
    // Top-level structure
    //===------------------------------------------------------------===//

    void
    makeStructs()
    {
        int n = static_cast<int>(rng_.below(3)); // 0..2 structs
        for (int i = 0; i < n; i++) {
            auto *s = prog_->ctx().make<StructDecl>(freshName("S"));
            int fields = 1 + static_cast<int>(rng_.below(3));
            for (int f = 0; f < fields; f++) {
                s->addField(prog_->ctx().make<FieldDecl>(
                    freshName("f"), tt().scalar(pickKind())));
            }
            prog_->structs().push_back(s);
        }
    }

    void
    makeGlobals()
    {
        pushScope();
        // Guaranteed buffer array for helper-function contracts.
        {
            const Type *ty = tt().array(tt().s32(), 6);
            auto *g = prog_->ctx().make<VarDecl>(
                freshName("ga"), ty, Storage::Global,
                makeArrayInit(ty));
            prog_->globals().push_back(g);
            declare(g);
            bufferArray_ = g;
        }
        int n = 3 + static_cast<int>(rng_.below(
                        static_cast<uint64_t>(cfg_.maxGlobals - 2)));
        for (int i = 0; i < n; i++) {
            switch (rng_.below(6)) {
              case 0:
              case 1: { // scalar
                ScalarKind k = pickKind();
                auto *g = prog_->ctx().make<VarDecl>(
                    freshName("g"), tt().scalar(k), Storage::Global,
                    eb_.lit(rng_.range(-20, 20),
                            ast::scalarBits(k) >= 64 ? ScalarKind::S64
                                                     : ScalarKind::S32));
                prog_->globals().push_back(g);
                declare(g);
                break;
              }
              case 2: { // array
                ScalarKind k = pickKind();
                uint32_t size =
                    2 + static_cast<uint32_t>(rng_.below(9));
                const Type *ty = tt().array(tt().scalar(k), size);
                auto *g = prog_->ctx().make<VarDecl>(
                    freshName("ga"), ty, Storage::Global,
                    makeArrayInit(ty));
                prog_->globals().push_back(g);
                declare(g);
                break;
              }
              case 3: { // pointer to a prior global scalar or element
                makeGlobalPointer();
                break;
              }
              case 4: { // struct instance (+ occasionally a pointer)
                if (prog_->structs().empty()) {
                    makeGlobalPointer();
                    break;
                }
                const StructDecl *s =
                    prog_->structs()[rng_.index(prog_->structs())];
                auto *g = prog_->ctx().make<VarDecl>(
                    freshName("gs"), tt().structTy(s), Storage::Global,
                    nullptr);
                prog_->globals().push_back(g);
                declare(g);
                if (rng_.percent(60)) {
                    const Type *pt = tt().pointer(tt().structTy(s));
                    auto *p = prog_->ctx().make<VarDecl>(
                        freshName("gsp"), pt, Storage::Global,
                        eb_.addrOf(eb_.ref(g)));
                    prog_->globals().push_back(p);
                    declare(p);
                    ptrInfo_[p] = {g, tt().structTy(s), 0, 1};
                }
                break;
              }
              default: { // pointer-to-pointer
                VarDecl *p = pickPointerVar();
                if (!p || p->storage() != Storage::Global) {
                    makeGlobalPointer();
                    break;
                }
                const Type *ppt = tt().pointer(p->type());
                auto *pp = prog_->ctx().make<VarDecl>(
                    freshName("gpp"), ppt, Storage::Global,
                    eb_.addrOf(eb_.ref(p)));
                prog_->globals().push_back(pp);
                declare(pp);
                break;
              }
            }
        }
    }

    void
    makeGlobalPointer()
    {
        // Point at a global scalar or a global array element.
        VarDecl *target = nullptr;
        uint32_t offset = 0, size = 1;
        if (rng_.percent(60)) {
            target = pickVar([](VarDecl *v) {
                return v->storage() == Storage::Global &&
                       v->type()->isArray() &&
                       v->type()->element()->isInteger();
            });
            if (target) {
                size = target->type()->arraySize();
                offset = static_cast<uint32_t>(rng_.below(size));
            }
        }
        if (!target) {
            target = pickVar([](VarDecl *v) {
                return v->storage() == Storage::Global &&
                       v->type()->isInteger();
            });
            offset = 0;
            size = 1;
        }
        if (!target)
            return;
        const Type *elem = target->type()->isArray()
                               ? target->type()->element()
                               : target->type();
        Expr *init =
            target->type()->isArray()
                ? eb_.addrOf(eb_.index(eb_.ref(target),
                                       eb_.lit(offset)))
                : eb_.addrOf(eb_.ref(target));
        auto *p = prog_->ctx().make<VarDecl>(
            freshName("gp"), tt().pointer(elem), Storage::Global, init);
        prog_->globals().push_back(p);
        declare(p);
        ptrInfo_[p] = {target, elem, offset, size};
    }

    Expr *
    makeArrayInit(const Type *arrayTy)
    {
        std::vector<Expr *> elems;
        ScalarKind ek = arrayTy->element()->scalar();
        for (uint32_t i = 0; i < arrayTy->arraySize(); i++) {
            elems.push_back(
                eb_.lit(rng_.range(-9, 9),
                        ast::scalarBits(ek) >= 64 ? ScalarKind::S64
                                                  : ScalarKind::S32));
        }
        return prog_->ctx().make<InitList>(std::move(elems), arrayTy);
    }

    //===------------------------------------------------------------===//
    // Expressions
    //===------------------------------------------------------------===//

    Expr *
    literal()
    {
        if (rng_.percent(60))
            return eb_.lit(rng_.range(-9, 16));
        if (rng_.percent(30))
            return eb_.lit(rng_.range(-3, 3), ScalarKind::S64);
        return eb_.lit(rng_.range(0, 255));
    }

    /** A guaranteed-in-range index expression for a buffer of `size`. */
    Expr *
    safeIndex(uint32_t size, int depth)
    {
        if (size == 0)
            return eb_.lit(0);
        if (depth <= 0 || rng_.percent(55))
            return eb_.lit(static_cast<int64_t>(rng_.below(size)));
        // (unsigned)(e) % size — always in [0, size).
        Expr *e = genExpr(depth - 1);
        return eb_.bin(BinaryOp::Rem,
                       eb_.cast(tt().scalar(ScalarKind::U32), e),
                       eb_.litOf(size, tt().scalar(ScalarKind::U32)));
    }

    /** Read access through a pointer with known points-to facts. */
    Expr *
    pointerRead(VarDecl *p)
    {
        const PtrInfo &info = ptrInfo_.at(p);
        // *(p + c) with c keeping the access in bounds.
        int64_t lo = -static_cast<int64_t>(info.offset);
        int64_t hi = static_cast<int64_t>(info.arraySize) -
                     static_cast<int64_t>(info.offset) - 1;
        if (hi > lo && rng_.percent(40)) {
            int64_t c = rng_.range(lo, hi);
            if (c != 0) {
                return eb_.deref(
                    eb_.bin(BinaryOp::Add, eb_.ref(p), eb_.lit(c)));
            }
        }
        if (hi > lo && rng_.percent(30)) {
            // p[c] form.
            return eb_.index(eb_.ref(p), eb_.lit(rng_.range(lo, hi)));
        }
        return eb_.deref(eb_.ref(p));
    }

    /** Wide signed arithmetic is wrapped through unsigned to stay
     *  UB-free (Csmith's safe_math); NoSafe emits it raw. */
    Expr *
    arith(BinaryOp op, Expr *lhs, Expr *rhs)
    {
        const Type *result =
            binaryResultType(tt(), op, lhs->type(), rhs->type());
        // Narrow (8/16-bit) operands cannot overflow int arithmetic —
        // not even multiplication: 32767 * 32767 < INT_MAX — so only
        // wide signed arithmetic needs the unsigned wrap.
        bool needs_wrap =
            ast::scalarSigned(result->scalar()) &&
            (exprIsWide(lhs) || exprIsWide(rhs));
        if (!cfg_.safeMath || !needs_wrap)
            return eb_.bin(op, lhs, rhs);
        ScalarKind uk = ast::scalarBits(result->scalar()) >= 64
                            ? ScalarKind::U64
                            : ScalarKind::U32;
        Expr *wrapped = eb_.bin(op, eb_.cast(tt().scalar(uk), lhs),
                                eb_.cast(tt().scalar(uk), rhs));
        return eb_.cast(result, wrapped);
    }

    /** Might this expression hold values near the type bounds? Narrow
     *  (8/16-bit) reads and small literals cannot overflow int ops. */
    bool
    exprIsWide(const Expr *e)
    {
        switch (e->kind()) {
          case NodeKind::IntLit:
            return false;
          case NodeKind::VarRef:
          case NodeKind::Index:
          case NodeKind::Member:
          case NodeKind::Unary:
            return ast::scalarBits(e->type()->isInteger()
                                       ? e->type()->scalar()
                                       : ScalarKind::S64) >= 32;
          case NodeKind::Cast:
            return ast::scalarBits(e->type()->scalar()) >= 32 &&
                   exprIsWide(e->as<Cast>()->sub());
          default:
            return true;
        }
    }

    Expr *
    safeDivRem(BinaryOp op, Expr *x, Expr *y, int depth)
    {
        if (!cfg_.safeMath)
            return eb_.bin(op, x, y);
        // ((y == 0) || ((x == MIN) && (y == -1))) ? x : x op y
        const Type *result =
            binaryResultType(tt(), op, x->type(), y->type());
        Expr *zero_test = eb_.bin(BinaryOp::Eq, y, eb_.lit(0));
        Expr *guard;
        if (ast::scalarSigned(result->scalar())) {
            int bits = ast::scalarBits(result->scalar());
            int64_t minv =
                bits >= 64 ? INT64_MIN : -(1LL << (bits - 1));
            // INT64_MIN has no literal spelling in C (9223372036854775808
            // overflows long before negation), so spell it the idiomatic
            // way: (-9223372036854775807l - 1l). INT32_MIN fits in a
            // long literal.
            Expr *min_lit =
                bits >= 64
                    ? eb_.bin(BinaryOp::Sub,
                              eb_.lit(INT64_MIN + 1, ScalarKind::S64),
                              eb_.lit(1, ScalarKind::S64))
                    : static_cast<Expr *>(
                          eb_.litOf(static_cast<uint64_t>(minv),
                                    tt().s64()));
            Expr *min_test = eb_.bin(
                BinaryOp::LAnd,
                eb_.bin(BinaryOp::Eq, cloneOf(x), min_lit),
                eb_.bin(BinaryOp::Eq, cloneOf(y),
                        eb_.lit(-1)));
            guard = eb_.bin(BinaryOp::LOr, zero_test, min_test);
        } else {
            guard = zero_test;
        }
        Expr *div = eb_.bin(op, cloneOf(x), cloneOf(y));
        (void)depth;
        return eb_.select(guard, cloneOf(x), div);
    }

    Expr *
    safeShift(BinaryOp op, Expr *x, Expr *y)
    {
        if (!cfg_.safeMath)
            return eb_.bin(op, x, y);
        const Type *lt = promote(tt(), x->type());
        int bits = ast::scalarBits(lt->scalar());
        Expr *count = eb_.bin(BinaryOp::BitAnd, y, eb_.lit(bits - 1));
        return eb_.bin(op, x, count);
    }

    /**
     * Structural copy of a pure expression (safe wrappers evaluate
     * operands more than once; all generated expressions are pure).
     */
    Expr *
    cloneOf(Expr *e)
    {
        switch (e->kind()) {
          case NodeKind::IntLit:
            return eb_.litOf(e->as<IntLit>()->value(), e->type());
          case NodeKind::VarRef:
            return eb_.ref(e->as<VarRef>()->decl());
          case NodeKind::Unary: {
            auto *u = e->as<Unary>();
            return eb_.unary(u->op(), cloneOf(u->sub()));
          }
          case NodeKind::Binary: {
            auto *b = e->as<Binary>();
            return eb_.bin(b->op(), cloneOf(b->lhs()),
                           cloneOf(b->rhs()));
          }
          case NodeKind::Select: {
            auto *s = e->as<Select>();
            return eb_.select(cloneOf(s->cond()),
                              cloneOf(s->trueExpr()),
                              cloneOf(s->falseExpr()));
          }
          case NodeKind::Index: {
            auto *ix = e->as<Index>();
            return eb_.index(cloneOf(ix->base()),
                             cloneOf(ix->index()));
          }
          case NodeKind::Member: {
            auto *m = e->as<Member>();
            return eb_.member(cloneOf(m->base()), m->field(),
                              m->isArrow());
          }
          case NodeKind::Cast:
            return eb_.cast(e->type(), cloneOf(e->as<Cast>()->sub()));
          case NodeKind::Call: {
            auto *c = e->as<Call>();
            std::vector<Expr *> args;
            for (Expr *a : c->args())
                args.push_back(cloneOf(a));
            return eb_.call(c->callee(), std::move(args));
          }
          default:
            UBF_PANIC("cloneOf: unexpected expression");
        }
    }

    Expr *
    genLeaf(int depth)
    {
        for (int attempt = 0; attempt < 8; attempt++) {
            switch (rng_.below(7)) {
              case 0:
                return literal();
              case 1: {
                if (VarDecl *v = pickScalarVar())
                    return eb_.ref(v);
                break;
              }
              case 2: {
                if (VarDecl *a = pickArrayVar()) {
                    return eb_.index(
                        eb_.ref(a),
                        safeIndex(a->type()->arraySize(), depth));
                }
                break;
              }
              case 3: {
                if (VarDecl *p = pickPointerVar())
                    return pointerRead(p);
                break;
              }
              case 4: {
                if (VarDecl *s = pickStructVar()) {
                    const StructDecl *sd = s->type()->structDecl();
                    const FieldDecl *f =
                        sd->fields()[rng_.index(sd->fields())];
                    return eb_.member(eb_.ref(s), f, false);
                }
                break;
              }
              case 5: {
                if (VarDecl *sp = pickStructPtrVar()) {
                    const StructDecl *sd =
                        sp->type()->element()->structDecl();
                    const FieldDecl *f =
                        sd->fields()[rng_.index(sd->fields())];
                    return eb_.member(eb_.ref(sp), f, true);
                }
                break;
              }
              default: {
                if (!helpers_.empty() && !noCalls_ && rng_.percent(40))
                    return callHelper();
                break;
              }
            }
        }
        return literal();
    }

    Expr *
    callHelper()
    {
        const Helper &h = helpers_[rng_.index(helpers_)];
        std::vector<Expr *> args;
        for (size_t i = 0; i < h.fn->params().size(); i++) {
            if (i == 0 && h.wantsBuffer) {
                args.push_back(eb_.ref(bufferArray_));
            } else {
                args.push_back(
                    rng_.percent(50)
                        ? literal()
                        : static_cast<Expr *>(
                              pickScalarVar()
                                  ? eb_.ref(pickScalarVar())
                                  : literal()));
            }
        }
        return eb_.call(h.fn, std::move(args));
    }

    Expr *
    genExpr(int depth)
    {
        if (depth <= 0 || rng_.percent(30))
            return genLeaf(depth);
        switch (rng_.below(10)) {
          case 0:
          case 1: { // arithmetic
            BinaryOp op = rng_.pick(
                {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul});
            return arith(op, genExpr(depth - 1), genExpr(depth - 1));
          }
          case 2: { // division / remainder
            BinaryOp op =
                rng_.pick({BinaryOp::Div, BinaryOp::Rem});
            // The safe wrapper re-evaluates both operands, so they
            // must be repeat-stable: no (side-effecting) calls.
            bool saved = noCalls_;
            noCalls_ = true;
            Expr *x = genExpr(depth - 1);
            Expr *y = genExpr(depth - 1);
            noCalls_ = saved;
            return safeDivRem(op, x, y, depth);
          }
          case 3: { // shift
            BinaryOp op =
                rng_.pick({BinaryOp::Shl, BinaryOp::Shr});
            return safeShift(op, genExpr(depth - 1),
                             genExpr(depth - 1));
          }
          case 4: { // comparison
            BinaryOp op = rng_.pick({BinaryOp::Lt, BinaryOp::Le,
                                     BinaryOp::Gt, BinaryOp::Ge,
                                     BinaryOp::Eq, BinaryOp::Ne});
            return eb_.bin(op, genExpr(depth - 1), genExpr(depth - 1));
          }
          case 5: { // bitwise
            BinaryOp op = rng_.pick({BinaryOp::BitAnd, BinaryOp::BitOr,
                                     BinaryOp::BitXor});
            return eb_.bin(op, genExpr(depth - 1), genExpr(depth - 1));
          }
          case 6: { // logical
            BinaryOp op = rng_.pick({BinaryOp::LAnd, BinaryOp::LOr});
            return eb_.bin(op, genExpr(depth - 1), genExpr(depth - 1));
          }
          case 7: { // narrowing / widening cast
            ScalarKind k = rng_.pick(
                {ScalarKind::S8, ScalarKind::S16, ScalarKind::U16,
                 ScalarKind::S32, ScalarKind::S64});
            return eb_.cast(tt().scalar(k), genExpr(depth - 1));
          }
          case 8: { // ternary
            return eb_.select(genExpr(depth - 1), genExpr(depth - 1),
                              genExpr(depth - 1));
          }
          default: { // unary
            UnaryOp op = rng_.pick(
                {UnaryOp::Neg, UnaryOp::BitNot, UnaryOp::LogNot});
            Expr *sub = genExpr(depth - 1);
            if (op == UnaryOp::Neg && cfg_.safeMath &&
                exprIsWide(sub)) {
                // -(x) on wide values goes through unsigned too.
                ScalarKind uk =
                    ast::scalarBits(promote(tt(), sub->type())
                                        ->scalar()) >= 64
                        ? ScalarKind::U64
                        : ScalarKind::U32;
                return eb_.cast(
                    promote(tt(), sub->type()),
                    eb_.unary(UnaryOp::Neg,
                              eb_.cast(tt().scalar(uk), sub)));
            }
            return eb_.unary(op, sub);
          }
        }
    }

    //===------------------------------------------------------------===//
    // Statements
    //===------------------------------------------------------------===//

    Stmt *
    genAssign()
    {
        // Choose an lvalue.
        for (int attempt = 0; attempt < 8; attempt++) {
            switch (rng_.below(6)) {
              case 0: { // scalar = expr
                VarDecl *v = pickMutableScalar();
                if (!v)
                    break;
                // Compound arithmetic assignment only on unsigned
                // types (wrapping, never UB); bitwise compound on any.
                if (rng_.percent(25) &&
                    !ast::scalarSigned(v->type()->scalar())) {
                    AssignOp op = rng_.pick({AssignOp::AddAssign,
                                             AssignOp::SubAssign,
                                             AssignOp::MulAssign});
                    return prog_->ctx().make<AssignStmt>(
                        op, eb_.ref(v), genExpr(kMaxExprDepth - 1));
                }
                if (rng_.percent(15)) {
                    AssignOp op = rng_.pick({AssignOp::AndAssign,
                                             AssignOp::OrAssign,
                                             AssignOp::XorAssign});
                    return prog_->ctx().make<AssignStmt>(
                        op, eb_.ref(v), genExpr(kMaxExprDepth - 1));
                }
                return prog_->ctx().make<AssignStmt>(
                    AssignOp::Assign, eb_.ref(v),
                    genExpr(kMaxExprDepth));
              }
              case 1: { // array[idx] = expr
                VarDecl *a = pickArrayVar();
                if (!a)
                    break;
                Expr *lhs = eb_.index(
                    eb_.ref(a),
                    safeIndex(a->type()->arraySize(), 2));
                return prog_->ctx().make<AssignStmt>(
                    AssignOp::Assign, lhs, genExpr(kMaxExprDepth));
              }
              case 2: { // *p = expr (or p[c] = expr, or *p |= expr)
                VarDecl *p = pickPointerVar();
                if (!p)
                    break;
                Expr *lhs = pointerRead(p);
                if (rng_.percent(25)) {
                    // Read-modify-write deref (the ++(*p) family);
                    // bitwise compound ops can never overflow.
                    AssignOp op = rng_.pick({AssignOp::AndAssign,
                                             AssignOp::OrAssign,
                                             AssignOp::XorAssign});
                    return prog_->ctx().make<AssignStmt>(
                        op, lhs, genExpr(kMaxExprDepth - 1));
                }
                return prog_->ctx().make<AssignStmt>(
                    AssignOp::Assign, lhs, genExpr(kMaxExprDepth));
              }
              case 3: { // struct field
                VarDecl *s = pickStructVar();
                if (!s)
                    break;
                const StructDecl *sd = s->type()->structDecl();
                const FieldDecl *f =
                    sd->fields()[rng_.index(sd->fields())];
                return prog_->ctx().make<AssignStmt>(
                    AssignOp::Assign, eb_.member(eb_.ref(s), f, false),
                    genExpr(kMaxExprDepth));
              }
              case 4: { // sp->field = expr
                VarDecl *sp = pickStructPtrVar();
                if (!sp)
                    break;
                const StructDecl *sd =
                    sp->type()->element()->structDecl();
                const FieldDecl *f =
                    sd->fields()[rng_.index(sd->fields())];
                return prog_->ctx().make<AssignStmt>(
                    AssignOp::Assign, eb_.member(eb_.ref(sp), f, true),
                    genExpr(kMaxExprDepth));
              }
              default: { // struct copy through pointer: *sp = s
                VarDecl *sp = pickStructPtrVar();
                VarDecl *s = pickStructVar();
                if (!sp || !s ||
                    sp->type()->element() != s->type())
                    break;
                return prog_->ctx().make<AssignStmt>(
                    AssignOp::Assign, eb_.deref(eb_.ref(sp)),
                    eb_.ref(s));
              }
            }
        }
        VarDecl *v = pickMutableScalar();
        if (!v) {
            return prog_->ctx().make<ExprStmt>(
                eb_.call(prog_->builtin(Builtin::Checksum),
                         {eb_.cast(tt().s64(), literal())}));
        }
        return prog_->ctx().make<AssignStmt>(AssignOp::Assign,
                                             eb_.ref(v),
                                             genExpr(kMaxExprDepth));
    }

    Block *
    genBlock(int depth, int stmts)
    {
        auto *b = prog_->ctx().make<Block>();
        pushScope();
        for (int i = 0; i < stmts; i++)
            b->append(genStmt(depth));
        popScope();
        return b;
    }

    Stmt *
    genStmt(int depth)
    {
        uint64_t roll = rng_.below(12);
        if (depth <= 0 && roll >= 8)
            roll = rng_.below(8);
        switch (roll) {
          case 0: case 1: case 2: case 3: case 4:
            return genAssign();
          case 5: { // local declaration (always initialized)
            ScalarKind k = pickKind();
            auto *v = prog_->ctx().make<VarDecl>(
                freshName("l"), tt().scalar(k), Storage::Local,
                genExpr(kMaxExprDepth - 1));
            declare(v);
            return prog_->ctx().make<DeclStmt>(v);
          }
          case 6: { // local array declaration
            ScalarKind k = rng_.pick(
                {ScalarKind::S8, ScalarKind::S32, ScalarKind::S64});
            uint32_t size = 2 + static_cast<uint32_t>(rng_.below(7));
            const Type *ty = tt().array(tt().scalar(k), size);
            auto *v = prog_->ctx().make<VarDecl>(
                freshName("la"), ty, Storage::Local,
                makeArrayInit(ty));
            declare(v);
            return prog_->ctx().make<DeclStmt>(v);
          }
          case 7: { // helper call for effect, or checksum probe
            if (!helpers_.empty() && rng_.percent(70)) {
                return prog_->ctx().make<ExprStmt>(callHelper());
            }
            Expr *probe = genExpr(1);
            return prog_->ctx().make<ExprStmt>(
                eb_.call(prog_->builtin(Builtin::Checksum),
                         {eb_.cast(tt().s64(), probe)}));
          }
          case 8: { // if / if-else
            Expr *cond = genExpr(kMaxExprDepth - 1);
            Block *then_b =
                genBlock(depth - 1,
                         1 + static_cast<int>(rng_.below(3)));
            Block *else_b =
                rng_.percent(40)
                    ? genBlock(depth - 1,
                               1 + static_cast<int>(rng_.below(3)))
                    : nullptr;
            return prog_->ctx().make<IfStmt>(cond, then_b, else_b);
          }
          case 9: { // bounded for loop
            auto *iv = prog_->ctx().make<VarDecl>(
                freshName("i"), tt().s32(), Storage::Local,
                eb_.lit(0));
            frozen_.insert(iv);
            int64_t bound = 1 + static_cast<int64_t>(rng_.below(8));
            Stmt *init = prog_->ctx().make<DeclStmt>(iv);
            pushScope();
            declare(iv);
            Expr *cond =
                eb_.bin(BinaryOp::Lt, eb_.ref(iv), eb_.lit(bound));
            Stmt *step = prog_->ctx().make<AssignStmt>(
                AssignOp::AddAssign, eb_.ref(iv), eb_.lit(1));
            Block *body =
                genBlock(depth - 1,
                         1 + static_cast<int>(rng_.below(3)));
            if (rng_.percent(20)) {
                // Occasional break/continue behind a condition.
                auto *guard_body = prog_->ctx().make<Block>();
                guard_body->append(
                    rng_.percent(50)
                        ? static_cast<Stmt *>(
                              prog_->ctx().make<BreakStmt>())
                        : static_cast<Stmt *>(
                              prog_->ctx().make<ContinueStmt>()));
                body->append(prog_->ctx().make<IfStmt>(
                    eb_.bin(BinaryOp::Gt, eb_.ref(iv),
                            eb_.lit(bound - 1)),
                    guard_body, nullptr));
            }
            popScope();
            return prog_->ctx().make<ForStmt>(init, cond, step, body);
          }
          case 10: { // bounded while loop with a fresh counter
            auto *outer = prog_->ctx().make<Block>();
            pushScope();
            auto *cv = prog_->ctx().make<VarDecl>(
                freshName("w"), tt().s32(), Storage::Local,
                eb_.lit(0));
            frozen_.insert(cv);
            declare(cv);
            outer->append(prog_->ctx().make<DeclStmt>(cv));
            int64_t bound = 1 + static_cast<int64_t>(rng_.below(6));
            Expr *cond =
                eb_.bin(BinaryOp::Lt, eb_.ref(cv), eb_.lit(bound));
            Block *body =
                genBlock(depth - 1,
                         1 + static_cast<int>(rng_.below(2)));
            body->append(prog_->ctx().make<AssignStmt>(
                AssignOp::AddAssign, eb_.ref(cv), eb_.lit(1)));
            outer->append(
                prog_->ctx().make<WhileStmt>(cond, body));
            popScope();
            return outer;
          }
          default: { // nested block with inner locals
            return genBlock(depth - 1,
                            1 + static_cast<int>(rng_.below(3)));
          }
        }
    }

    //===------------------------------------------------------------===//
    // Functions
    //===------------------------------------------------------------===//

    void
    makeHelpers()
    {
        int n = static_cast<int>(
            rng_.below(static_cast<uint64_t>(cfg_.maxFunctions + 1)));
        for (int i = 0; i < n; i++) {
            bool buffer = rng_.percent(50);
            ScalarKind ret = rng_.pick(
                {ScalarKind::S32, ScalarKind::S64, ScalarKind::U32});
            auto *fn = prog_->ctx().make<FunctionDecl>(
                freshName("fn"), tt().scalar(ret));
            pushScope();
            if (buffer) {
                auto *p = prog_->ctx().make<VarDecl>(
                    freshName("buf"), tt().pointer(tt().s32()),
                    Storage::Param, nullptr);
                fn->addParam(p);
                declare(p);
                // Contract: callers pass an int buffer of >= 4 elems.
                ptrInfo_[p] = {nullptr, tt().s32(), 0, 4};
            }
            int scalar_params = 1 + static_cast<int>(rng_.below(3));
            for (int k = 0; k < scalar_params; k++) {
                auto *p = prog_->ctx().make<VarDecl>(
                    freshName("p"),
                    tt().scalar(rng_.pick({ScalarKind::S32,
                                           ScalarKind::S64,
                                           ScalarKind::S16})),
                    Storage::Param, nullptr);
                fn->addParam(p);
                declare(p);
            }
            Block *body = genBlock(
                1, 2 + static_cast<int>(rng_.below(4)));
            body->append(prog_->ctx().make<ReturnStmt>(
                genExpr(kMaxExprDepth - 1)));
            fn->setBody(body);
            popScope();
            prog_->functions().push_back(fn);
            helpers_.push_back({fn, buffer});
        }
    }

    void
    makeMain()
    {
        auto *fn = prog_->ctx().make<FunctionDecl>("main", tt().s32());
        pushScope();
        auto *body = prog_->ctx().make<Block>();

        // Optional heap usage: allocate, initialize, use, free later.
        if (rng_.percent(55)) {
            uint32_t elems = 2 + static_cast<uint32_t>(rng_.below(4));
            ScalarKind k =
                rng_.pick({ScalarKind::S32, ScalarKind::S64});
            const Type *elem_ty = tt().scalar(k);
            auto *hp = prog_->ctx().make<VarDecl>(
                freshName("hp"), tt().pointer(elem_ty), Storage::Local,
                eb_.cast(tt().pointer(elem_ty),
                         eb_.call(prog_->builtin(Builtin::Malloc),
                                  {eb_.lit(elems * elem_ty->size(),
                                           ScalarKind::S64)})));
            declare(hp);
            frozen_.insert(hp); // never reassigned
            body->append(prog_->ctx().make<DeclStmt>(hp));
            for (uint32_t e = 0; e < elems; e++) {
                body->append(prog_->ctx().make<AssignStmt>(
                    AssignOp::Assign,
                    eb_.index(eb_.ref(hp), eb_.lit(e)), literal()));
            }
            ptrInfo_[hp] = {nullptr, elem_ty, 0, elems};
            heapPtrs_.push_back(hp);
        }

        int stmts = 3 + static_cast<int>(rng_.below(
                            static_cast<uint64_t>(
                                cfg_.maxStmtsPerBlock)));
        for (int i = 0; i < stmts; i++)
            body->append(genStmt(kMaxBlockDepth));

        // Checksum epilogue over global state.
        for (VarDecl *g : prog_->globals()) {
            if (g->type()->isInteger()) {
                body->append(checksumOf(eb_.ref(g)));
            } else if (g->type()->isArray()) {
                for (uint32_t e = 0; e < g->type()->arraySize(); e++) {
                    body->append(checksumOf(
                        eb_.index(eb_.ref(g), eb_.lit(e))));
                }
            } else if (g->type()->isStruct()) {
                for (const FieldDecl *f :
                     g->type()->structDecl()->fields()) {
                    body->append(
                        checksumOf(eb_.member(eb_.ref(g), f, false)));
                }
            }
        }
        // Free heap allocations (after all uses).
        for (VarDecl *hp : heapPtrs_) {
            body->append(prog_->ctx().make<ExprStmt>(
                eb_.call(prog_->builtin(Builtin::Free),
                         {eb_.cast(tt().bytePtr(), eb_.ref(hp))})));
        }
        body->append(prog_->ctx().make<ReturnStmt>(eb_.lit(0)));
        fn->setBody(body);
        popScope();
        prog_->functions().push_back(fn);
        prog_->setMain(fn);
    }

    Stmt *
    checksumOf(Expr *e)
    {
        return prog_->ctx().make<ExprStmt>(
            eb_.call(prog_->builtin(Builtin::Checksum),
                     {eb_.cast(tt().s64(), e)}));
    }
};

} // namespace

std::unique_ptr<ast::Program>
generateProgram(const GeneratorConfig &cfg)
{
    return Generator(cfg).run();
}

} // namespace ubfuzz::gen
