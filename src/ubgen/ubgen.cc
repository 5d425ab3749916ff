#include "ubgen/ubgen.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ast/clone.h"
#include "ast/typing.h"
#include "ir/lowering.h"
#include "support/diagnostics.h"

namespace ubfuzz::ubgen {

using namespace ast;

namespace {

/** A closed inner block usable for use-after-scope: repointing a
 *  pointer at one of its locals makes a later deref UB. */
struct ScopeCandidate
{
    uint32_t blockId = 0;
    uint32_t varId = 0;
    uint64_t varSize = 0;
    const Type *varType = nullptr;
};

/** One statically matched code construct (GetMatchedExpr output). */
struct Site
{
    UBKind kind;
    /** The UB expression node. */
    uint32_t exprId = 0;
    /** The FunctionDecl whose body contains the site (and therefore
     *  every perturbation synthesized for it). */
    uint32_t funcId = 0;
    /** Insertion point: block node + statement index inside it. */
    uint32_t blockId = 0;
    size_t stmtIndex = 0;
    /** Pointer sub-expression (Deref sub / Index base). */
    uint32_t subId = 0;
    /** For Null/UAF/UAScope: the pointer variable's node id. */
    uint32_t ptrVarId = 0;
    const Type *ptrVarType = nullptr;
    /** BufferOverflowArray: static bound + element size. */
    uint32_t arrayBound = 0;
    uint64_t elemSize = 0;
    /** Access form: a[i] / p[i] (true) vs *p (false). */
    bool indexForm = false;
    /** IntegerOverflow via unary negation. */
    bool negForm = false;
    std::vector<ScopeCandidate> scopeCands;
};

bool
exprIsCallFree(const Expr *e)
{
    if (e->kind() == NodeKind::Call)
        return false;
    bool ok = true;
    forEachChildExpr(const_cast<Expr *>(e), [&](Expr *c) {
        ok = ok && exprIsCallFree(c);
    });
    return ok;
}

//===----------------------------------------------------------------===//
// Expression matching (GetMatchedExpr)
//===----------------------------------------------------------------===//

class Matcher
{
  public:
    explicit Matcher(std::vector<Site> (&sites)[kNumUBKinds])
        : sites_(sites)
    {}

    void
    run(const Program &p)
    {
        for (const FunctionDecl *f : p.functions()) {
            if (f->body() && !f->isBuiltin()) {
                closed_.clear(); // candidates never cross functions
                curFunc_ = f->nodeId();
                walkBlock(f->body());
            }
        }
    }

  private:
    std::vector<Site> (&sites_)[kNumUBKinds];
    uint32_t curFunc_ = 0;
    uint32_t curBlock_ = 0;
    size_t curIndex_ = 0;
    std::vector<ScopeCandidate> closed_;

    void
    addSite(Site s)
    {
        s.funcId = curFunc_;
        s.blockId = curBlock_;
        s.stmtIndex = curIndex_;
        sites_[static_cast<size_t>(s.kind)].push_back(std::move(s));
    }

    void
    walkBlock(const Block *b)
    {
        uint32_t saved_block = curBlock_;
        size_t saved_index = curIndex_;
        size_t saved_closed = closed_.size();
        for (size_t i = 0; i < b->stmts().size(); i++) {
            curBlock_ = b->nodeId();
            curIndex_ = i;
            walkStmt(b->stmts()[i]);
            curBlock_ = b->nodeId();
            curIndex_ = i;
            collectClosed(b->stmts()[i]);
        }
        // Inner candidates stay available to *outer* later statements:
        // a block closed inside this block is also closed for whatever
        // follows in the parent. Keep them.
        (void)saved_closed;
        curBlock_ = saved_block;
        curIndex_ = saved_index;
    }

    void
    collectClosed(const Stmt *s)
    {
        auto add_block = [&](const Block *b) {
            if (!b)
                return;
            for (const Stmt *st : b->stmts()) {
                if (auto *d = st->dynCast<DeclStmt>()) {
                    const VarDecl *v = d->var();
                    if (v->type()->isInteger() ||
                        v->type()->isArray()) {
                        closed_.push_back(
                            {b->nodeId(), v->nodeId(),
                             v->type()->size(), v->type()});
                    }
                }
            }
        };
        switch (s->kind()) {
          case NodeKind::IfStmt:
            add_block(s->as<IfStmt>()->thenBlock());
            add_block(s->as<IfStmt>()->elseBlock());
            break;
          case NodeKind::ForStmt:
            add_block(s->as<ForStmt>()->body());
            break;
          case NodeKind::WhileStmt:
            add_block(s->as<WhileStmt>()->body());
            break;
          case NodeKind::Block:
            add_block(s->as<Block>());
            break;
          default:
            break;
        }
    }

    void
    walkStmt(const Stmt *s)
    {
        switch (s->kind()) {
          case NodeKind::DeclStmt: {
            const VarDecl *v = s->as<DeclStmt>()->var();
            if (v->init())
                walkExpr(v->init());
            break;
          }
          case NodeKind::AssignStmt:
            walkExpr(s->as<AssignStmt>()->lhs());
            walkExpr(s->as<AssignStmt>()->rhs());
            break;
          case NodeKind::ExprStmt:
            walkExpr(s->as<ExprStmt>()->expr());
            break;
          case NodeKind::IfStmt: {
            auto *i = s->as<IfStmt>();
            condSite(i->cond());
            walkExpr(i->cond());
            walkBlock(i->thenBlock());
            if (i->elseBlock())
                walkBlock(i->elseBlock());
            break;
          }
          case NodeKind::WhileStmt: {
            auto *w = s->as<WhileStmt>();
            condSite(w->cond());
            walkExpr(w->cond());
            walkBlock(w->body());
            break;
          }
          case NodeKind::ForStmt: {
            auto *f = s->as<ForStmt>();
            if (f->init())
                walkStmt(f->init());
            if (f->cond()) {
                condSite(f->cond());
                walkExpr(f->cond());
            }
            if (f->step())
                walkStmt(f->step());
            walkBlock(f->body());
            break;
          }
          case NodeKind::Block:
            walkBlock(s->as<Block>());
            break;
          case NodeKind::ReturnStmt:
            if (s->as<ReturnStmt>()->value())
                walkExpr(s->as<ReturnStmt>()->value());
            break;
          default:
            break;
        }
    }

    /** if(x) / while(x) / for(;x;) conditions: uninit-memory sites. */
    void
    condSite(const Expr *cond)
    {
        if (!cond->type()->isInteger())
            return;
        Site s;
        s.kind = UBKind::UseOfUninitMemory;
        s.exprId = cond->nodeId();
        addSite(std::move(s));
    }

    /** Pointer-flavoured sites for a deref-like access. Overflow
     *  rewriting only applies to *p and p[i] forms (not p->f, whose
     *  pointer cannot be offset in place). */
    void
    pointerSites(const Expr *accessExpr, const Expr *pointerExpr,
                 bool indexForm, uint64_t accessSize,
                 bool allowOverflow = true)
    {
        if (!exprIsCallFree(pointerExpr))
            return;
        if (allowOverflow) {
            Site s;
            s.kind = UBKind::BufferOverflowPointer;
            s.exprId = accessExpr->nodeId();
            s.subId = pointerExpr->nodeId();
            s.indexForm = indexForm;
            s.elemSize = accessSize;
            addSite(std::move(s));
        }
        // Δ(p) mutations need p to be a plain assignable variable.
        const VarRef *vr = pointerExpr->dynCast<VarRef>();
        if (!vr)
            return;
        for (UBKind k : {UBKind::NullPtrDeref, UBKind::UseAfterFree,
                         UBKind::UseAfterScope}) {
            Site s;
            s.kind = k;
            s.exprId = accessExpr->nodeId();
            s.subId = pointerExpr->nodeId();
            s.ptrVarId = vr->decl()->nodeId();
            s.ptrVarType = vr->decl()->type();
            s.elemSize = accessSize;
            if (k == UBKind::UseAfterScope) {
                // The shadow statement `p = &q` is inserted inside the
                // candidate block, so p must be visible there: globals
                // and parameters always are; locals would need scope
                // analysis, so they are skipped.
                if (closed_.empty() ||
                    vr->decl()->storage() == Storage::Local)
                    continue;
                s.scopeCands = closed_;
            }
            addSite(std::move(s));
        }
    }

    void
    walkExpr(const Expr *e)
    {
        switch (e->kind()) {
          case NodeKind::Binary: {
            auto *b = e->as<Binary>();
            const Type *t = b->type();
            bool call_free_ops = exprIsCallFree(b->lhs()) &&
                                 exprIsCallFree(b->rhs());
            if (t->isInteger()) {
                if (isArithOp(b->op()) &&
                    ast::scalarSigned(t->scalar()) && call_free_ops) {
                    Site s;
                    s.kind = UBKind::IntegerOverflow;
                    s.exprId = b->nodeId();
                    addSite(std::move(s));
                }
                if (isShiftOp(b->op()) &&
                    exprIsCallFree(b->rhs())) {
                    Site s;
                    s.kind = UBKind::ShiftOverflow;
                    s.exprId = b->nodeId();
                    addSite(std::move(s));
                }
                if (isDivRemOp(b->op()) &&
                    exprIsCallFree(b->rhs())) {
                    Site s;
                    s.kind = UBKind::DivideByZero;
                    s.exprId = b->nodeId();
                    addSite(std::move(s));
                }
            }
            walkExpr(b->lhs());
            walkExpr(b->rhs());
            break;
          }
          case NodeKind::Unary: {
            auto *u = e->as<Unary>();
            if (u->op() == UnaryOp::Neg && u->type()->isInteger() &&
                ast::scalarSigned(u->type()->scalar()) &&
                exprIsCallFree(u->sub())) {
                Site s;
                s.kind = UBKind::IntegerOverflow;
                s.exprId = u->nodeId();
                s.negForm = true;
                addSite(std::move(s));
            }
            if (u->op() == UnaryOp::Deref &&
                (u->sub()->type()->isPointer())) {
                uint64_t size = u->type()->isStruct() ||
                                        u->type()->isInteger()
                                    ? u->type()->size()
                                    : 8;
                pointerSites(u, u->sub(), /*indexForm=*/false, size);
            }
            walkExpr(u->sub());
            break;
          }
          case NodeKind::Index: {
            auto *ix = e->as<Index>();
            const Type *bt = ix->base()->type();
            if (bt->isArray() && exprIsCallFree(ix->index())) {
                Site s;
                s.kind = UBKind::BufferOverflowArray;
                s.exprId = ix->nodeId();
                s.arrayBound = bt->arraySize();
                s.elemSize = bt->element()->size();
                s.indexForm = true;
                addSite(std::move(s));
            } else if (bt->isPointer()) {
                pointerSites(ix, ix->base(), /*indexForm=*/true,
                             ix->type()->isInteger() ||
                                     ix->type()->isStruct()
                                 ? ix->type()->size()
                                 : 8);
            }
            walkExpr(ix->base());
            walkExpr(ix->index());
            break;
          }
          case NodeKind::Member: {
            auto *m = e->as<Member>();
            if (m->isArrow())
                pointerSites(m, m->base(), /*indexForm=*/false,
                             m->type()->size(),
                             /*allowOverflow=*/false);
            walkExpr(m->base());
            break;
          }
          default:
            forEachChildExpr(const_cast<Expr *>(e),
                             [&](Expr *c) { walkExpr(c); });
            break;
        }
    }
};

} // namespace

//===----------------------------------------------------------------===//
// UBGenerator implementation
//===----------------------------------------------------------------===//

struct UBGenerator::Impl
{
    const Program &seed;
    std::vector<Site> sites[kNumUBKinds];
    vm::RawProfile profile;
    bool profiled = false;

    explicit Impl(const Program &s) : seed(s)
    {
        Matcher(sites).run(seed);
        runProfile();
    }

    //===------------------------------------------------------------===//
    // Program profiling (Profile, §3.2.2)
    //===------------------------------------------------------------===//

    void
    runProfile()
    {
        ClonedProgram clone = cloneProgram(seed);
        Program &p = *clone.program;
        ExprBuilder eb(p);
        FunctionDecl *log_val = p.builtin(Builtin::LogVal);
        FunctionDecl *log_ptr = p.builtin(Builtin::LogPtr);

        // Gather insertions: (blockId, index, stmt).
        struct Insertion
        {
            uint32_t blockId;
            size_t index;
            Stmt *stmt;
        };
        std::vector<Insertion> insertions;
        std::unordered_set<uint32_t> scope_blocks;

        auto lit_id = [&](uint32_t id) {
            return eb.lit(static_cast<int64_t>(id), ScalarKind::S64);
        };

        for (const auto &kind_sites : sites) {
            for (const Site &site : kind_sites) {
                Stmt *marker = nullptr;
                if (site.subId) {
                    Expr *sub =
                        clone.findAs<Expr>(site.subId);
                    Expr *addr;
                    if (site.indexForm) {
                        // Log the address of p[i].
                        Expr *access =
                            clone.findAs<Expr>(site.exprId);
                        addr = eb.addrOf(
                            cloneExprInto(p, access));
                    } else {
                        addr = cloneExprInto(p, sub);
                    }
                    marker = p.ctx().make<ExprStmt>(eb.call(
                        log_ptr,
                        {lit_id(site.exprId),
                         eb.cast(p.types().bytePtr(), addr)}));
                } else {
                    marker = p.ctx().make<ExprStmt>(
                        eb.call(log_val, {lit_id(site.exprId),
                                          eb.lit(0, ScalarKind::S64)}));
                }
                insertions.push_back(
                    {site.blockId, site.stmtIndex, marker});
                for (const ScopeCandidate &c : site.scopeCands)
                    scope_blocks.insert(c.blockId);
            }
        }
        for (uint32_t bid : scope_blocks) {
            Stmt *marker = p.ctx().make<ExprStmt>(eb.call(
                log_val, {lit_id(bid), eb.lit(1, ScalarKind::S64)}));
            insertions.push_back({bid, 0, marker});
        }

        // Apply: per block, descending index.
        std::unordered_map<uint32_t, std::vector<Insertion>> by_block;
        for (auto &ins : insertions)
            by_block[ins.blockId].push_back(ins);
        for (auto &[bid, list] : by_block) {
            Node *n = clone.find(bid);
            if (!n)
                continue;
            Block *b = n->as<Block>();
            std::stable_sort(list.begin(), list.end(),
                             [](const Insertion &a, const Insertion &o) {
                                 return a.index > o.index;
                             });
            for (auto &ins : list)
                b->insert(std::min(ins.index, b->stmts().size()),
                          ins.stmt);
        }

        // Execute the instrumented program.
        PrintedProgram printed = printProgram(p);
        ir::Module mod = ir::lowerProgram(p, printed.map);
        vm::ExecOptions opts;
        opts.profile = &profile;
        opts.stepLimit = 2'000'000;
        vm::ExecResult r = vm::execute(mod, opts);
        profiled = r.kind != vm::ExecResult::Kind::Timeout;
    }

    //===------------------------------------------------------------===//
    // Profile queries (Q_liv / Q_val / Q_mem / Q_scp)
    //===------------------------------------------------------------===//

    bool
    valueLive(uint32_t siteId) const
    {
        return profile.values.count(siteId) > 0;
    }

    const vm::PtrRecord *
    pointerRecord(uint32_t siteId) const
    {
        auto it = profile.pointers.find(siteId);
        if (it == profile.pointers.end() || it->second.empty())
            return nullptr;
        return &it->second.front();
    }

    bool
    blockExecuted(uint32_t blockId) const
    {
        return profile.values.count(blockId) > 0;
    }

    //===------------------------------------------------------------===//
    // Shadow statement synthesis and insertion (SynShadowStmt/Insert)
    //===------------------------------------------------------------===//

    /** New zero-initialized global auxiliary variable. */
    VarDecl *
    makeAux(Program &p, ExprBuilder &eb, ScalarKind k, int &counter)
    {
        auto *aux = p.ctx().make<VarDecl>(
            "__ub_d" + std::to_string(counter++),
            p.types().scalar(k), Storage::Global,
            eb.lit(0, ast::scalarBits(k) >= 64 ? ScalarKind::S64
                                               : ScalarKind::S32));
        p.globals().push_back(aux);
        return aux;
    }

    /**
     * `(T)((U)v - (U)(x))` — the delta that forces x + delta == v,
     * computed through unsigned arithmetic so the shadow statement is
     * itself UB-free.
     */
    Expr *
    unsignedDelta(Program &p, ExprBuilder &eb, ScalarKind k, uint64_t v,
                  Expr *xCopy)
    {
        ScalarKind uk = ast::scalarBits(k) >= 64 ? ScalarKind::U64
                                                 : ScalarKind::U32;
        const Type *ut = p.types().scalar(uk);
        Expr *uv = eb.litOf(ir::canonicalValue(v, uk), ut);
        Expr *ux = eb.cast(ut, xCopy);
        return eb.cast(p.types().scalar(k),
                       eb.bin(BinaryOp::Sub, uv, ux));
    }

    ScalarKind
    promotedKind(Program &p, const Type *t)
    {
        return promote(p.types(), t)->scalar();
    }

    std::optional<UBProgram>
    synthesize(const Site &site, Rng &rng, int &auxCounter)
    {
        ClonedProgram clone = cloneProgram(seed);
        Program &p = *clone.program;
        ExprBuilder eb(p);
        Block *block = clone.findAs<Block>(site.blockId);
        size_t at = std::min(site.stmtIndex, block->stmts().size());

        UBProgram out;
        out.kind = site.kind;
        out.siteId = site.exprId;
        out.perturbedFnId = site.funcId;

        switch (site.kind) {
          case UBKind::BufferOverflowArray: {
            if (!valueLive(site.exprId))
                return std::nullopt;
            auto *ix = clone.findAs<Index>(site.exprId);
            ScalarKind k =
                promotedKind(p, ix->index()->type());
            VarDecl *aux = makeAux(p, eb, k, auxCounter);
            // Pick the overflow index v: usually the first OOB slot,
            // sometimes deeper into the redzone, sometimes negative.
            int64_t v;
            uint64_t max_extra =
                site.elemSize ? std::max<uint64_t>(28 / site.elemSize, 0)
                              : 0;
            uint64_t roll = rng.below(10);
            if (roll < 5 || max_extra == 0)
                v = site.arrayBound;
            else if (roll < 9)
                v = site.arrayBound +
                    1 + static_cast<int64_t>(rng.below(max_extra));
            else
                v = -1 - static_cast<int64_t>(rng.below(2));
            Expr *x_copy = cloneExprInto(p, ix->index());
            Stmt *shadow = p.ctx().make<AssignStmt>(
                AssignOp::Assign, eb.ref(aux),
                unsignedDelta(p, eb, k, static_cast<uint64_t>(v),
                              x_copy));
            block->insert(at, shadow);
            ix->setIndex(eb.bin(BinaryOp::Add, ix->index(),
                                eb.ref(aux)));
            out.shadowDesc = std::string(aux->name()) + " = " + std::to_string(v) +
                             " - (index)";
            break;
          }
          case UBKind::BufferOverflowPointer: {
            const vm::PtrRecord *rec = pointerRecord(site.exprId);
            if (!rec || !rec->objectId ||
                rec->objectState != vm::ObjectState::Live)
                return std::nullopt;
            uint64_t elem = std::max<uint64_t>(site.elemSize, 1);
            uint64_t end = rec->objectBase + rec->objectSize;
            if (rec->address >= end)
                return std::nullopt; // already at/past the end?
            uint64_t delta_bytes = end - rec->address;
            uint64_t bc = (delta_bytes + elem - 1) / elem;
            uint64_t extra_room = elem <= 24 ? (24 / elem) : 0;
            if (extra_room)
                bc += rng.below(extra_room + 1);
            VarDecl *aux =
                makeAux(p, eb, ScalarKind::S64, auxCounter);
            Stmt *shadow = p.ctx().make<AssignStmt>(
                AssignOp::Assign, eb.ref(aux),
                eb.lit(static_cast<int64_t>(bc), ScalarKind::S64));
            block->insert(at, shadow);
            if (site.indexForm) {
                auto *ix = clone.findAs<Index>(site.exprId);
                ix->setIndex(eb.bin(BinaryOp::Add, ix->index(),
                                    eb.ref(aux)));
            } else {
                auto *d = clone.findAs<Unary>(site.exprId);
                d->setSub(
                    eb.bin(BinaryOp::Add, d->sub(), eb.ref(aux)));
            }
            out.shadowDesc =
                std::string(aux->name()) + " = " + std::to_string(bc) +
                " (elements past the pointee)";
            break;
          }
          case UBKind::UseAfterFree: {
            const vm::PtrRecord *rec = pointerRecord(site.exprId);
            if (!rec || rec->objectKind != vm::ObjectKind::Heap ||
                rec->objectState != vm::ObjectState::Live ||
                rec->address != rec->objectBase)
                return std::nullopt;
            auto *pv = clone.findAs<VarDecl>(site.ptrVarId);
            Stmt *shadow = p.ctx().make<ExprStmt>(
                eb.call(p.builtin(Builtin::Free),
                        {eb.cast(p.types().bytePtr(), eb.ref(pv))}));
            block->insert(at, shadow);
            out.shadowDesc = "__free(" + std::string(pv->name()) + ")";
            break;
          }
          case UBKind::UseAfterScope: {
            const vm::PtrRecord *rec = pointerRecord(site.exprId);
            if (!rec)
                return std::nullopt;
            const Type *pointee = site.ptrVarType->element();
            const ScopeCandidate *chosen = nullptr;
            for (const ScopeCandidate &c : site.scopeCands) {
                if (c.varSize >= pointee->size() &&
                    blockExecuted(c.blockId)) {
                    chosen = &c;
                    break;
                }
            }
            if (!chosen)
                return std::nullopt;
            auto *pv = clone.findAs<VarDecl>(site.ptrVarId);
            auto *qv = clone.findAs<VarDecl>(chosen->varId);
            Block *inner = clone.findAs<Block>(chosen->blockId);
            Expr *addr;
            if (qv->type()->isArray()) {
                addr = eb.addrOf(eb.index(eb.ref(qv), eb.lit(0)));
            } else {
                addr = eb.addrOf(eb.ref(qv));
            }
            Expr *rhs = addr->type() == pv->type()
                            ? addr
                            : eb.cast(pv->type(), addr);
            inner->append(p.ctx().make<AssignStmt>(
                AssignOp::Assign, eb.ref(pv), rhs));
            out.shadowDesc =
                std::string(pv->name()) + " = &" + std::string(qv->name()) +
                " (inner scope)";
            break;
          }
          case UBKind::NullPtrDeref: {
            const vm::PtrRecord *rec = pointerRecord(site.exprId);
            if (!rec)
                return std::nullopt;
            auto *pv = clone.findAs<VarDecl>(site.ptrVarId);
            Stmt *shadow = p.ctx().make<AssignStmt>(
                AssignOp::Assign, eb.ref(pv),
                eb.cast(pv->type(), eb.lit(0)));
            block->insert(at, shadow);
            out.shadowDesc = std::string(pv->name()) + " = 0";
            break;
          }
          case UBKind::IntegerOverflow: {
            if (!valueLive(site.exprId))
                return std::nullopt;
            if (site.negForm) {
                auto *u = clone.findAs<Unary>(site.exprId);
                ScalarKind k = u->type()->scalar();
                int bits = ast::scalarBits(k);
                uint64_t minv =
                    bits >= 64 ? static_cast<uint64_t>(INT64_MIN)
                               : (~0ULL << (bits - 1));
                VarDecl *aux = makeAux(p, eb, k, auxCounter);
                Expr *x_copy = cloneExprInto(p, u->sub());
                block->insert(
                    at, p.ctx().make<AssignStmt>(
                            AssignOp::Assign, eb.ref(aux),
                            unsignedDelta(p, eb, k, minv, x_copy)));
                u->setSub(
                    eb.bin(BinaryOp::Add, u->sub(), eb.ref(aux)));
                out.shadowDesc = std::string(aux->name()) + " forces -(MIN)";
                break;
            }
            auto *b = clone.findAs<Binary>(site.exprId);
            ScalarKind k = b->type()->scalar();
            int bits = ast::scalarBits(k);
            int64_t maxv = bits >= 64 ? INT64_MAX
                                      : (1LL << (bits - 1)) - 1;
            int64_t minv = bits >= 64 ? INT64_MIN
                                      : -(1LL << (bits - 1));
            // Monte Carlo value pair that overflows (§3.2.3).
            int64_t v0, v1;
            switch (b->op()) {
              case BinaryOp::Add:
                v0 = maxv - static_cast<int64_t>(rng.below(1000));
                v1 = 1001 + static_cast<int64_t>(rng.below(9000));
                break;
              case BinaryOp::Sub:
                v0 = minv + static_cast<int64_t>(rng.below(1000));
                v1 = 1001 + static_cast<int64_t>(rng.below(9000));
                break;
              default: // Mul
                if (bits >= 64) {
                    v0 = (1LL << 33) +
                         static_cast<int64_t>(rng.below(1 << 20));
                    v1 = (1LL << 33) +
                         static_cast<int64_t>(rng.below(1 << 20));
                } else {
                    v0 = 70000 +
                         static_cast<int64_t>(rng.below(100000));
                    v1 = 70000 +
                         static_cast<int64_t>(rng.below(100000));
                }
                break;
            }
            VarDecl *aux0 = makeAux(p, eb, k, auxCounter);
            VarDecl *aux1 = makeAux(p, eb, k, auxCounter);
            Expr *x_copy = cloneExprInto(p, b->lhs());
            Expr *y_copy = cloneExprInto(p, b->rhs());
            block->insert(
                at, p.ctx().make<AssignStmt>(
                        AssignOp::Assign, eb.ref(aux1),
                        unsignedDelta(p, eb, k,
                                      static_cast<uint64_t>(v1),
                                      y_copy)));
            block->insert(
                at, p.ctx().make<AssignStmt>(
                        AssignOp::Assign, eb.ref(aux0),
                        unsignedDelta(p, eb, k,
                                      static_cast<uint64_t>(v0),
                                      x_copy)));
            b->setLhs(eb.bin(BinaryOp::Add, b->lhs(), eb.ref(aux0)));
            b->setRhs(eb.bin(BinaryOp::Add, b->rhs(), eb.ref(aux1)));
            out.shadowDesc = "operands forced to " +
                             std::to_string(v0) + " op " +
                             std::to_string(v1);
            break;
          }
          case UBKind::ShiftOverflow: {
            if (!valueLive(site.exprId))
                return std::nullopt;
            auto *b = clone.findAs<Binary>(site.exprId);
            ScalarKind k = b->type()->scalar();
            int bits = ast::scalarBits(k);
            int64_t v = rng.percent(30)
                            ? -1 - static_cast<int64_t>(rng.below(4))
                            : bits + static_cast<int64_t>(
                                         rng.below(16));
            ScalarKind ck = promotedKind(p, b->rhs()->type());
            VarDecl *aux = makeAux(p, eb, ck, auxCounter);
            Expr *y_copy = cloneExprInto(p, b->rhs());
            block->insert(
                at, p.ctx().make<AssignStmt>(
                        AssignOp::Assign, eb.ref(aux),
                        unsignedDelta(p, eb, ck,
                                      static_cast<uint64_t>(v),
                                      y_copy)));
            b->setRhs(eb.bin(BinaryOp::Add, b->rhs(), eb.ref(aux)));
            out.shadowDesc =
                "shift count forced to " + std::to_string(v);
            break;
          }
          case UBKind::DivideByZero: {
            if (!valueLive(site.exprId))
                return std::nullopt;
            auto *b = clone.findAs<Binary>(site.exprId);
            ScalarKind ck = promotedKind(p, b->rhs()->type());
            VarDecl *aux = makeAux(p, eb, ck, auxCounter);
            Expr *y_copy = cloneExprInto(p, b->rhs());
            block->insert(
                at, p.ctx().make<AssignStmt>(
                        AssignOp::Assign, eb.ref(aux),
                        unsignedDelta(p, eb, ck, 0, y_copy)));
            b->setRhs(eb.bin(BinaryOp::Add, b->rhs(), eb.ref(aux)));
            out.shadowDesc = "divisor forced to 0";
            break;
          }
          case UBKind::UseOfUninitMemory: {
            if (!valueLive(site.exprId))
                return std::nullopt;
            Node *n = clone.find(site.exprId);
            if (!n)
                return std::nullopt;
            Expr *cond = static_cast<Expr *>(n);
            auto *aux = p.ctx().make<VarDecl>(
                "__ub_u" + std::to_string(auxCounter++),
                p.types().s32(), Storage::Local, nullptr);
            block->insert(at, p.ctx().make<DeclStmt>(aux));
            BinaryOp op =
                rng.percent(50) ? BinaryOp::Add : BinaryOp::Sub;
            Expr *newCond = eb.bin(op, cond, eb.ref(aux));
            // Replace the condition in its owner statement.
            if (!replaceCond(*clone.program, site.exprId, newCond))
                return std::nullopt;
            out.siteId = newCond->nodeId();
            out.shadowDesc = "condition mixed with uninitialized " +
                             std::string(aux->name());
            break;
          }
          case UBKind::kCount:
            return std::nullopt;
        }
        out.program = std::move(clone.program);
        return out;
    }

    /** Find the If/While/For whose condition has @p condId and swap
     *  the condition for @p newCond. */
    bool
    replaceCond(Program &p, uint32_t condId, Expr *newCond)
    {
        bool done = false;
        for (FunctionDecl *f : p.functions()) {
            if (f->body())
                replaceCondInBlock(f->body(), condId, newCond, done);
        }
        return done;
    }

    void
    replaceCondInBlock(Block *b, uint32_t condId, Expr *newCond,
                       bool &done)
    {
        for (Stmt *s : b->stmts()) {
            if (done)
                return;
            switch (s->kind()) {
              case NodeKind::IfStmt: {
                auto *i = s->as<IfStmt>();
                if (i->cond()->nodeId() == condId) {
                    i->setCond(newCond);
                    done = true;
                    return;
                }
                replaceCondInBlock(i->thenBlock(), condId, newCond,
                                   done);
                if (i->elseBlock())
                    replaceCondInBlock(i->elseBlock(), condId, newCond,
                                       done);
                break;
              }
              case NodeKind::WhileStmt: {
                auto *w = s->as<WhileStmt>();
                if (w->cond()->nodeId() == condId) {
                    w->setCond(newCond);
                    done = true;
                    return;
                }
                replaceCondInBlock(w->body(), condId, newCond, done);
                break;
              }
              case NodeKind::ForStmt: {
                auto *fr = s->as<ForStmt>();
                if (fr->cond() && fr->cond()->nodeId() == condId) {
                    fr->setCond(newCond);
                    done = true;
                    return;
                }
                replaceCondInBlock(fr->body(), condId, newCond, done);
                break;
              }
              case NodeKind::Block:
                replaceCondInBlock(s->as<Block>(), condId, newCond,
                                   done);
                break;
              default:
                break;
            }
        }
    }
};

UBGenerator::UBGenerator(const Program &seed)
    : impl_(std::make_unique<Impl>(seed))
{}

UBGenerator::~UBGenerator() = default;

bool
UBGenerator::profiled() const
{
    return impl_->profiled;
}

std::vector<UBProgram>
UBGenerator::generate(UBKind kind, Rng &rng, size_t cap)
{
    std::vector<UBProgram> result;
    int aux_counter = 0;
    for (const Site &site :
         impl_->sites[static_cast<size_t>(kind)]) {
        if (result.size() >= cap)
            break;
        if (auto ub = impl_->synthesize(site, rng, aux_counter))
            result.push_back(std::move(*ub));
    }
    return result;
}

std::vector<UBProgram>
UBGenerator::generateAll(Rng &rng, size_t capPerKind)
{
    std::vector<UBProgram> all;
    for (UBKind k : kAllUBKinds) {
        auto programs = generate(k, rng, capPerKind);
        for (auto &ub : programs)
            all.push_back(std::move(ub));
    }
    return all;
}

bool
validateUBProgram(const UBProgram &ub)
{
    PrintedProgram printed = printProgram(*ub.program);
    ir::Module mod = ir::lowerProgram(*ub.program, printed.map);
    vm::Machine machine; // one-off; bit-identical to vm::execute
    return validateUBModule(ub, mod, printed, machine);
}

bool
validateUBModule(const UBProgram &ub, const ir::Module &mod,
                 const ast::PrintedProgram &printed, vm::Machine &machine)
{
    vm::ExecOptions opts;
    opts.groundTruth = true;
    opts.stepLimit = kGroundTruthStepLimit;
    vm::ExecResult r = machine.run(mod, opts);
    if (r.kind != vm::ExecResult::Kind::Report)
        return false;
    if (!reportMatchesKind(ub.kind, r.report))
        return false;
    return r.reportLoc == ub.expectedLoc(printed);
}

} // namespace ubfuzz::ubgen
