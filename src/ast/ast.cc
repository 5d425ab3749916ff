#include "ast/ast.h"

#include <algorithm>

namespace ubfuzz::ast {

const char *
unaryOpSpelling(UnaryOp op)
{
    switch (op) {
      case UnaryOp::Neg: return "-";
      case UnaryOp::BitNot: return "~";
      case UnaryOp::LogNot: return "!";
      case UnaryOp::Deref: return "*";
      case UnaryOp::AddrOf: return "&";
    }
    return "?";
}

const char *
binaryOpSpelling(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add: return "+";
      case BinaryOp::Sub: return "-";
      case BinaryOp::Mul: return "*";
      case BinaryOp::Div: return "/";
      case BinaryOp::Rem: return "%";
      case BinaryOp::Shl: return "<<";
      case BinaryOp::Shr: return ">>";
      case BinaryOp::BitAnd: return "&";
      case BinaryOp::BitOr: return "|";
      case BinaryOp::BitXor: return "^";
      case BinaryOp::Lt: return "<";
      case BinaryOp::Le: return "<=";
      case BinaryOp::Gt: return ">";
      case BinaryOp::Ge: return ">=";
      case BinaryOp::Eq: return "==";
      case BinaryOp::Ne: return "!=";
      case BinaryOp::LAnd: return "&&";
      case BinaryOp::LOr: return "||";
    }
    return "?";
}

bool
isArithOp(BinaryOp op)
{
    return op == BinaryOp::Add || op == BinaryOp::Sub ||
           op == BinaryOp::Mul;
}

bool
isDivRemOp(BinaryOp op)
{
    return op == BinaryOp::Div || op == BinaryOp::Rem;
}

bool
isShiftOp(BinaryOp op)
{
    return op == BinaryOp::Shl || op == BinaryOp::Shr;
}

bool
isComparisonOp(BinaryOp op)
{
    return op >= BinaryOp::Lt && op <= BinaryOp::Ne;
}

bool
isLogicalOp(BinaryOp op)
{
    return op == BinaryOp::LAnd || op == BinaryOp::LOr;
}

int
binaryOpPrecedence(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Mul: case BinaryOp::Div: case BinaryOp::Rem:
        return 10;
      case BinaryOp::Add: case BinaryOp::Sub:
        return 9;
      case BinaryOp::Shl: case BinaryOp::Shr:
        return 8;
      case BinaryOp::Lt: case BinaryOp::Le:
      case BinaryOp::Gt: case BinaryOp::Ge:
        return 7;
      case BinaryOp::Eq: case BinaryOp::Ne:
        return 6;
      case BinaryOp::BitAnd:
        return 5;
      case BinaryOp::BitXor:
        return 4;
      case BinaryOp::BitOr:
        return 3;
      case BinaryOp::LAnd:
        return 2;
      case BinaryOp::LOr:
        return 1;
    }
    return 0;
}

const char *
assignOpSpelling(AssignOp op)
{
    switch (op) {
      case AssignOp::Assign: return "=";
      case AssignOp::AddAssign: return "+=";
      case AssignOp::SubAssign: return "-=";
      case AssignOp::MulAssign: return "*=";
      case AssignOp::AndAssign: return "&=";
      case AssignOp::OrAssign: return "|=";
      case AssignOp::XorAssign: return "^=";
    }
    return "?";
}

BinaryOp
assignOpBinary(AssignOp op)
{
    switch (op) {
      case AssignOp::AddAssign: return BinaryOp::Add;
      case AssignOp::SubAssign: return BinaryOp::Sub;
      case AssignOp::MulAssign: return BinaryOp::Mul;
      case AssignOp::AndAssign: return BinaryOp::BitAnd;
      case AssignOp::OrAssign: return BinaryOp::BitOr;
      case AssignOp::XorAssign: return BinaryOp::BitXor;
      default:
        UBF_PANIC("assignOpBinary on plain assignment");
    }
}

//===------------------------------------------------------------------===//
// Node constructors needing complete types or the context pools
//===------------------------------------------------------------------===//

Call::Call(ASTContext *ctx, uint32_t id, FunctionDecl *callee,
           const std::vector<Expr *> &args, const Type *type)
    : Expr(ctx, NodeKind::Call, id, type), callee_(refOf(callee))
{
    std::vector<NodeIndex> idxs;
    idxs.reserve(args.size());
    for (Expr *a : args)
        idxs.push_back(refOf(a));
    args_ = ctx->listMake(idxs.data(), static_cast<uint32_t>(idxs.size()));
}

InitList::InitList(ASTContext *ctx, uint32_t id,
                   const std::vector<Expr *> &elems, const Type *type)
    : Expr(ctx, NodeKind::InitList, id, type)
{
    std::vector<NodeIndex> idxs;
    idxs.reserve(elems.size());
    for (Expr *e : elems)
        idxs.push_back(refOf(e));
    elems_ = ctx->listMake(idxs.data(), static_cast<uint32_t>(idxs.size()));
}

IfStmt::IfStmt(ASTContext *ctx, uint32_t id, Expr *cond, Block *thenBlock,
               Block *elseBlock)
    : Stmt(ctx, NodeKind::IfStmt, id), cond_(refOf(cond)),
      then_(refOf(thenBlock)), else_(refOf(elseBlock))
{}

ForStmt::ForStmt(ASTContext *ctx, uint32_t id, Stmt *init, Expr *cond,
                 Stmt *step, Block *body)
    : Stmt(ctx, NodeKind::ForStmt, id), init_(refOf(init)),
      cond_(refOf(cond)), step_(refOf(step)), body_(refOf(body))
{}

WhileStmt::WhileStmt(ASTContext *ctx, uint32_t id, Expr *cond, Block *body)
    : Stmt(ctx, NodeKind::WhileStmt, id), cond_(refOf(cond)),
      body_(refOf(body))
{}

VarDecl::VarDecl(ASTContext *ctx, uint32_t id, std::string_view name,
                 const Type *type, Storage storage, Expr *init)
    : Node(ctx, NodeKind::VarDecl, id), type_(TypeTable::refOf(type)),
      storage_(storage), init_(refOf(init))
{
    ctx->internString(name, nameOff_, nameLen_);
}

FieldDecl::FieldDecl(ASTContext *ctx, uint32_t id, std::string_view name,
                     const Type *type)
    : Node(ctx, NodeKind::FieldDecl, id), type_(TypeTable::refOf(type))
{
    ctx->internString(name, nameOff_, nameLen_);
}

StructDecl::StructDecl(ASTContext *ctx, uint32_t id, std::string_view name)
    : Node(ctx, NodeKind::StructDecl, id)
{
    ctx->internString(name, nameOff_, nameLen_);
}

FunctionDecl::FunctionDecl(ASTContext *ctx, uint32_t id,
                           std::string_view name, const Type *retType)
    : Node(ctx, NodeKind::FunctionDecl, id),
      retType_(TypeTable::refOf(retType))
{
    ctx->internString(name, nameOff_, nameLen_);
}

const FieldDecl *
StructDecl::findField(std::string_view name) const
{
    for (const FieldDecl *f : fields())
        if (f->name() == name)
            return f;
    return nullptr;
}

//===------------------------------------------------------------------===//
// ASTContext
//===------------------------------------------------------------------===//

ASTContext::~ASTContext()
{
    // Slots are trivially destructible by construction (static_assert
    // in construct<T>), so chunks are plain byte arrays.
    for (char *c : chunks_)
        delete[] c;
}

void
ASTContext::registerId(uint32_t id, NodeIndex idx)
{
    if (id >= idToIndex_.size())
        idToIndex_.resize(id + 1, kNullNode);
    UBF_ASSERT(idToIndex_[id] == kNullNode, "duplicate nodeId ", id);
    idToIndex_[id] = idx;
}

void
ASTContext::copyFrom(const ASTContext &src)
{
    UBF_ASSERT(numNodes_ == 0 && pool_.empty() && strings_.empty(),
               "copyFrom target must be fresh");
    chunks_.reserve(src.chunks_.size());
    NodeIndex remaining = src.numNodes_;
    for (char *srcChunk : src.chunks_) {
        char *p = new char[static_cast<size_t>(kSlotBytes) * kChunkSlots];
        uint32_t used = std::min<uint32_t>(remaining, kChunkSlots);
        std::memcpy(p, srcChunk, static_cast<size_t>(used) * kSlotBytes);
        chunks_.push_back(p);
        remaining -= used;
    }
    numNodes_ = src.numNodes_;
    // The one per-slot fixup: each node's back-pointer to its context.
    for (NodeIndex i = 0; i < numNodes_; i++)
        reinterpret_cast<Node *>(slot(i))->ctx_ = this;
    pool_ = src.pool_;
    strings_ = src.strings_;
    idToIndex_ = src.idToIndex_;
    nextId_ = src.nextId_;
    types_.copyFrom(src.types_);
}

ListRange
ASTContext::listMake(const NodeIndex *data, uint32_t n)
{
    ListRange r;
    r.off = static_cast<uint32_t>(pool_.size());
    r.len = n;
    r.cap = n;
    pool_.insert(pool_.end(), data, data + n);
    return r;
}

void
ASTContext::listRelocate(ListRange &r, uint32_t minCap)
{
    uint32_t newCap = r.cap ? r.cap * 2 : 2;
    while (newCap < minCap)
        newCap *= 2;
    uint32_t newOff = static_cast<uint32_t>(pool_.size());
    pool_.resize(pool_.size() + newCap);
    // Regions are exclusive and the new one sits past the old, so a
    // plain copy within the (already resized) pool is safe.
    std::copy_n(pool_.begin() + r.off, r.len, pool_.begin() + newOff);
    r.off = newOff;
    r.cap = newCap;
}

void
ASTContext::listAppend(ListRange &r, NodeIndex v)
{
    if (r.len == r.cap)
        listRelocate(r, r.len + 1);
    pool_[r.off + r.len] = v;
    r.len++;
}

void
ASTContext::listInsert(ListRange &r, uint32_t pos, NodeIndex v)
{
    UBF_ASSERT(pos <= r.len, "list insert out of range");
    if (r.len == r.cap)
        listRelocate(r, r.len + 1);
    for (uint32_t i = r.len; i > pos; i--)
        pool_[r.off + i] = pool_[r.off + i - 1];
    pool_[r.off + pos] = v;
    r.len++;
}

void
ASTContext::listErase(ListRange &r, uint32_t pos)
{
    UBF_ASSERT(pos < r.len, "list erase out of range");
    for (uint32_t i = pos; i + 1 < r.len; i++)
        pool_[r.off + i] = pool_[r.off + i + 1];
    r.len--;
}

void
ASTContext::internString(std::string_view s, uint32_t &off, uint32_t &len)
{
    off = static_cast<uint32_t>(strings_.size());
    len = static_cast<uint32_t>(s.size());
    strings_.insert(strings_.end(), s.begin(), s.end());
}

//===------------------------------------------------------------------===//
// Program
//===------------------------------------------------------------------===//

FunctionDecl *
Program::findFunction(const std::string &name) const
{
    for (FunctionDecl *f : functions_)
        if (f->name() == name)
            return f;
    for (FunctionDecl *f : builtins_)
        if (f->name() == name)
            return f;
    return nullptr;
}

VarDecl *
Program::findGlobal(const std::string &name) const
{
    for (VarDecl *g : globals_)
        if (g->name() == name)
            return g;
    return nullptr;
}

StructDecl *
Program::findStruct(const std::string &name) const
{
    for (StructDecl *s : structs_)
        if (s->name() == name)
            return s;
    return nullptr;
}

FunctionDecl *
Program::builtin(Builtin b)
{
    for (FunctionDecl *f : builtins_)
        if (f->builtin() == b)
            return f;

    TypeTable &tt = ctx_.types();
    const Type *s64 = tt.s64();
    const Type *byte_ptr = tt.bytePtr();
    const Type *void_ty = tt.voidTy();

    auto make_fn = [&](const char *name, const Type *ret,
                       std::initializer_list<const Type *> params) {
        FunctionDecl *f = ctx_.make<FunctionDecl>(name, ret);
        int i = 0;
        for (const Type *pt : params) {
            std::string param = "p";
            param += std::to_string(i++);
            f->addParam(
                ctx_.make<VarDecl>(param, pt, Storage::Param, nullptr));
        }
        f->setBuiltin(b);
        builtins_.push_back(f);
        return f;
    };

    switch (b) {
      case Builtin::Malloc:
        return make_fn("__malloc", byte_ptr, {s64});
      case Builtin::Free:
        return make_fn("__free", void_ty, {byte_ptr});
      case Builtin::Checksum:
        return make_fn("__checksum", void_ty, {s64});
      case Builtin::LogVal:
        return make_fn("__log_val", void_ty, {s64, s64});
      case Builtin::LogPtr:
        return make_fn("__log_ptr", void_ty, {s64, byte_ptr});
      case Builtin::LogBuf:
        return make_fn("__log_buf", void_ty, {s64, byte_ptr, s64});
      case Builtin::LogScopeEnter:
        return make_fn("__log_scope_enter", void_ty, {s64});
      case Builtin::LogScopeExit:
        return make_fn("__log_scope_exit", void_ty, {s64});
      case Builtin::None:
        break;
    }
    UBF_PANIC("unknown builtin");
}

bool
isLValue(const Expr *e)
{
    switch (e->kind()) {
      case NodeKind::VarRef:
      case NodeKind::Index:
        return true;
      case NodeKind::Unary:
        return e->as<Unary>()->op() == UnaryOp::Deref;
      case NodeKind::Member:
        return e->as<Member>()->isArrow() ||
               isLValue(e->as<Member>()->base());
      default:
        return false;
    }
}

} // namespace ubfuzz::ast
