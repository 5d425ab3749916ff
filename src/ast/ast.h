/**
 * @file
 * MiniC abstract syntax tree, arena-backed.
 *
 * Every node carries a stable @c nodeId that survives deep cloning, which
 * is how UBGen matches an expression in a seed program and then rewrites
 * the corresponding node in a fresh clone (one clone per generated UB
 * program, so every output has exactly one UB).
 *
 * Representation: nodes live in fixed-size 64-byte slots inside the
 * Program's ASTContext arena (chunked so slots never move), addressed by
 * NodeIndex. Children and cross-references (VarRef -> VarDecl, callees,
 * struct fields) are stored as NodeIndex, variable-arity children
 * (block statements, call args, init lists, fields, params) as
 * (offset, length) ranges into a shared index pool, and names as ranges
 * into a shared string pool. Node slots are therefore trivially
 * copyable: cloneProgram is a chunk memcpy plus a context-pointer
 * patch. The accessors still traffic in node pointers — arena chunks
 * never move, so `Node *` is stable within one program — which keeps
 * every consumer written against the pointer API working unchanged.
 */

#ifndef UBFUZZ_AST_AST_H
#define UBFUZZ_AST_AST_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ast/type.h"
#include "support/diagnostics.h"
#include "support/source_loc.h"

namespace ubfuzz::ast {

class ASTContext;
class Block;
class Expr;
class FunctionDecl;
class VarDecl;
class FieldDecl;
struct ClonedProgram;

/** Index of a node slot in its ASTContext arena. */
using NodeIndex = uint32_t;
inline constexpr NodeIndex kNullNode = 0xFFFFFFFFu;

/** An (offset, length, capacity) range into the context's index pool. */
struct ListRange
{
    uint32_t off = 0;
    uint32_t len = 0;
    uint32_t cap = 0;
};

/** Discriminator for all AST node classes. */
enum class NodeKind : uint8_t {
    // Expressions
    IntLit, VarRef, Unary, Binary, Select, Index, Member, Cast, Call,
    InitList,
    // Statements
    DeclStmt, AssignStmt, ExprStmt, IfStmt, ForStmt, WhileStmt, Block,
    ReturnStmt, BreakStmt, ContinueStmt,
    // Declarations
    VarDecl, FieldDecl, StructDecl, FunctionDecl,
};

/**
 * Base of every AST node: a 24-byte header (kind, nodeId, arena index,
 * context pointer); the derived payload starts at byte 24. The context
 * pointer is the one field that differs between a program and its
 * memcpy clone (ASTContext::copyFrom patches it).
 */
class Node
{
  public:
    NodeKind kind() const { return kind_; }
    /** Stable id, preserved by cloning. */
    uint32_t nodeId() const { return nodeId_; }
    /** This node's slot index in the arena. */
    NodeIndex arenaIndex() const { return index_; }
    ASTContext &ctx() const { return *ctx_; }

    /**
     * Checked downcast. @return nullptr when the dynamic kind differs.
     */
    template <typename T>
    T *
    dynCast()
    {
        return T::classof(kind_) ? static_cast<T *>(this) : nullptr;
    }

    template <typename T>
    const T *
    dynCast() const
    {
        return T::classof(kind_) ? static_cast<const T *>(this) : nullptr;
    }

    /** Unchecked downcast with a kind assertion. */
    template <typename T>
    T *
    as()
    {
        UBF_ASSERT(T::classof(kind_), "bad AST cast");
        return static_cast<T *>(this);
    }

    template <typename T>
    const T *
    as() const
    {
        UBF_ASSERT(T::classof(kind_), "bad AST cast");
        return static_cast<const T *>(this);
    }

  protected:
    Node(ASTContext *ctx, NodeKind kind, uint32_t id)
        : kind_(kind), nodeId_(id), ctx_(ctx)
    {}

    /** The arena index of @p n (kNullNode for nullptr). */
    static NodeIndex
    refOf(const Node *n)
    {
        return n ? n->index_ : kNullNode;
    }

    Node *deref(NodeIndex i) const;

    template <typename T>
    T *
    derefAs(NodeIndex i) const
    {
        return i == kNullNode ? nullptr : static_cast<T *>(deref(i));
    }

    const Type *typeAt(TypeRef r) const;

  private:
    friend class ASTContext;
    NodeKind kind_;
    uint8_t pad0_[3] = {0, 0, 0};
    uint32_t nodeId_;
    NodeIndex index_ = kNullNode;
    uint32_t pad1_ = 0;
    ASTContext *ctx_;
};

static_assert(sizeof(Node) == 24, "node header layout");

/**
 * Lightweight view of a node-index list in the shared pool, yielding
 * `T *`. Iteration is index-based (re-reads the owning range and the
 * pool on every access), so it stays valid across pool growth and
 * range relocation; only erasing below the cursor shifts elements.
 */
template <typename T>
class NodeListRef
{
  public:
    NodeListRef(const ASTContext *ctx, const ListRange *range)
        : ctx_(ctx), range_(range)
    {}

    size_t size() const { return range_->len; }
    bool empty() const { return range_->len == 0; }
    T *operator[](size_t i) const;

    class iterator
    {
      public:
        iterator(const NodeListRef *list, size_t i) : list_(list), i_(i) {}
        T *operator*() const { return (*list_)[i_]; }
        iterator &operator++() { i_++; return *this; }
        bool
        operator!=(const iterator &o) const
        {
            return i_ != o.i_;
        }
        bool
        operator==(const iterator &o) const
        {
            return i_ == o.i_;
        }

      private:
        const NodeListRef *list_;
        size_t i_;
    };

    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, range_->len); }

  private:
    const ASTContext *ctx_;
    const ListRange *range_;
};

//===------------------------------------------------------------------===//
// Expressions
//===------------------------------------------------------------------===//

/** Base of all expressions; the static type is assigned at build time. */
class Expr : public Node
{
  public:
    static bool
    classof(NodeKind k)
    {
        return k >= NodeKind::IntLit && k <= NodeKind::InitList;
    }

    const Type *type() const { return typeAt(type_); }

  protected:
    Expr(ASTContext *ctx, NodeKind kind, uint32_t id, const Type *type)
        : Node(ctx, kind, id), type_(TypeTable::refOf(type))
    {}

  private:
    TypeRef type_;
};

/** Integer literal; the value is stored as the raw 64-bit pattern. */
class IntLit : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::IntLit; }

    IntLit(ASTContext *ctx, uint32_t id, uint64_t value, const Type *type)
        : Expr(ctx, NodeKind::IntLit, id, type), value_(value)
    {}

    uint64_t value() const { return value_; }
    int64_t signedValue() const { return static_cast<int64_t>(value_); }
    /** Mutation support (MUSIC's CRCR operator). */
    void setValue(uint64_t v) { value_ = v; }

  private:
    uint64_t value_;
};

/** Reference to a variable (global, local, or parameter). */
class VarRef : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::VarRef; }

    VarRef(ASTContext *ctx, uint32_t id, VarDecl *decl, const Type *type)
        : Expr(ctx, NodeKind::VarRef, id, type),
          decl_(refOf(reinterpret_cast<const Node *>(decl)))
    {}

    VarDecl *decl() const;
    void setDecl(VarDecl *d);

  private:
    NodeIndex decl_;
};

enum class UnaryOp : uint8_t { Neg, BitNot, LogNot, Deref, AddrOf };

const char *unaryOpSpelling(UnaryOp op);

class Unary : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::Unary; }

    Unary(ASTContext *ctx, uint32_t id, UnaryOp op, Expr *sub,
          const Type *type)
        : Expr(ctx, NodeKind::Unary, id, type), op_(op), sub_(refOf(sub))
    {}

    UnaryOp op() const { return op_; }
    Expr *sub() const { return derefAs<Expr>(sub_); }
    void setSub(Expr *e) { sub_ = refOf(e); }

  private:
    UnaryOp op_;
    NodeIndex sub_;
};

enum class BinaryOp : uint8_t {
    Add, Sub, Mul, Div, Rem,
    Shl, Shr,
    BitAnd, BitOr, BitXor,
    Lt, Le, Gt, Ge, Eq, Ne,
    LAnd, LOr,
};

const char *binaryOpSpelling(BinaryOp op);
bool isArithOp(BinaryOp op);      ///< Add/Sub/Mul
bool isDivRemOp(BinaryOp op);     ///< Div/Rem
bool isShiftOp(BinaryOp op);      ///< Shl/Shr
bool isComparisonOp(BinaryOp op); ///< Lt..Ne
bool isLogicalOp(BinaryOp op);    ///< LAnd/LOr
/** C-style precedence level for the printer (higher binds tighter). */
int binaryOpPrecedence(BinaryOp op);

class Binary : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::Binary; }

    Binary(ASTContext *ctx, uint32_t id, BinaryOp op, Expr *lhs, Expr *rhs,
           const Type *type)
        : Expr(ctx, NodeKind::Binary, id, type), op_(op), lhs_(refOf(lhs)),
          rhs_(refOf(rhs))
    {}

    BinaryOp op() const { return op_; }
    void setOp(BinaryOp op) { op_ = op; }
    Expr *lhs() const { return derefAs<Expr>(lhs_); }
    Expr *rhs() const { return derefAs<Expr>(rhs_); }
    void setLhs(Expr *e) { lhs_ = refOf(e); }
    void setRhs(Expr *e) { rhs_ = refOf(e); }

  private:
    BinaryOp op_;
    NodeIndex lhs_;
    NodeIndex rhs_;
};

/** Ternary conditional `c ? t : f` — used by Csmith-style safe wrappers. */
class Select : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::Select; }

    Select(ASTContext *ctx, uint32_t id, Expr *cond, Expr *t, Expr *f,
           const Type *type)
        : Expr(ctx, NodeKind::Select, id, type), cond_(refOf(cond)),
          true_(refOf(t)), false_(refOf(f))
    {}

    Expr *cond() const { return derefAs<Expr>(cond_); }
    Expr *trueExpr() const { return derefAs<Expr>(true_); }
    Expr *falseExpr() const { return derefAs<Expr>(false_); }
    void setCond(Expr *e) { cond_ = refOf(e); }

  private:
    NodeIndex cond_;
    NodeIndex true_;
    NodeIndex false_;
};

/** Array/pointer subscript `base[index]`. */
class Index : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::Index; }

    Index(ASTContext *ctx, uint32_t id, Expr *base, Expr *index,
          const Type *type)
        : Expr(ctx, NodeKind::Index, id, type), base_(refOf(base)),
          index_(refOf(index))
    {}

    Expr *base() const { return derefAs<Expr>(base_); }
    Expr *index() const { return derefAs<Expr>(index_); }
    void setBase(Expr *e) { base_ = refOf(e); }
    void setIndex(Expr *e) { index_ = refOf(e); }

  private:
    NodeIndex base_;
    NodeIndex index_;
};

/** Struct member access `base.f` or `base->f`. */
class Member : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::Member; }

    Member(ASTContext *ctx, uint32_t id, Expr *base, const FieldDecl *field,
           bool arrow, const Type *type)
        : Expr(ctx, NodeKind::Member, id, type), base_(refOf(base)),
          field_(refOf(reinterpret_cast<const Node *>(field))),
          arrow_(arrow)
    {}

    Expr *base() const { return derefAs<Expr>(base_); }
    const FieldDecl *field() const;
    bool isArrow() const { return arrow_; }
    void setBase(Expr *e) { base_ = refOf(e); }
    void setField(const FieldDecl *f);

  private:
    NodeIndex base_;
    NodeIndex field_;
    bool arrow_;
};

/** Explicit cast `(T)e`. */
class Cast : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::Cast; }

    Cast(ASTContext *ctx, uint32_t id, Expr *sub, const Type *to)
        : Expr(ctx, NodeKind::Cast, id, to), sub_(refOf(sub))
    {}

    Expr *sub() const { return derefAs<Expr>(sub_); }
    void setSub(Expr *e) { sub_ = refOf(e); }

  private:
    NodeIndex sub_;
};

/** Direct call to a named function or builtin. */
class Call : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::Call; }

    Call(ASTContext *ctx, uint32_t id, FunctionDecl *callee,
         const std::vector<Expr *> &args, const Type *type);

    FunctionDecl *callee() const;
    void setCallee(FunctionDecl *f);
    NodeListRef<Expr> args() const { return {&ctx(), &args_}; }

  private:
    NodeIndex callee_;
    ListRange args_;
};

/** Brace initializer list; only valid as an array VarDecl initializer. */
class InitList : public Expr
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::InitList; }

    InitList(ASTContext *ctx, uint32_t id, const std::vector<Expr *> &elems,
             const Type *type);

    NodeListRef<Expr> elems() const { return {&ctx(), &elems_}; }

  private:
    ListRange elems_;
};

//===------------------------------------------------------------------===//
// Statements
//===------------------------------------------------------------------===//

class Stmt : public Node
{
  public:
    static bool
    classof(NodeKind k)
    {
        return k >= NodeKind::DeclStmt && k <= NodeKind::ContinueStmt;
    }

  protected:
    using Node::Node;
};

/** Local variable declaration statement. */
class DeclStmt : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::DeclStmt; }

    DeclStmt(ASTContext *ctx, uint32_t id, VarDecl *var)
        : Stmt(ctx, NodeKind::DeclStmt, id),
          var_(refOf(reinterpret_cast<const Node *>(var)))
    {}

    VarDecl *var() const;
    void setVar(VarDecl *v);

  private:
    NodeIndex var_;
};

enum class AssignOp : uint8_t {
    Assign, AddAssign, SubAssign, MulAssign, AndAssign, OrAssign, XorAssign,
};

const char *assignOpSpelling(AssignOp op);
/** The arithmetic op behind a compound assignment (Assign -> none). */
BinaryOp assignOpBinary(AssignOp op);

/** Assignment `lhs op= rhs`; the lhs must be an lvalue expression. */
class AssignStmt : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::AssignStmt; }

    AssignStmt(ASTContext *ctx, uint32_t id, AssignOp op, Expr *lhs,
               Expr *rhs)
        : Stmt(ctx, NodeKind::AssignStmt, id), op_(op), lhs_(refOf(lhs)),
          rhs_(refOf(rhs))
    {}

    AssignOp op() const { return op_; }
    Expr *lhs() const { return derefAs<Expr>(lhs_); }
    Expr *rhs() const { return derefAs<Expr>(rhs_); }
    void setLhs(Expr *e) { lhs_ = refOf(e); }
    void setRhs(Expr *e) { rhs_ = refOf(e); }

  private:
    AssignOp op_;
    NodeIndex lhs_;
    NodeIndex rhs_;
};

/** Expression evaluated for effect (calls, profiling builtins). */
class ExprStmt : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::ExprStmt; }

    ExprStmt(ASTContext *ctx, uint32_t id, Expr *expr)
        : Stmt(ctx, NodeKind::ExprStmt, id), expr_(refOf(expr))
    {}

    Expr *expr() const { return derefAs<Expr>(expr_); }

  private:
    NodeIndex expr_;
};

class IfStmt : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::IfStmt; }

    IfStmt(ASTContext *ctx, uint32_t id, Expr *cond, Block *thenBlock,
           Block *elseBlock);

    Expr *cond() const { return derefAs<Expr>(cond_); }
    Block *thenBlock() const;
    Block *elseBlock() const;
    void setCond(Expr *e) { cond_ = refOf(e); }

  private:
    NodeIndex cond_;
    NodeIndex then_;
    NodeIndex else_;
};

class ForStmt : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::ForStmt; }

    ForStmt(ASTContext *ctx, uint32_t id, Stmt *init, Expr *cond,
            Stmt *step, Block *body);

    Stmt *init() const { return derefAs<Stmt>(init_); }
    Expr *cond() const { return derefAs<Expr>(cond_); }
    Stmt *step() const { return derefAs<Stmt>(step_); }
    Block *body() const;
    void setCond(Expr *e) { cond_ = refOf(e); }

  private:
    NodeIndex init_;
    NodeIndex cond_;
    NodeIndex step_;
    NodeIndex body_;
};

class WhileStmt : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::WhileStmt; }

    WhileStmt(ASTContext *ctx, uint32_t id, Expr *cond, Block *body);

    Expr *cond() const { return derefAs<Expr>(cond_); }
    Block *body() const;
    void setCond(Expr *e) { cond_ = refOf(e); }

  private:
    NodeIndex cond_;
    NodeIndex body_;
};

/** Braced statement list; opens a lexical scope. */
class Block : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::Block; }

    explicit Block(ASTContext *ctx, uint32_t id)
        : Stmt(ctx, NodeKind::Block, id)
    {}

    NodeListRef<Stmt> stmts() const { return {&ctx(), &stmts_}; }

    void append(Stmt *s);
    void insert(size_t pos, Stmt *s);
    void eraseAt(size_t pos);

  private:
    ListRange stmts_;
};

class ReturnStmt : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::ReturnStmt; }

    ReturnStmt(ASTContext *ctx, uint32_t id, Expr *value)
        : Stmt(ctx, NodeKind::ReturnStmt, id), value_(refOf(value))
    {}

    Expr *value() const { return derefAs<Expr>(value_); }
    void setValue(Expr *e) { value_ = refOf(e); }

  private:
    NodeIndex value_;
};

class BreakStmt : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::BreakStmt; }
    explicit BreakStmt(ASTContext *ctx, uint32_t id)
        : Stmt(ctx, NodeKind::BreakStmt, id)
    {}
};

class ContinueStmt : public Stmt
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::ContinueStmt; }
    explicit ContinueStmt(ASTContext *ctx, uint32_t id)
        : Stmt(ctx, NodeKind::ContinueStmt, id)
    {}
};

//===------------------------------------------------------------------===//
// Declarations
//===------------------------------------------------------------------===//

enum class Storage : uint8_t { Global, Local, Param };

class VarDecl : public Node
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::VarDecl; }

    VarDecl(ASTContext *ctx, uint32_t id, std::string_view name,
            const Type *type, Storage storage, Expr *init);

    std::string_view name() const;
    const Type *type() const { return typeAt(type_); }
    Storage storage() const { return storage_; }
    Expr *init() const { return derefAs<Expr>(init_); }

  private:
    uint32_t nameOff_;
    uint32_t nameLen_;
    TypeRef type_;
    Storage storage_;
    NodeIndex init_;
};

class FieldDecl : public Node
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::FieldDecl; }

    FieldDecl(ASTContext *ctx, uint32_t id, std::string_view name,
              const Type *type);

    std::string_view name() const;
    const Type *type() const { return typeAt(type_); }
    uint64_t offset() const { return offset_; }
    void setOffset(uint64_t off) { offset_ = off; }

  private:
    uint32_t nameOff_;
    uint32_t nameLen_;
    TypeRef type_;
    uint64_t offset_ = 0;
};

class StructDecl : public Node
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::StructDecl; }

    StructDecl(ASTContext *ctx, uint32_t id, std::string_view name);

    std::string_view name() const;
    NodeListRef<FieldDecl> fields() const { return {&ctx(), &fields_}; }

    /** Append a field; offsets/size are (re)computed with C layout. */
    void addField(FieldDecl *f);

    const FieldDecl *findField(std::string_view name) const;

    uint64_t size() const { return size_; }
    uint64_t align() const { return align_; }

  private:
    uint32_t nameOff_;
    uint32_t nameLen_;
    ListRange fields_;
    uint32_t size_ = 0;
    uint32_t align_ = 1;
};

/** Builtin functions the VM implements natively. */
enum class Builtin : uint8_t {
    None,          ///< ordinary user function
    Malloc,        ///< char *__malloc(long size)
    Free,          ///< void __free(char *p)
    Checksum,      ///< void __checksum(long v): folds v into the output
    LogVal,        ///< void __log_val(long site, long v)
    LogPtr,        ///< void __log_ptr(long site, char *p)
    LogBuf,        ///< void __log_buf(long site, char *p, long size)
    LogScopeEnter, ///< void __log_scope_enter(long blockId)
    LogScopeExit,  ///< void __log_scope_exit(long blockId)
};

class FunctionDecl : public Node
{
  public:
    static bool classof(NodeKind k) { return k == NodeKind::FunctionDecl; }

    FunctionDecl(ASTContext *ctx, uint32_t id, std::string_view name,
                 const Type *retType);

    std::string_view name() const;
    const Type *retType() const { return typeAt(retType_); }

    NodeListRef<VarDecl> params() const { return {&ctx(), &params_}; }
    void addParam(VarDecl *p);

    Block *body() const { return derefAs<Block>(body_); }
    void setBody(Block *b);

    Builtin builtin() const { return builtin_; }
    void setBuiltin(Builtin b) { builtin_ = b; }
    bool isBuiltin() const { return builtin_ != Builtin::None; }

  private:
    uint32_t nameOff_;
    uint32_t nameLen_;
    TypeRef retType_;
    ListRange params_;
    NodeIndex body_ = kNullNode;
    Builtin builtin_ = Builtin::None;
};

//===------------------------------------------------------------------===//
// Context and Program
//===------------------------------------------------------------------===//

/**
 * Arena owning every AST node of one Program, plus its TypeTable and
 * the shared index/string pools. Slots are fixed 64-byte chunks of
 * raw storage; chunks never move, so node pointers are stable for the
 * program's lifetime, and a whole context can be duplicated with
 * copyFrom (chunk memcpy + ctx-pointer patch) in O(chunks).
 */
class ASTContext
{
  public:
    static constexpr uint32_t kSlotBytes = 64;
    static constexpr uint32_t kChunkShift = 10; ///< 1024 slots per chunk
    static constexpr uint32_t kChunkSlots = 1u << kChunkShift;
    static constexpr uint32_t kChunkMask = kChunkSlots - 1;

    ASTContext() : types_(this) {}
    ~ASTContext();

    ASTContext(const ASTContext &) = delete;
    ASTContext &operator=(const ASTContext &) = delete;

    TypeTable &types() { return types_; }
    const TypeTable &types() const { return types_; }

    /** Allocate a node with a fresh nodeId. */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        return construct<T>(nextId_++, std::forward<Args>(args)...);
    }

    /** Number of nodes allocated so far (== one past the last index). */
    NodeIndex numNodes() const { return numNodes_; }

    Node *
    nodeAt(NodeIndex i) const
    {
        UBF_ASSERT(i < numNodes_, "arena index out of range");
        return reinterpret_cast<Node *>(slot(i));
    }

    /** The node with @p id, or nullptr — a dense vector lookup. */
    Node *
    nodeById(uint32_t id) const
    {
        if (id >= idToIndex_.size() || idToIndex_[id] == kNullNode)
            return nullptr;
        return nodeAt(idToIndex_[id]);
    }

    /**
     * Become a node-for-node copy of @p src: memcpy the chunks, patch
     * each slot's context pointer, copy the pools, the id map, and the
     * type table verbatim. Every NodeIndex/TypeRef/range stored in a
     * slot keeps its meaning. Only valid on a fresh context.
     */
    void copyFrom(const ASTContext &src);

    // Index-pool operations (used by nodes holding ListRanges).
    ListRange listMake(const NodeIndex *data, uint32_t n);
    uint32_t
    listAt(const ListRange &r, uint32_t i) const
    {
        UBF_ASSERT(i < r.len, "list index out of range");
        return pool_[r.off + i];
    }
    void listAppend(ListRange &r, NodeIndex v);
    void listInsert(ListRange &r, uint32_t pos, NodeIndex v);
    void listErase(ListRange &r, uint32_t pos);

    // String-pool operations.
    void internString(std::string_view s, uint32_t &off, uint32_t &len);
    std::string_view
    stringAt(uint32_t off, uint32_t len) const
    {
        return {strings_.data() + off, len};
    }

  private:
    template <typename T, typename... Args>
    T *
    construct(uint32_t id, Args &&...args)
    {
        static_assert(sizeof(T) <= kSlotBytes, "node exceeds slot");
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena nodes must be trivially destructible");
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena nodes must be memcpy-clonable");
        NodeIndex idx = numNodes_;
        if ((idx >> kChunkShift) >= chunks_.size())
            chunks_.push_back(new char[kSlotBytes * kChunkSlots]);
        char *p = slot(idx);
        // Zero the slot first, so padding bytes are deterministic
        // rather than leftover heap contents.
        std::memset(p, 0, kSlotBytes);
        T *n = new (p) T(this, id, std::forward<Args>(args)...);
        static_cast<Node *>(n)->index_ = idx;
        numNodes_ = idx + 1;
        registerId(id, idx);
        return n;
    }

    char *
    slot(NodeIndex i) const
    {
        return chunks_[i >> kChunkShift] +
               static_cast<size_t>(i & kChunkMask) * kSlotBytes;
    }

    void registerId(uint32_t id, NodeIndex idx);
    /** Move @p r to the pool tail with capacity >= @p minCap. */
    void listRelocate(ListRange &r, uint32_t minCap);

    TypeTable types_;
    std::vector<char *> chunks_;
    NodeIndex numNodes_ = 0;
    /** Shared child-index pool; regions are exclusive per ListRange. */
    std::vector<uint32_t> pool_;
    /** Shared name bytes. */
    std::vector<char> strings_;
    /** nodeId -> arena index (kNullNode = unused id). */
    std::vector<NodeIndex> idToIndex_;
    uint32_t nextId_ = 1;
};

/** A whole MiniC translation unit. */
class Program
{
  public:
    Program() = default;

    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    ASTContext &ctx() { return ctx_; }
    const ASTContext &ctx() const { return ctx_; }
    TypeTable &types() { return ctx_.types(); }

    std::vector<StructDecl *> &structs() { return structs_; }
    const std::vector<StructDecl *> &structs() const { return structs_; }
    std::vector<VarDecl *> &globals() { return globals_; }
    const std::vector<VarDecl *> &globals() const { return globals_; }
    std::vector<FunctionDecl *> &functions() { return functions_; }
    const std::vector<FunctionDecl *> &functions() const
    {
        return functions_;
    }
    const std::vector<FunctionDecl *> &builtins() const
    {
        return builtins_;
    }

    FunctionDecl *main() const { return main_; }
    void setMain(FunctionDecl *f) { main_ = f; }

    FunctionDecl *findFunction(const std::string &name) const;
    VarDecl *findGlobal(const std::string &name) const;
    StructDecl *findStruct(const std::string &name) const;

    /** The lazily-created builtin declaration for @p b. */
    FunctionDecl *builtin(Builtin b);

  private:
    /** The memcpy clone repopulates builtins_ directly. */
    friend ClonedProgram cloneProgram(const Program &);
    ASTContext ctx_;
    std::vector<StructDecl *> structs_;
    std::vector<VarDecl *> globals_;
    std::vector<FunctionDecl *> functions_;
    std::vector<FunctionDecl *> builtins_;
    FunctionDecl *main_ = nullptr;
};

//===------------------------------------------------------------------===//
// Inline definitions needing the full ASTContext
//===------------------------------------------------------------------===//

inline Node *
Node::deref(NodeIndex i) const
{
    return ctx_->nodeAt(i);
}

inline const Type *
Node::typeAt(TypeRef r) const
{
    return r == kNullTypeRef ? nullptr : &ctx_->types().at(r);
}

template <typename T>
inline T *
NodeListRef<T>::operator[](size_t i) const
{
    return static_cast<T *>(
        ctx_->nodeAt(ctx_->listAt(*range_, static_cast<uint32_t>(i))));
}

inline VarDecl *
VarRef::decl() const
{
    return derefAs<VarDecl>(decl_);
}

inline void
VarRef::setDecl(VarDecl *d)
{
    decl_ = refOf(reinterpret_cast<const Node *>(d));
}

inline const FieldDecl *
Member::field() const
{
    return derefAs<FieldDecl>(field_);
}

inline void
Member::setField(const FieldDecl *f)
{
    field_ = refOf(reinterpret_cast<const Node *>(f));
}

inline VarDecl *
DeclStmt::var() const
{
    return derefAs<VarDecl>(var_);
}

inline void
DeclStmt::setVar(VarDecl *v)
{
    var_ = refOf(reinterpret_cast<const Node *>(v));
}

inline Block *
IfStmt::thenBlock() const
{
    return derefAs<Block>(then_);
}

inline Block *
IfStmt::elseBlock() const
{
    return derefAs<Block>(else_);
}

inline Block *
ForStmt::body() const
{
    return derefAs<Block>(body_);
}

inline Block *
WhileStmt::body() const
{
    return derefAs<Block>(body_);
}

inline void
Block::append(Stmt *s)
{
    ctx().listAppend(stmts_, refOf(s));
}

inline void
Block::insert(size_t pos, Stmt *s)
{
    UBF_ASSERT(pos <= stmts_.len, "block insert out of range");
    ctx().listInsert(stmts_, static_cast<uint32_t>(pos), refOf(s));
}

inline void
Block::eraseAt(size_t pos)
{
    UBF_ASSERT(pos < stmts_.len, "block erase out of range");
    ctx().listErase(stmts_, static_cast<uint32_t>(pos));
}

inline void
StructDecl::addField(FieldDecl *f)
{
    ctx().listAppend(fields_, refOf(f));
    uint64_t off = size_;
    uint64_t falign = f->type()->align();
    off = (off + falign - 1) / falign * falign;
    f->setOffset(off);
    size_ = static_cast<uint32_t>(off + f->type()->size());
    if (falign > align_)
        align_ = static_cast<uint32_t>(falign);
    // Pad the struct size up to its alignment, as C does.
    size_ = static_cast<uint32_t>((size_ + align_ - 1) / align_ * align_);
}

inline void
FunctionDecl::addParam(VarDecl *p)
{
    ctx().listAppend(params_, refOf(reinterpret_cast<const Node *>(p)));
}

inline void
FunctionDecl::setBody(Block *b)
{
    body_ = refOf(b);
}

inline FunctionDecl *
Call::callee() const
{
    return derefAs<FunctionDecl>(callee_);
}

inline void
Call::setCallee(FunctionDecl *f)
{
    callee_ = refOf(reinterpret_cast<const Node *>(f));
}

inline std::string_view
VarDecl::name() const
{
    return ctx().stringAt(nameOff_, nameLen_);
}

inline std::string_view
FieldDecl::name() const
{
    return ctx().stringAt(nameOff_, nameLen_);
}

inline std::string_view
StructDecl::name() const
{
    return ctx().stringAt(nameOff_, nameLen_);
}

inline std::string_view
FunctionDecl::name() const
{
    return ctx().stringAt(nameOff_, nameLen_);
}

/** True if @p e can appear on the left of an assignment. */
bool isLValue(const Expr *e);

/**
 * Invoke @p fn on each direct child expression of @p e.
 * @p fn receives (Expr *child).
 */
template <typename F>
void
forEachChildExpr(Expr *e, F &&fn)
{
    switch (e->kind()) {
      case NodeKind::IntLit:
      case NodeKind::VarRef:
        break;
      case NodeKind::Unary:
        fn(e->as<Unary>()->sub());
        break;
      case NodeKind::Binary:
        fn(e->as<Binary>()->lhs());
        fn(e->as<Binary>()->rhs());
        break;
      case NodeKind::Select:
        fn(e->as<Select>()->cond());
        fn(e->as<Select>()->trueExpr());
        fn(e->as<Select>()->falseExpr());
        break;
      case NodeKind::Index:
        fn(e->as<Index>()->base());
        fn(e->as<Index>()->index());
        break;
      case NodeKind::Member:
        fn(e->as<Member>()->base());
        break;
      case NodeKind::Cast:
        fn(e->as<Cast>()->sub());
        break;
      case NodeKind::Call:
        for (Expr *a : e->as<Call>()->args())
            fn(a);
        break;
      case NodeKind::InitList:
        for (Expr *el : e->as<InitList>()->elems())
            fn(el);
        break;
      default:
        UBF_PANIC("forEachChildExpr: not an expression");
    }
}

} // namespace ubfuzz::ast

#endif // UBFUZZ_AST_AST_H
