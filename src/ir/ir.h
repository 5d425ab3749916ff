/**
 * @file
 * The register IR of the simulated compilers.
 *
 * A "binary" in this repository is an ir::Module plus debug metadata:
 * every instruction carries the (line, offset) of the source expression
 * it was lowered from, which is what the VM's tracing (the "debugger")
 * and the crash-site mapping oracle consume — the -g of our toolchain.
 *
 * Design notes:
 *  - Registers are single-assignment by construction (lowering emits a
 *    fresh register per value) and only used within the defining block;
 *    values that cross control flow live in frame slots. This keeps
 *    optimization passes honest without needing phi nodes.
 *  - Sanitizer checks are explicit instructions inserted by the
 *    sanitizer passes; the VM implements their runtime semantics
 *    against shadow memory.
 */

#ifndef UBFUZZ_IR_IR_H
#define UBFUZZ_IR_IR_H

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "ast/ast.h"
#include "support/source_loc.h"
#include "support/toolchain.h"

namespace ubfuzz::ir {

/** Value kinds reuse the AST scalar kinds; pointers are U64. */
using ScalarKind = ast::ScalarKind;
using BinOp = ast::BinaryOp;

enum class Opcode : uint8_t {
    Nop,
    Const,         ///< dst = imm
    Bin,           ///< dst = a <binOp> b, in `kind`
    Cast,          ///< dst = convert a from a.kind to `kind`
    Select,        ///< dst = a if cond(reg c) != 0 else b (no side effects)
    FrameAddr,     ///< dst = address of frame object `object`
    GlobalAddr,    ///< dst = address of global `object`
    Gep,           ///< dst = a + b * imm(elemSize); `bound`>0 for arrays
    Load,          ///< dst = *[a], `imm` bytes, result `kind`
    Store,         ///< *[a] = b, `imm` bytes
    MemCopy,       ///< copy `imm` bytes from [b] to [a]
    Br,            ///< goto targets[0]
    CondBr,        ///< if a != 0 goto targets[0] else targets[1]
    Ret,           ///< return a (optional)
    Call,          ///< dst = call functions[callee](args)
    Malloc,        ///< dst = __malloc(a)
    Free,          ///< __free(a)
    Checksum,      ///< fold a into the program checksum
    LogVal,        ///< profiling: record value b for site a
    LogPtr,        ///< profiling: record pointer b for site a
    LogBuf,        ///< profiling: record buffer [b, b+c) for site a
    LogScopeEnter, ///< profiling: scope a entered
    LogScopeExit,  ///< profiling: scope a exited
    LifetimeStart, ///< frame object `object` enters scope
    LifetimeEnd,   ///< frame object `object` leaves scope
    // --- sanitizer instructions (inserted by sanitizer passes) ---
    AsanCheck,     ///< shadow-check [a, a+imm); isWrite in flag
    UbsanArith,    ///< signed-overflow check of a <binOp> b in `kind`
    UbsanShift,    ///< shift-amount check of b for width of `kind`
    UbsanDiv,      ///< division check of a / b in `kind`
    UbsanNull,     ///< null-pointer check of a
    UbsanBounds,   ///< array-bounds check: 0 <= a < imm
    MsanCheck,     ///< uninitialized-value check of a
    // --- hardening instructions (inserted by hardening passes) ---
    HardenCheck,   ///< duplicate-compare: a (reg) must raw-equal b
};

/**
 * Number of IR opcodes. New opcodes must be appended before this stays
 * correct; the bytecode flattener sizes its opcode->handler table with
 * it and a test walks every value, so a gap shows up immediately.
 */
inline constexpr size_t kNumOpcodes =
    static_cast<size_t>(Opcode::HardenCheck) + 1;

const char *opcodeName(Opcode op);

/** An operand: a register or an immediate. */
struct Value
{
    enum class Tag : uint8_t { None, Reg, Imm };
    Tag tag = Tag::None;
    uint32_t reg = 0;
    uint64_t imm = 0;

    static Value
    makeReg(uint32_t r)
    {
        Value v;
        v.tag = Tag::Reg;
        v.reg = r;
        return v;
    }

    static Value
    makeImm(uint64_t i)
    {
        Value v;
        v.tag = Tag::Imm;
        v.imm = i;
        return v;
    }

    bool isReg() const { return tag == Tag::Reg; }
    bool isImm() const { return tag == Tag::Imm; }
    bool isNone() const { return tag == Tag::None; }

    friend bool
    operator==(const Value &x, const Value &y)
    {
        if (x.tag != y.tag)
            return false;
        if (x.tag == Tag::Reg)
            return x.reg == y.reg;
        if (x.tag == Tag::Imm)
            return x.imm == y.imm;
        return true;
    }
};

/**
 * One IR instruction: a flat, trivially copyable record, so copying a
 * function body (module clones, pass rewrites) copies plain bytes.
 * Opcodes read only the fields they need. A call's argument list, the
 * one operand list of variable length, lives in its function's
 * `callArgs` pool; read it through Function::argsOf.
 */
struct Inst
{
    Opcode op = Opcode::Nop;
    /** Operation / result kind (value width + signedness). */
    ScalarKind kind = ScalarKind::S64;
    /** Destination register; 0 means "no result". */
    uint32_t dst = 0;
    BinOp binOp = BinOp::Add;
    Value a, b, c;
    /** Size / constant / elem-size / bound, depending on opcode. */
    uint64_t imm = 0;
    /** Branch targets (block ids). */
    uint32_t targets[2] = {0, 0};
    /** Callee function index for Call. */
    uint32_t callee = 0;
    /** Frame/global object index. */
    uint32_t object = 0;
    /** AsanCheck: is this a write access? */
    bool flag = false;
    /** Static array bound for Gep from a direct array subscript. */
    uint64_t bound = 0;
    /** Call: the arguments are Function::callArgs[argBegin,
     *  argBegin + argCount). argCount is 0 for every other opcode. */
    uint32_t argBegin = 0;
    uint32_t argCount = 0;
    /** Debug metadata: source (line, offset). */
    SourceLoc loc;

    bool
    isTerminator() const
    {
        return op == Opcode::Br || op == Opcode::CondBr ||
               op == Opcode::Ret;
    }

    /** Does executing this instruction write memory? */
    bool
    writesMemory() const
    {
        return op == Opcode::Store || op == Opcode::MemCopy ||
               op == Opcode::Call || op == Opcode::Malloc ||
               op == Opcode::Free;
    }

    /** Is this a sanitizer check or poison-management instruction
     *  (hardening checks included — instrumentation, not payload)? */
    bool
    isSanitizerOp() const
    {
        return op >= Opcode::AsanCheck && op <= Opcode::HardenCheck;
    }
};

static_assert(std::is_trivially_copyable_v<Inst>,
              "body copies and module clones copy instructions as bytes");

/**
 * A basic block: the instructions [begin, begin + count) of its
 * function's body (Function::insts); read them through
 * Function::instsOf. A function's blocks tile its body in block order,
 * and a block's id is its index in Function::blocks.
 */
struct BasicBlock
{
    uint32_t begin = 0;
    uint32_t count = 0;
};

static_assert(std::is_trivially_copyable_v<BasicBlock>,
              "a function's block table is copied as bytes");

/** A stack-allocated object of one function frame. */
struct FrameObject
{
    std::string name;
    uint64_t size = 0;
    uint32_t align = 8;
    /** Scoped objects get lifetime markers (use-after-scope support). */
    bool scoped = false;
    /** Redzone width applied by ASan; 0 when not instrumented. */
    uint32_t redzone = 0;
    /** The AST VarDecl node id this object was lowered from (0: temp). */
    uint32_t declId = 0;
};

/** A module-level global with initial bytes and relocations. */
struct GlobalObject
{
    std::string name;
    uint64_t size = 0;
    uint32_t align = 8;
    std::vector<uint8_t> init; ///< sized to `size`; zero-filled default
    struct Reloc
    {
        uint64_t offset;      ///< where in this global to patch
        uint32_t targetIndex; ///< which global's address to write
        int64_t addend;
    };
    std::vector<Reloc> relocs;
    /** Redzone width applied by ASan for globals; 0 = none. */
    uint32_t redzone = 0;
    /**
     * Bug-injection support (Wrong Red-Zone Buffer): number of leading
     * right-redzone bytes the (buggy) ASan pass fails to poison.
     */
    uint32_t poisonSkip = 0;
    uint32_t declId = 0;
};

struct Function
{
    std::string name;
    ScalarKind retKind = ScalarKind::Void;
    /** Parameter count; parameters are frame objects [0, numParams). */
    uint32_t numParams = 0;
    std::vector<FrameObject> frame;
    std::vector<BasicBlock> blocks;
    /**
     * The body: block 0's instructions, then block 1's, and so on,
     * with no gaps (verifyModule checks the tiling). One array per
     * function, so cloning or freeing a function allocates or frees
     * once, not once per block. A pass that edits in place keeps the
     * ranges; one that erases compacts the body and rewrites them; one
     * that inserts reads the old body and writes a new one.
     */
    std::vector<Inst> insts;
    uint32_t numRegs = 1; ///< register ids are 1..numRegs-1 (0 invalid)
    /**
     * Argument pool of this function's calls: each Call names its
     * slice by (argBegin, argCount). Lowering appends; passes rewrite
     * entries in place. No pass moves a call between functions, so
     * every slice stays valid under block rewrites; a deleted call
     * leaves its slice orphaned, which nothing reads.
     */
    std::vector<Value> callArgs;

    uint32_t
    newReg()
    {
        return numRegs++;
    }

    /** The instructions of block @p bb (a block of this function).
     *  Valid until insts next grows or is replaced. */
    std::span<Inst>
    instsOf(const BasicBlock &bb)
    {
        return {insts.data() + bb.begin, bb.count};
    }

    std::span<const Inst>
    instsOf(const BasicBlock &bb) const
    {
        return {insts.data() + bb.begin, bb.count};
    }

    /** Append a block holding @p body, which must not point into
     *  this function's body, at the end of the body. */
    void
    appendBlock(std::span<const Inst> body)
    {
        blocks.push_back({static_cast<uint32_t>(insts.size()),
                          static_cast<uint32_t>(body.size())});
        insts.insert(insts.end(), body.begin(), body.end());
    }

    /** The arguments of call @p inst (an instruction of this
     *  function). Valid until callArgs next grows. */
    std::span<Value>
    argsOf(const Inst &inst)
    {
        return {callArgs.data() + inst.argBegin, inst.argCount};
    }

    std::span<const Value>
    argsOf(const Inst &inst) const
    {
        return {callArgs.data() + inst.argBegin, inst.argCount};
    }
};

/**
 * MSan shadow-propagation policy. The MSan *pass* decides these (with
 * bug hooks); the VM merely obeys. Mirrors how real MSan compiles its
 * propagation logic into the binary.
 */
struct MsanPolicy
{
    bool enabled = false;
    /**
     * Figure 12f bug: treat `x - const` as fully defined even when x is
     * uninitialized.
     */
    bool bugSubConstDefined = false;
    /** Variant: bitwise AND always yields defined values. */
    bool bugAndDefined = false;
};

struct Module
{
    std::vector<GlobalObject> globals;
    std::vector<Function> functions;
    int32_t mainIndex = -1;
    /** ASan redzones for globals are applied at load when true. */
    bool asanGlobals = false;
    /** ASan redzones + poisoning for heap allocations when true. */
    bool asanHeap = false;
    MsanPolicy msan;
    /**
     * Which sanitizer pass instrumented this module (None until the
     * sanitizer stage runs). The staged compiler specializes one
     * cached early-opt module for many configurations; this field
     * lets san::instrument and specialize reject a module that is a
     * binary already.
     */
    SanitizerKind instrumentedWith = SanitizerKind::None;
    /**
     * Bitmask of hardening passes that ran on this module (harden::
     * kDuplicateCompare / kCfgSignature). Like `instrumentedWith`,
     * this is a per-family-once invariant, enforced by harden::apply:
     * re-running a family whose bit is already set panics.
     * Part of executionKey — a hardened module must never share a
     * cached execution with its unhardened twin.
     */
    uint32_t hardenedWith = 0;

    Function *
    findFunction(const std::string &name)
    {
        for (auto &f : functions)
            if (f.name == name)
                return &f;
        return nullptr;
    }
};

/**
 * Deep-copy a module. Module is value-semantic throughout (vectors of
 * plain structs, no pointers), so a copy *is* a deep clone; this
 * function exists to make the staged compiler's clone points explicit
 * and greppable — every specialization of a shared/cached module must
 * go through it.
 */
Module cloneModule(const Module &m);

/**
 * cloneModule without the function bodies: every function's `insts` is
 * empty, and everything else, its block table included, is copied. For
 * a pass that writes each body anew while reading the old one from
 * @p m (san::instrument), so no body is copied only to be replaced.
 * It copies field by field: a field added to Module or Function must
 * be added here too (Clone.WithoutBodiesKeepsEverythingElse).
 */
Module cloneModuleWithoutBodies(const Module &m);

/** Canonical 64-bit representation of a value of kind @p k
 *  (truncate to the kind's width, then sign- or zero-extend). */
uint64_t canonicalValue(uint64_t raw, ScalarKind k);

/**
 * Evaluate a binary operation on canonical values with the exact
 * semantics the VM uses (wrapping arithmetic, x86-style shift-count
 * masking). Sets @p trapped for division by zero and INT_MIN / -1
 * instead of producing a value. Shared by the VM and constant folding
 * so they can never disagree.
 */
uint64_t evalBinary(BinOp op, ScalarKind k, uint64_t a, uint64_t b,
                    bool &trapped);

/** Render the module as text (for tests and debugging). */
std::string printModule(const Module &m);

/**
 * Canonical serialization of every field the VM reads during
 * execution: module flags (asanGlobals/asanHeap/MsanPolicy), global
 * layout and contents (size, align, redzone, poisonSkip, init bytes,
 * relocations), and the full instruction stream including debug
 * locations. Two modules with equal keys are indistinguishable to
 * vm::execute under every ExecOptions — which is what lets a batch
 * runner execute one of them and reuse the result for the other.
 * Names are deliberately excluded (the VM never reads them), so
 * renamed-but-identical binaries still share a key.
 */
std::string executionKey(const Module &m);

/**
 * Compact identity of a binary: a 64-bit hash of its executionKey
 * serialization and that serialization's length in bytes. The hash
 * reads the serialization a word at a time as it is produced (four
 * multiply-fold lanes, see binaryKey), so the multi-KB string is never
 * built. Two modules have equal keys exactly when their executionKeys
 * are equal, up to a 64-bit hash collision at equal length (the same
 * tradeoff the corpus dedup makes). Equal keys are therefore
 * indistinguishable to the VM under every ExecOptions. The batch
 * runner's execution dedup and the VM's code cache both key on this,
 * so one serialization pass serves both.
 */
struct BinaryKey
{
    uint64_t hash = 0;
    uint64_t len = 0;

    friend bool
    operator==(const BinaryKey &a, const BinaryKey &b)
    {
        return a.hash == b.hash && a.len == b.len;
    }

    friend bool
    operator<(const BinaryKey &a, const BinaryKey &b)
    {
        return a.hash != b.hash ? a.hash < b.hash : a.len < b.len;
    }
};

/**
 * Hasher for unordered containers keyed by BinaryKey. The key already
 * carries a finalized 64-bit hash of the serialized binary, so this
 * just folds the length in (one multiply by the golden-ratio constant)
 * instead of re-hashing anything.
 */
struct BinaryKeyHash
{
    size_t
    operator()(const BinaryKey &k) const noexcept
    {
        return static_cast<size_t>(
            k.hash ^ (k.len * 0x9E3779B97F4A7C15ULL));
    }
};

/**
 * The BinaryKey of @p m: runs executionKey's serializer once into a
 * hashing sink that allocates nothing. Word i of the serialization
 * goes to lane i mod 4 through a 64x64->128 multiply folded hi ^ lo;
 * global-init bytes are read 8 at a time with a length-tagged tail
 * word; the lanes and the length are folded and finalized at the end.
 */
BinaryKey binaryKey(const Module &m);

/**
 * The blocks of a function that can reach themselves (take part in a
 * loop). ASan's scope poisoning and GCC -O3 lifetime hoisting both
 * decide by it. One iterative Tarjan walk finds the strongly connected
 * components in O(blocks + edges); a block is cyclic iff its component
 * has two or more blocks or it branches to itself. The finder keeps
 * its buffers across calls, so the pass that owns one allocates only
 * for a function with more blocks than any before it.
 */
class CycleFinder
{
  public:
    /** cyclic[b] for every block b of @p f; valid until the next
     *  call. */
    const std::vector<uint8_t> &cyclicBlocks(const Function &f);

  private:
    /** A block of the walk: its successors and the next one to take. */
    struct Frame
    {
        uint32_t block;
        uint32_t edge;
        uint32_t succs;
        uint32_t targets[2];
    };

    std::vector<uint8_t> cyclic_;
    /** Visit order from 1 (0: not visited yet; UINT32_MAX once its
     *  component is complete), and the lowest order of an open block
     *  reachable through the walk's tree and back edges. */
    std::vector<uint32_t> order_, low_;
    /** The visited blocks whose component is still open. */
    std::vector<uint32_t> stack_;
    std::vector<Frame> frames_;
};

/**
 * Structural sanity check: the block ranges tile the body (checked
 * before any instruction is read), every block non-empty and ending
 * in its only terminator, branch targets, callees and frame/global
 * objects in range, every call's argument slice inside its
 * function's callArgs, every register the VM indexes (operands, call
 * arguments and the destination) below the function's numRegs, and
 * every used register defined somewhere in the function
 * (function-scoped, since short-circuit and ternary values cross
 * blocks). @return empty string when the module is well-formed, else
 * a description of the first problem.
 */
std::string verifyModule(const Module &m);

} // namespace ubfuzz::ir

#endif // UBFUZZ_IR_IR_H
