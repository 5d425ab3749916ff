/**
 * @file
 * Direct-threaded bytecode: the flattened executable form of an
 * ir::Module, and the CodeCache that memoizes translations.
 *
 * The struct-walking interpreter re-fetches a fat ir::Inst through
 * `fn->instsOf(fn->blocks[block])[ip]` on every step, re-decodes
 * Value reg/imm tags, and drags a SourceLoc through the hot loop. The
 * flattener translates a module *once* into a dense linear program:
 *
 *  - one flat array of fixed-size instruction records for the whole
 *    module (a single `code[pc]` fetch per step),
 *  - branch targets pre-resolved to absolute pcs (no block/ip pairs),
 *  - operands pre-decoded at translation time: reg/imm operand shapes
 *    split into distinct opcodes for the hot operations, immediates
 *    folded into the record, Const values pre-canonicalized, scalar
 *    width/signedness/comparison-ness of every operation precomputed,
 *  - call targets resolved to function entry pcs (with a per-function
 *    metadata table for frame layout),
 *  - debug SourceLocs moved to a per-pc side table that the hot loop
 *    never touches unless it is tracing or reporting.
 *
 * Execution stays step-for-step identical to the reference
 * interpreter: every record corresponds to exactly one ir::Inst, so
 * step counts, timeout behavior, trap/report kinds and sites, traces,
 * and checksums are bit-identical (the test_bytecode parity suite
 * enforces this over all nine UB kinds and every dispatch mode).
 *
 * Translations are keyed by ir::BinaryKey — a word-wise hash and the
 * length of the module's executionKey serialization, which covers
 * *everything* the VM reads — so one translation serves every
 * execution of a byte-identical binary while it stays in the cache's
 * window: the silent matrix run, the lazy debugger re-execution with
 * tracing, and any later machine that shares the cache.
 */

#ifndef UBFUZZ_VM_BYTECODE_H
#define UBFUZZ_VM_BYTECODE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/ir.h"
#include "support/source_loc.h"

namespace ubfuzz::vm {

namespace bc {

/**
 * Bytecode opcodes. The X-macro keeps the enum and the direct-threaded
 * label table (in the interpreter) in the same order by construction.
 * Suffix convention for operand-shape-specialized opcodes: R = the
 * operand is a register, I = it was an immediate and lives in the
 * record (`x` for a, `y` for b). Opcodes without a suffix read their
 * operand shapes from the record flags (cold operations only).
 */
#define UBFUZZ_BC_OPS(X)                                                   \
    X(Nop)                                                                 \
    X(ConstK)                                                              \
    X(CastR)                                                               \
    X(CastI)                                                               \
    X(Select)                                                              \
    X(BinRR)                                                               \
    X(BinRI)                                                               \
    X(BinIR)                                                               \
    X(BinII)                                                               \
    X(FrameAddr)                                                           \
    X(GlobalAddr)                                                          \
    X(GepRR)                                                               \
    X(GepRI)                                                               \
    X(GepIR)                                                               \
    X(GepII)                                                               \
    X(LoadR)                                                               \
    X(LoadI)                                                               \
    X(StoreRR)                                                             \
    X(StoreRI)                                                             \
    X(StoreIR)                                                             \
    X(StoreII)                                                             \
    X(MemCopy)                                                             \
    X(Br)                                                                  \
    X(CondBrR)                                                             \
    X(CondBrI)                                                             \
    X(RetVoid)                                                             \
    X(RetR)                                                                \
    X(RetI)                                                                \
    X(Call)                                                                \
    X(Malloc)                                                              \
    X(Free)                                                                \
    X(ChecksumR)                                                           \
    X(ChecksumI)                                                           \
    X(LogVal)                                                              \
    X(LogPtr)                                                              \
    X(LogBuf)                                                              \
    X(LogScopeEnter)                                                       \
    X(LogScopeExit)                                                        \
    X(LifetimeStart)                                                       \
    X(LifetimeEnd)                                                         \
    X(AsanCheck)                                                           \
    X(UbsanArith)                                                          \
    X(UbsanShift)                                                          \
    X(UbsanDiv)                                                            \
    X(UbsanNull)                                                           \
    X(UbsanBounds)                                                         \
    X(MsanCheck)                                                           \
    X(HardenCheck)

enum class BOp : uint8_t {
#define UBFUZZ_BC_ENUM(name) name,
    UBFUZZ_BC_OPS(UBFUZZ_BC_ENUM)
#undef UBFUZZ_BC_ENUM
};

/** Per-record flag bits (BInst::flags). */
enum : uint16_t {
    /** Operand a/b/c was an immediate (only consulted by opcodes whose
     *  shape is not baked into the BOp; c's immediate lives in `imm`). */
    kOpAImm = 1 << 0,
    kOpBImm = 1 << 1,
    kOpCImm = 1 << 2,
    /** Copy of ir::Inst::flag (AsanCheck isWrite, UbsanShift variant,
     *  ground-truth source-arithmetic marker on Bin). */
    kOpIrFlag = 1 << 3,
    /** The instruction carries a valid SourceLoc (locs[pc]). */
    kOpLocValid = 1 << 4,
    // Pre-decoded properties of (kind, binOp); the hot loop never
    // calls ast::scalarBits/scalarSigned or the binOp classifiers.
    kOpSigned = 1 << 5,
    kOpCmp = 1 << 6,
    kOpArith = 1 << 7,
    kOpShift = 1 << 8,
    kOpDivRem = 1 << 9,
};

/**
 * One flattened instruction: a fixed 56-byte record. Field roles vary
 * by opcode exactly as in ir::Inst, with operands pre-decoded:
 * register ids in a/b/c, immediates in x (operand a), y (operand b),
 * or imm (operand c, for opcodes that do not use imm otherwise);
 * absolute branch-target pcs in t0/t1; frame/global object index in
 * t0; callee function index in a with the argument-pool range in
 * t0/t1.
 */
struct BInst
{
    BOp op = BOp::Nop;
    uint8_t bits = 0; ///< ast::scalarBits(kind), pre-decoded
    uint16_t flags = 0;
    ir::ScalarKind kind = ir::ScalarKind::S64;
    ir::BinOp binOp = ir::BinOp::Add;
    uint16_t pad = 0;
    uint32_t dst = 0;
    uint32_t a = 0, b = 0, c = 0;
    uint32_t t0 = 0, t1 = 0;
    uint64_t x = 0, y = 0;
    uint64_t imm = 0;
};

/** One pre-decoded call argument. */
struct BArg
{
    uint64_t imm = 0;
    uint32_t reg = 0;
    bool isImm = false;
};

/** Per-function execution metadata (frame layout, register count). */
struct BFunction
{
    uint32_t entryPc = 0;
    uint32_t numRegs = 1;
    uint32_t numParams = 0;
    std::vector<ir::FrameObject> frame;
};

/**
 * A fully translated module: everything the machine reads during
 * execution, self-contained (no pointers into the source ir::Module,
 * so a translation outlives the module it was made from — which is
 * what lets a CodeCache serve byte-identical binaries compiled later).
 */
struct Program
{
    std::vector<BInst> code;
    /** Per-pc debug locations; read only when tracing or reporting. */
    std::vector<SourceLoc> locs;
    std::vector<BFunction> functions;
    std::vector<ir::GlobalObject> globals;
    std::vector<BArg> argPool;
    int32_t mainIndex = -1;
    bool asanGlobals = false;
    bool asanHeap = false;
    ir::MsanPolicy msan;
};

/**
 * Does the flattener have a handler for @p op? Covers every value in
 * [0, ir::kNumOpcodes) — enforced by a test — so an opcode added to
 * the IR without a bytecode handler fails translation (loudly, at
 * translation time) rather than corrupting a run.
 */
bool opcodeHasHandler(ir::Opcode op);

/** Flatten @p m. Panics on an opcode with no handler. */
Program translate(const ir::Module &m);

} // namespace bc

/**
 * Memoized translations keyed by ir::BinaryKey, kept in a
 * least-recently-used window. One cache serves a whole campaign unit:
 * every machine of the unit (the per-program differential machines
 * and the ground-truth classifier) asks it before flattening, so a
 * binary executed more than once while it is still in the window —
 * the debugger re-execution of a silent binary is the common case —
 * is translated exactly once.
 *
 * A hit makes its entry the most recent; a miss evicts the least
 * recent entry when the window is full, then translates and inserts
 * the binary as the most recent. Every re-run a unit makes follows its
 * first run within one testing-matrix row (see kDefaultMaxEntries), so
 * the default window gets every hit an unbounded cache would while
 * holding ~20 translations instead of every binary the unit ran.
 * Eviction changes which runs re-translate, never a result.
 *
 * Not thread-safe by design, like compiler::CompilationCache: one per
 * campaign unit, and the orchestrator's parallelism is across units.
 */
class CodeCache
{
  public:
    /**
     * Default window: one testing-matrix row (2 vendors x 5 opt levels)
     * plus the row's hardened twins, 2 x 5 x 2 = 20. A row's silent
     * binaries are re-run for crash-site mapping and its twins for
     * their alias groups before the next row compiles, and the fault
     * oracle re-runs one binary back to back, so nothing older is read
     * again (test_orchestrator's DefaultCodeCacheWindowLosesNoReuse
     * checks every source mode). Tests also shrink and unbound it to
     * prove results are window-independent (see
     * CampaignConfig::codeCacheCap).
     */
    static constexpr size_t kDefaultMaxEntries = 20;

    explicit CodeCache(size_t maxEntries = kDefaultMaxEntries)
        : maxEntries_(maxEntries)
    {
    }
    CodeCache(const CodeCache &) = delete;
    CodeCache &operator=(const CodeCache &) = delete;

    /**
     * The translation of @p m under @p key (which must be
     * ir::binaryKey(m) — callers that already serialized the module,
     * like the batch runner, pass it to avoid a second pass).
     * @p wasHit reports whether the translation was served from the
     * cache (the caller owns the work counters).
     */
    std::shared_ptr<const bc::Program>
    translation(const ir::Module &m, const ir::BinaryKey &key,
                bool *wasHit = nullptr);

    size_t size() const { return window_.size(); }

    /** Translations dropped from the window: each eviction, and with a
     *  window of 0 each translation, which is never retained. So
     *  translations == size() + capRejects(). The campaign folds it
     *  into vm::ExecStats::translationCapRejects per unit; the name
     *  predates the window and campaignbench's traced replica reads
     *  it. */
    size_t capRejects() const { return evictions_; }

    /** Always 0 since the fused tier was removed; kept because
     *  campaignbench's traced replica still folds it into
     *  ExecStats::quickenedTranslations. */
    size_t quickenedTranslations() const { return 0; }

    /** Always 0 since the fused tier was removed; kept for the same
     *  reason (folded into ExecStats::fusedRecords). */
    size_t fusedRecords() const { return 0; }

  private:
    struct Entry
    {
        ir::BinaryKey key;
        std::shared_ptr<const bc::Program> program;
    };

    size_t maxEntries_;
    size_t evictions_ = 0;
    /** Least recent first. A linear scan of ~20 hash-and-length keys
     *  costs less than a map lookup plus a recency list, and needs
     *  neither. */
    std::vector<Entry> window_;
};

} // namespace ubfuzz::vm

#endif // UBFUZZ_VM_BYTECODE_H
