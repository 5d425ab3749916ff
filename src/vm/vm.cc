#include "vm/vm.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <memory>

#include "support/diagnostics.h"
#include "vm/bytecode.h"

namespace ubfuzz::vm {

using ir::Inst;
using ir::Opcode;
using ir::ScalarKind;
using ir::Value;

const char *
reportKindName(ReportKind k)
{
    switch (k) {
      case ReportKind::None: return "none";
      case ReportKind::StackBufferOverflow: return "stack-buffer-overflow";
      case ReportKind::GlobalBufferOverflow:
        return "global-buffer-overflow";
      case ReportKind::HeapBufferOverflow: return "heap-buffer-overflow";
      case ReportKind::HeapUseAfterFree: return "heap-use-after-free";
      case ReportKind::StackUseAfterScope: return "stack-use-after-scope";
      case ReportKind::NullDeref: return "null-pointer-dereference";
      case ReportKind::SignedIntegerOverflow:
        return "signed-integer-overflow";
      case ReportKind::ShiftOutOfBounds: return "shift-out-of-bounds";
      case ReportKind::DivByZero: return "division-by-zero";
      case ReportKind::ArrayIndexOOB: return "array-index-out-of-bounds";
      case ReportKind::UninitValue: return "use-of-uninitialized-value";
      case ReportKind::HardeningFault: return "hardening-fault-detected";
    }
    return "?";
}

const char *
trapKindName(TrapKind k)
{
    switch (k) {
      case TrapKind::None: return "none";
      case TrapKind::Segfault: return "SIGSEGV";
      case TrapKind::DivByZero: return "SIGFPE";
      case TrapKind::StackOverflow: return "stack-overflow";
      case TrapKind::InvalidFree: return "invalid-free";
      case TrapKind::OutOfMemory: return "out-of-memory";
    }
    return "?";
}

std::string
ExecResult::str() const
{
    switch (kind) {
      case Kind::Clean:
        return "clean exit " + std::to_string(exitCode) + " checksum " +
               std::to_string(checksum);
      case Kind::Report:
        return std::string("sanitizer report: ") + reportKindName(report) +
               " at " + reportLoc.str();
      case Kind::Trap:
        return std::string("trap: ") + trapKindName(trap) + " at " +
               trapLoc.str();
      case Kind::Timeout:
        return "timeout";
    }
    return "?";
}

namespace {

constexpr uint64_t kGlobalBase = 0x10000000;
constexpr uint64_t kStackBase = 0x20000000;
constexpr uint64_t kHeapBase = 0x30000000;
constexpr uint64_t kStackCapacity = 1 << 20;
/** The stack planes are filled on first touch: at least this far,
 *  then by doubling up to kStackCapacity. */
constexpr uint64_t kStackMinCommit = 16 << 10;
constexpr uint64_t kHeapCapacity = 8 << 20;
constexpr uint64_t kNullGuard = 0x1000;
constexpr uint8_t kFillByte = 0xAA;
constexpr uint32_t kMaxCallDepth = 200;
constexpr uint32_t kHeapRedzone = 32;

/** Poison codes stored in the ASan shadow. */
enum : uint8_t {
    kPoisonNone = 0,
    kPoisonStackRz = 1,
    kPoisonGlobalRz = 2,
    kPoisonHeapRz = 3,
    kPoisonFreed = 4,
    kPoisonScope = 5,
};

uint64_t
canonical(uint64_t raw, ScalarKind k)
{
    int bits = ast::scalarBits(k);
    if (bits >= 64 || bits == 0)
        return raw;
    uint64_t mask = (1ULL << bits) - 1;
    raw &= mask;
    if (ast::scalarSigned(k) && (raw & (1ULL << (bits - 1))))
        raw |= ~mask;
    return raw;
}

struct Segment
{
    uint64_t base = 0;
    std::vector<uint8_t> mem;
    std::vector<uint8_t> poison;
    std::vector<uint8_t> msh; ///< MSan definedness shadow (1 = uninit)

    bool
    contains(uint64_t addr, uint64_t size) const
    {
        return addr >= base && addr + size >= addr &&
               addr + size <= base + mem.size();
    }

    void
    grow(uint64_t new_size)
    {
        mem.resize(new_size, kFillByte);
        poison.resize(new_size, kPoisonNone);
        msh.resize(new_size, 0);
    }

    /** Drop contents but keep the allocations for the next run. */
    void
    clear()
    {
        mem.clear();
        poison.clear();
        msh.clear();
    }
};

struct Object
{
    uint64_t id = 0;
    uint64_t base = 0;
    uint64_t size = 0;
    ObjectKind kind = ObjectKind::Global;
    ObjectState state = ObjectState::Live;
    uint32_t declId = 0;
};

struct Frame
{
    const ir::Function *fn = nullptr;
    uint32_t block = 0;
    uint32_t ip = 0;
    std::vector<uint64_t> regs;
    std::vector<uint8_t> rsh; ///< register definedness (1 = uninit)
    /**
     * Ground-truth pointer provenance: the object id a register's
     * pointer value is derived from (0 = none). Mirrors the C notion
     * that `a[4]` is out of bounds of `a` even if the address happens
     * to land inside a neighbouring object.
     */
    std::vector<uint64_t> prov;
    /** Object id per frame-object index. */
    std::vector<uint64_t> objIds;
    uint64_t savedSp = 0;
    /** Where to put the return value in the caller. */
    uint32_t callerDst = 0;
    ScalarKind callerKind = ScalarKind::S64;
};

/**
 * A bytecode frame: like Frame but pc-based (no block/ip pair) and
 * pooled — popped frames keep their vector capacities and are reused
 * by the next push, so a recursive workload stops allocating once the
 * call depth has been visited. Shadow/provenance planes are assigned
 * only in the dispatch modes that read them.
 */
struct BFrame
{
    uint32_t fnIdx = 0;
    /** pc to resume at in the caller (call pc + 1). */
    uint32_t retPc = 0;
    uint32_t callerDst = 0;
    ScalarKind callerKind = ScalarKind::S64;
    uint64_t savedSp = 0;
    std::vector<uint64_t> regs;
    std::vector<uint8_t> rsh;
    std::vector<uint64_t> prov;
    std::vector<uint64_t> objIds;
};

/** The dispatch modes the interpreter loop is instantiated over. The
 *  first three pay zero per-step option tests; Generic re-tests the
 *  run options at each use (tracing / profiling runs only). */
enum class Mode : uint8_t { Silent, Shadow, Ground, Generic };

/** canonical() with the scalar width/signedness pre-decoded by the
 *  flattener (same math; no ast::scalarBits call in the hot loop). */
inline uint64_t
canonFast(uint64_t raw, int bits, bool sgn)
{
    if (bits >= 64 || bits == 0)
        return raw;
    uint64_t mask = (1ULL << bits) - 1;
    raw &= mask;
    if (sgn && (raw & (1ULL << (bits - 1))))
        raw |= ~mask;
    return raw;
}

/**
 * Scalar memory access with the width dispatched over the sizes the IR
 * actually uses. Same bytes as memcpy(&v, p, min(size, 8)) — but a
 * variable-length memcpy compiles to a libc call inside the two
 * hottest handlers, while these collapse to a single fixed-width move
 * per case.
 */
inline uint64_t
loadScalar(const uint8_t *p, uint64_t size)
{
    switch (size) {
      case 1: {
        return *p;
      }
      case 2: {
        uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case 4: {
        uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      case 8: {
        uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
      }
      default: {
        uint64_t v = 0;
        std::memcpy(&v, p, std::min<uint64_t>(size, 8));
        return v;
      }
    }
}

/**
 * ir::evalBinary inlined for the dispatch loop: operands arrive
 * pre-canonicalized (fastBin runs canonFast first) and the result is
 * returned raw — the caller canonicalizes the destination write — so
 * the entry/exit canonicalizations and the scalarBits/scalarSigned
 * kind switches of the out-of-line version drop out. The arithmetic
 * itself must mirror ir::evalBinary exactly; the bytecode parity suite
 * compares against the reference interpreter, which still calls it.
 */
inline uint64_t
evalBinFast(ir::BinOp op, int bits, bool sgn, uint64_t a, uint64_t b,
            bool &trapped)
{
    trapped = false;
    const uint64_t mask = bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
    switch (op) {
      case ir::BinOp::Add: return a + b;
      case ir::BinOp::Sub: return a - b;
      case ir::BinOp::Mul: return a * b;
      case ir::BinOp::Div:
      case ir::BinOp::Rem: {
        if (b == 0) {
            trapped = true;
            return 0;
        }
        if (sgn) {
            int64_t sa = static_cast<int64_t>(a);
            int64_t sb = static_cast<int64_t>(b);
            int64_t minv = bits >= 64 ? INT64_MIN : -(1LL << (bits - 1));
            if (sa == minv && sb == -1) {
                trapped = true;
                return 0;
            }
            return static_cast<uint64_t>(op == ir::BinOp::Div ? sa / sb
                                                              : sa % sb);
        }
        uint64_t ua = a & mask, ub = b & mask;
        return op == ir::BinOp::Div ? ua / ub : ua % ub;
      }
      case ir::BinOp::Shl:
      case ir::BinOp::Shr: {
        uint64_t count = b & (bits == 64 ? 63 : 31);
        if (op == ir::BinOp::Shl)
            return a << count;
        if (sgn)
            return static_cast<uint64_t>(static_cast<int64_t>(a) >>
                                         count);
        return (a & mask) >> count;
      }
      case ir::BinOp::BitAnd: return a & b;
      case ir::BinOp::BitOr: return a | b;
      case ir::BinOp::BitXor: return a ^ b;
      case ir::BinOp::Lt:
        return sgn ? static_cast<int64_t>(a) < static_cast<int64_t>(b)
                   : (a & mask) < (b & mask);
      case ir::BinOp::Le:
        return sgn ? static_cast<int64_t>(a) <= static_cast<int64_t>(b)
                   : (a & mask) <= (b & mask);
      case ir::BinOp::Gt:
        return sgn ? static_cast<int64_t>(a) > static_cast<int64_t>(b)
                   : (a & mask) > (b & mask);
      case ir::BinOp::Ge:
        return sgn ? static_cast<int64_t>(a) >= static_cast<int64_t>(b)
                   : (a & mask) >= (b & mask);
      case ir::BinOp::Eq: return a == b;
      case ir::BinOp::Ne: return a != b;
      case ir::BinOp::LAnd:
      case ir::BinOp::LOr:
        UBF_PANIC("logical ops never reach evalBinFast");
    }
    return 0;
}

inline void
storeScalar(uint8_t *p, uint64_t v, uint64_t size)
{
    switch (size) {
      case 1: {
        *p = static_cast<uint8_t>(v);
        break;
      }
      case 2: {
        const uint16_t t = static_cast<uint16_t>(v);
        std::memcpy(p, &t, 2);
        break;
      }
      case 4: {
        const uint32_t t = static_cast<uint32_t>(v);
        std::memcpy(p, &t, 4);
        break;
      }
      case 8: {
        std::memcpy(p, &v, 8);
        break;
      }
      default: {
        std::memcpy(p, &v, std::min<uint64_t>(size, 8));
        break;
      }
    }
}

} // namespace

/**
 * The machine proper. Long-lived state (the stack arena with its two
 * shadow planes, vector capacities of every per-run container) is
 * built once; everything a run dirties is restored by reset() before
 * the next run, using a stack write watermark so the restore cost is
 * proportional to what the previous execution touched, not to the
 * arena size. The arena's planes are reserved at construction but
 * filled only as far as runs reach (commitStack), so neither building
 * nor re-arming a machine costs more than its runs touch.
 */
struct Machine::Impl
{
    explicit Impl(CodeCache *cache) : cache_(cache ? cache : &ownCache_)
    {
        globals_.base = kGlobalBase;
        stack_.base = kStackBase;
        stack_.mem.reserve(kStackCapacity);
        stack_.poison.reserve(kStackCapacity);
        stack_.msh.reserve(kStackCapacity);
        heap_.base = kHeapBase;
        stats_.machinesBuilt++;
    }

    /** The hot path: resolve @p m to a (possibly cached) translation
     *  and interpret it with the mode-specialized dispatch loop. */
    ExecResult
    run(const ir::Module &m, const ExecOptions &opts,
        const ir::BinaryKey *key)
    {
        UBF_ASSERT(m.mainIndex >= 0, "module has no main");
        bool hit = false;
        std::shared_ptr<const bc::Program> prog = cache_->translation(
            m, key ? *key : ir::binaryKey(m), &hit);
        if (hit)
            stats_.translationHits++;
        else
            stats_.translations++;
        return runBytecode(*prog, opts);
    }

    ExecResult
    runBytecode(const bc::Program &p, const ExecOptions &opts)
    {
        reset();
        dirty_ = true;
        stats_.executions++;
        bp_ = &p;
        opts_ = opts;
        trackShadow_ = p.msan.enabled || opts_.groundTruth;
        loadGlobals(p.globals, p.asanGlobals);
        if (opts_.recordTrace || opts_.profile || opts_.fault)
            execProgram<Mode::Generic>();
        else if (opts_.groundTruth)
            execProgram<Mode::Ground>();
        else if (trackShadow_)
            execProgram<Mode::Shadow>();
        else
            execProgram<Mode::Silent>();
        bp_ = nullptr;
        return std::move(result_);
    }

    /** The reference struct-walking interpreter (pre-flattener
     *  semantics, kept verbatim): the parity baseline. */
    ExecResult
    runReference(const ir::Module &m, const ExecOptions &opts)
    {
        UBF_ASSERT(m.mainIndex >= 0, "module has no main");
        reset();
        dirty_ = true;
        stats_.executions++;
        m_ = &m;
        opts_ = opts;
        trackShadow_ = m_->msan.enabled || opts_.groundTruth;
        loadGlobals(m_->globals, m_->asanGlobals);
        pushFrame(static_cast<uint32_t>(m_->mainIndex), {}, {}, 0,
                  ScalarKind::S32);
        while (!done_) {
            if (result_.steps >= opts_.stepLimit) {
                result_.kind = ExecResult::Kind::Timeout;
                break;
            }
            step();
        }
        return std::move(result_);
    }

    /** Restore the construction-time state of every arena. Counts the
     *  re-arm whether a caller asks for it or run() does. */
    void
    reset()
    {
        if (!dirty_)
            return;
        dirty_ = false;
        stats_.resets++;
        // Stack: restore only the dirtied prefix of the arena.
        uint64_t high = std::min<uint64_t>(stackDirty_, kStackCapacity);
        if (high) {
            std::memset(stack_.mem.data(), kFillByte, high);
            std::memset(stack_.poison.data(), kPoisonNone, high);
            std::memset(stack_.msh.data(), 0, high);
        }
        stackDirty_ = 0;
        // Globals and heap are rebuilt per run; keep the allocations.
        globals_.clear();
        heap_.clear();
        globalAddrs_.clear();
        globalObjIds_.clear();
        objects_.clear();
        byBase_.clear();
        stackObjs_.clear();
        memProv_.clear();
        frames_.clear();
        bframeTop_ = 0;
        nextObjectId_ = 1;
        sp_ = kStackBase + 64;
        curLoc_ = SourceLoc{};
        result_ = ExecResult{};
        done_ = false;
        poisonDirty_ = false;
    }

    //===------------------------------------------------------------===//
    // Memory plumbing
    //===------------------------------------------------------------===//

    /**
     * Record that stack bytes below @p endAddr were written. reset()
     * restores exactly [kStackBase, watermark) — every store path into
     * the stack segment (frame layout, Store/MemCopy, poison and MSan
     * shadow updates) must pass through here or through sp_ tracking,
     * or machine reuse would leak one run's bytes into the next.
     */
    void
    noteStackWrite(uint64_t endAddr)
    {
        if (endAddr <= kStackBase)
            return;
        uint64_t off = std::min<uint64_t>(endAddr - kStackBase,
                                          kStackCapacity);
        if (off > stackDirty_) {
            stackDirty_ = off;
            if (off > stack_.mem.size())
                commitStack(off);
        }
    }

    /**
     * Fill the stack planes past their committed size to at least
     * offset @p end (at most kStackCapacity) with what a fresh arena
     * holds: 0xAA, unpoisoned, defined. The committed size only grows,
     * by doubling from kStackMinCommit, and always covers stackDirty_.
     * The planes were reserved at construction, so growing never
     * reallocates and pointers taken earlier in the same instruction
     * stay valid. Rare, so kept out of line: the callers' checks
     * inline into every load and store.
     */
    [[gnu::cold, gnu::noinline]] void
    commitStack(uint64_t end)
    {
        stack_.grow(std::min(std::max(std::bit_ceil(end), kStackMinCommit),
                             kStackCapacity));
    }

    Segment *
    segmentFor(uint64_t addr, uint64_t size)
    {
        if (globals_.contains(addr, size))
            return &globals_;
        if (stack_.contains(addr, size))
            return &stack_;
        if (heap_.contains(addr, size))
            return &heap_;
        return stackPastCommit(addr, size);
    }

    /**
     * segmentFor's rare case: the stack by its logical bound, not its
     * committed prefix. An access past the prefix but inside the arena
     * commits up to its end first, so it sees what a fully filled
     * arena would hold; anything else is unmapped.
     */
    [[gnu::cold, gnu::noinline]] Segment *
    stackPastCommit(uint64_t addr, uint64_t size)
    {
        if (addr < kStackBase || addr + size < addr ||
            addr + size > kStackBase + kStackCapacity)
            return nullptr;
        commitStack(addr + size - kStackBase);
        return &stack_;
    }

    /** addr -> provenance object id for pointer values in memory. */
    std::map<uint64_t, uint64_t> memProv_;

    uint64_t
    provOf(const Value &v)
    {
        if (!opts_.groundTruth || !v.isReg())
            return 0;
        return frames_.back().prov[v.reg];
    }

    void
    setProv(uint32_t dst, uint64_t objId)
    {
        if (opts_.groundTruth && dst)
            frames_.back().prov[dst] = objId;
    }

    uint64_t
    registerObject(uint64_t base, uint64_t size, ObjectKind kind,
                   uint32_t declId)
    {
        Object obj;
        obj.id = nextObjectId_++;
        obj.base = base;
        obj.size = size;
        obj.kind = kind;
        obj.declId = declId;
        objects_.push_back(obj);
        if (kind == ObjectKind::Stack)
            stackObjs_.emplace_back(base, obj.id);
        else
            byBase_[base] = obj.id;
        return obj.id;
    }

    Object *
    objectById(uint64_t id)
    {
        return id ? &objects_[id - 1] : nullptr;
    }

    /** The object whose [base, base+size) contains or precedes @p addr. */
    Object *
    resolveObject(uint64_t addr)
    {
        if (addr >= kStackBase && addr < kHeapBase) {
            auto it = std::upper_bound(
                stackObjs_.begin(), stackObjs_.end(), addr,
                [](uint64_t a, const std::pair<uint64_t, uint64_t> &p) {
                    return a < p.first;
                });
            if (it == stackObjs_.begin())
                return nullptr;
            return objectById(std::prev(it)->second);
        }
        auto it = byBase_.upper_bound(addr);
        if (it == byBase_.begin())
            return nullptr;
        --it;
        Object *obj = objectById(it->second);
        // Only resolve within the same segment region.
        uint64_t seg_base = addr & ~0xFFFFFFFULL;
        if ((obj->base & ~0xFFFFFFFULL) != seg_base)
            return nullptr;
        return obj;
    }

    /** Drop a popped frame's objects from the stack-object index (the
     *  suffix of stackObjs_, pushed most recently). */
    void
    unregisterFrameObjects(const std::vector<uint64_t> &objIds)
    {
        for (size_t i = objIds.size(); i--;) {
            Object &obj = objects_[objIds[i] - 1];
            obj.state = ObjectState::ScopeEnded;
            if (!stackObjs_.empty() &&
                stackObjs_.back().second == objIds[i])
                stackObjs_.pop_back();
        }
    }

    void
    setPoison(uint64_t addr, uint64_t size, uint8_t code)
    {
        // Clearing an all-clear plane (frame pops and lifetime starts
        // in uninstrumented runs) is a no-op; skip the memset.
        if (code == kPoisonNone && !poisonDirty_)
            return;
        if (code != kPoisonNone)
            poisonDirty_ = true;
        Segment *seg = segmentFor(addr, size);
        if (!seg)
            return;
        if (seg == &stack_)
            noteStackWrite(addr + size);
        std::memset(seg->poison.data() + (addr - seg->base),
                    code, size);
    }

    void
    setMsanShadow(uint64_t addr, uint64_t size, uint8_t v)
    {
        if (!trackShadow_)
            return;
        Segment *seg = segmentFor(addr, size);
        if (!seg)
            return;
        if (seg == &stack_)
            noteStackWrite(addr + size);
        std::memset(seg->msh.data() + (addr - seg->base), v, size);
    }

    //===------------------------------------------------------------===//
    // Program load
    //===------------------------------------------------------------===//

    std::vector<uint64_t> globalAddrs_;

    /** Shared by both interpreters: the reference passes the module's
     *  globals, the bytecode path the translation's copy. */
    void
    loadGlobals(const std::vector<ir::GlobalObject> &globals,
                bool asanGlobals)
    {
        uint64_t off = 64; // keep a small guard at segment start
        // Layout pass.
        for (const ir::GlobalObject &g : globals) {
            uint32_t rz = asanGlobals ? g.redzone : 0;
            off = (off + g.align - 1) / g.align * g.align;
            off += rz;
            // Redzones must keep natural alignment of the payload.
            off = (off + g.align - 1) / g.align * g.align;
            globalAddrs_.push_back(kGlobalBase + off);
            off += g.size + rz;
        }
        globals_.grow(off + 64);
        // Contents, shadow, object registry, relocations.
        for (size_t i = 0; i < globals.size(); i++) {
            const ir::GlobalObject &g = globals[i];
            uint64_t base = globalAddrs_[i];
            uint8_t *p = globals_.mem.data() + (base - kGlobalBase);
            std::memcpy(p, g.init.data(), g.size);
            setMsanShadow(base, g.size, 0);
            globalObjIds_.push_back(
                registerObject(base, g.size, ObjectKind::Global,
                               g.declId));
            if (asanGlobals && g.redzone) {
                setPoison(base - g.redzone, g.redzone, kPoisonGlobalRz);
                // poisonSkip models the Wrong Red-Zone Buffer bug class
                // (Figure 12d): the first bytes past the object are
                // wrongly treated as valid padding.
                uint64_t skip = std::min<uint64_t>(g.poisonSkip,
                                                   g.redzone);
                setPoison(base + g.size + skip, g.redzone - skip,
                          kPoisonGlobalRz);
            }
        }
        for (size_t i = 0; i < globals.size(); i++) {
            const ir::GlobalObject &g = globals[i];
            uint64_t base = globalAddrs_[i];
            for (const auto &reloc : g.relocs) {
                uint64_t target = globalAddrs_[reloc.targetIndex] +
                                  static_cast<uint64_t>(reloc.addend);
                uint8_t *p = globals_.mem.data() +
                             (base + reloc.offset - kGlobalBase);
                std::memcpy(p, &target, 8);
                if (opts_.groundTruth) {
                    memProv_[base + reloc.offset] =
                        globalObjIds_[reloc.targetIndex];
                }
            }
        }
    }

    std::vector<uint64_t> globalObjIds_;

    //===------------------------------------------------------------===//
    // Frames and calls
    //===------------------------------------------------------------===//

    std::vector<Frame> frames_;
    uint64_t sp_ = kStackBase + 64;

    void
    pushFrame(uint32_t fnIndex, const std::vector<uint64_t> &args,
              const std::vector<uint8_t> &argShadow, uint32_t callerDst,
              ScalarKind callerKind,
              const std::vector<uint64_t> &argProv = {})
    {
        if (frames_.size() >= kMaxCallDepth) {
            trap(TrapKind::StackOverflow, curLoc_);
            return;
        }
        const ir::Function &fn = m_->functions[fnIndex];
        Frame f;
        f.fn = &fn;
        f.regs.assign(fn.numRegs, 0);
        f.rsh.assign(fn.numRegs, 0);
        if (opts_.groundTruth)
            f.prov.assign(fn.numRegs, 0);
        f.savedSp = sp_;
        f.callerDst = callerDst;
        f.callerKind = callerKind;
        // Lay out frame objects.
        for (size_t i = 0; i < fn.frame.size(); i++) {
            const ir::FrameObject &obj = fn.frame[i];
            uint32_t rz = obj.redzone;
            sp_ = (sp_ + obj.align - 1) / obj.align * obj.align;
            sp_ += rz;
            sp_ = (sp_ + obj.align - 1) / obj.align * obj.align;
            uint64_t base = sp_;
            sp_ += std::max<uint64_t>(obj.size, 1) + rz;
            noteStackWrite(sp_);
            if (sp_ > kStackBase + kStackCapacity) {
                trap(TrapKind::StackOverflow, curLoc_);
                return;
            }
            uint64_t id = registerObject(base, obj.size, ObjectKind::Stack,
                                         obj.declId);
            f.objIds.push_back(id);
            // Fresh stack memory: deterministic garbage, uninitialized.
            Segment &seg = stack_;
            std::memset(seg.mem.data() + (base - seg.base), kFillByte,
                        obj.size);
            setMsanShadow(base, obj.size, 1);
            if (rz) {
                setPoison(base - rz, rz, kPoisonStackRz);
                setPoison(base + obj.size, rz, kPoisonStackRz);
            }
        }
        // Write arguments into the parameter slots.
        for (uint32_t i = 0; i < fn.numParams && i < args.size(); i++) {
            uint64_t base = objects_[f.objIds[i] - 1].base;
            uint64_t size = fn.frame[i].size;
            uint8_t *p = stack_.mem.data() + (base - kStackBase);
            std::memcpy(p, &args[i], size);
            setMsanShadow(base, size,
                          i < argShadow.size() ? argShadow[i] : 0);
            if (opts_.groundTruth && i < argProv.size() && argProv[i] &&
                size == 8)
                memProv_[base] = argProv[i];
        }
        frames_.push_back(std::move(f));
    }

    void
    popFrame(uint64_t retValue, uint8_t retShadow, uint64_t retProv = 0)
    {
        Frame &f = frames_.back();
        // Retire this frame's objects.
        unregisterFrameObjects(f.objIds);
        // Clear poisoning over the whole frame (stack reuse is clean).
        uint64_t lo = f.savedSp, hi = sp_;
        if (hi > lo) {
            setPoison(lo, hi - lo, kPoisonNone);
            if (opts_.groundTruth) {
                memProv_.erase(memProv_.lower_bound(lo),
                               memProv_.lower_bound(hi));
            }
        }
        sp_ = f.savedSp;
        uint32_t dst = f.callerDst;
        ScalarKind k = f.callerKind;
        frames_.pop_back();
        if (frames_.empty()) {
            result_.exitCode =
                static_cast<int64_t>(canonical(retValue, k));
            done_ = true;
            return;
        }
        if (dst) {
            frames_.back().regs[dst] = canonical(retValue, k);
            frames_.back().rsh[dst] = retShadow;
            setProv(dst, retProv);
        }
        // Resume after the call instruction.
        frames_.back().ip++;
    }

    //===------------------------------------------------------------===//
    // Outcome helpers
    //===------------------------------------------------------------===//

    void
    report(ReportKind kind, SourceLoc loc)
    {
        result_.kind = ExecResult::Kind::Report;
        result_.report = kind;
        result_.reportLoc = loc;
        done_ = true;
    }

    void
    trap(TrapKind kind, SourceLoc loc)
    {
        result_.kind = ExecResult::Kind::Trap;
        result_.trap = kind;
        result_.trapLoc = loc;
        done_ = true;
    }

    //===------------------------------------------------------------===//
    // Operand evaluation
    //===------------------------------------------------------------===//

    uint64_t
    val(const Value &v)
    {
        if (v.isImm())
            return v.imm;
        UBF_ASSERT(v.isReg(), "evaluating empty operand");
        return frames_.back().regs[v.reg];
    }

    uint8_t
    shadow(const Value &v)
    {
        if (!trackShadow_ || !v.isReg())
            return 0;
        return frames_.back().rsh[v.reg];
    }

    void
    setReg(uint32_t dst, uint64_t value, uint8_t sh)
    {
        Frame &f = frames_.back();
        f.regs[dst] = value;
        if (trackShadow_)
            f.rsh[dst] = sh;
        if (opts_.groundTruth)
            f.prov[dst] = 0;
    }

    //===------------------------------------------------------------===//
    // The interpreter
    //===------------------------------------------------------------===//

    SourceLoc curLoc_;

    /**
     * Apply the armed FaultPlan to the current frame: flip one bit in
     * a register or a frame-slot byte. Both interpreters call this
     * from the same point of the dispatch preamble (after the step
     * counter reached plan.step, before that step's instruction
     * executes), so fault runs are bit-identical across them. The plan
     * is modulo-reduced onto whatever the frame actually has; a frame
     * with no eligible victim of the chosen kind falls back to the
     * other kind, and a frame with neither leaves the run untouched.
     */
    void
    applyFault(std::vector<uint64_t> &regs,
               const std::vector<uint64_t> &objIds,
               const std::vector<ir::FrameObject> &frame)
    {
        const FaultPlan &fp = *opts_.fault;
        const bool wantSlot = fp.target & 1;
        const uint64_t rest = fp.target >> 1;
        auto flipSlot = [&]() -> bool {
            if (objIds.empty())
                return false;
            const size_t idx = rest % objIds.size();
            const uint64_t size = frame[idx].size;
            if (!size)
                return false;
            const uint64_t base = objects_[objIds[idx] - 1].base;
            const uint64_t byte = (rest / objIds.size()) % size;
            noteStackWrite(base + byte + 1);
            stack_.mem[base - stack_.base + byte] ^=
                static_cast<uint8_t>(1u << (fp.bitIndex % 8));
            return true;
        };
        auto flipReg = [&]() -> bool {
            if (regs.size() <= 1)
                return false;
            const size_t idx = 1 + rest % (regs.size() - 1);
            regs[idx] ^= 1ULL << (fp.bitIndex % 64);
            return true;
        };
        bool applied = wantSlot ? (flipSlot() || flipReg())
                                : (flipReg() || flipSlot());
        if (applied) {
            result_.faultApplied = true;
            stats_.faultInjections++;
        }
    }

    void
    recordTrace(SourceLoc loc)
    {
        if (!opts_.recordTrace || !loc.isValid())
            return;
        if (!result_.trace.empty() && result_.trace.back() == loc)
            return;
        result_.trace.push_back(loc);
    }

    void
    step()
    {
        Frame &f = frames_.back();
        const Inst &inst = f.fn->instsOf(f.fn->blocks[f.block])[f.ip];
        result_.steps++;
        if (inst.loc.isValid())
            curLoc_ = inst.loc;
        recordTrace(inst.loc);
        if (opts_.fault && result_.steps == opts_.fault->step)
            applyFault(f.regs, f.objIds, f.fn->frame);

        switch (inst.op) {
          case Opcode::Nop:
          case Opcode::LogScopeEnter:
          case Opcode::LogScopeExit:
            if (opts_.profile &&
                (inst.op == Opcode::LogScopeEnter ||
                 inst.op == Opcode::LogScopeExit)) {
                opts_.profile->scopes.push_back(
                    {val(inst.a), inst.op == Opcode::LogScopeEnter,
                     ++opts_.profile->eventSeq});
            }
            f.ip++;
            break;
          case Opcode::Const:
            setReg(inst.dst, canonical(inst.imm, inst.kind), 0);
            f.ip++;
            break;
          case Opcode::Cast: {
            uint64_t p = provOf(inst.a);
            setReg(inst.dst, canonical(val(inst.a), inst.kind),
                   shadow(inst.a));
            setProv(inst.dst, p);
            f.ip++;
            break;
          }
          case Opcode::Select: {
            bool c = val(inst.c) != 0;
            const Value &pick = c ? inst.a : inst.b;
            uint64_t p = provOf(pick);
            setReg(inst.dst, canonical(val(pick), inst.kind),
                   static_cast<uint8_t>(shadow(pick) | shadow(inst.c)));
            setProv(inst.dst, p);
            f.ip++;
            break;
          }
          case Opcode::Bin:
            execBin(inst);
            break;
          case Opcode::FrameAddr:
            setReg(inst.dst, objects_[f.objIds[inst.object] - 1].base, 0);
            setProv(inst.dst, f.objIds[inst.object]);
            f.ip++;
            break;
          case Opcode::GlobalAddr:
            setReg(inst.dst, globalAddrs_[inst.object], 0);
            setProv(inst.dst, globalObjIds_[inst.object]);
            f.ip++;
            break;
          case Opcode::Gep: {
            uint64_t base = val(inst.a);
            int64_t idx = static_cast<int64_t>(val(inst.b));
            if (opts_.groundTruth &&
                (shadow(inst.a) || shadow(inst.b))) {
                report(ReportKind::UninitValue, inst.loc);
                return;
            }
            uint64_t addr =
                base + static_cast<uint64_t>(
                           idx * static_cast<int64_t>(inst.imm));
            uint64_t p = provOf(inst.a);
            setReg(inst.dst, addr,
                   static_cast<uint8_t>(shadow(inst.a) |
                                        shadow(inst.b)));
            setProv(inst.dst, p);
            f.ip++;
            break;
          }
          case Opcode::Load:
            execLoad(inst);
            break;
          case Opcode::Store:
            execStore(inst);
            break;
          case Opcode::MemCopy:
            execMemCopy(inst);
            break;
          case Opcode::Br:
            f.block = inst.targets[0];
            f.ip = 0;
            break;
          case Opcode::CondBr: {
            if (opts_.groundTruth && shadow(inst.a)) {
                report(ReportKind::UninitValue, inst.loc);
                return;
            }
            f.block = val(inst.a) != 0 ? inst.targets[0]
                                       : inst.targets[1];
            f.ip = 0;
            break;
          }
          case Opcode::Ret: {
            uint64_t rv = inst.a.isNone() ? 0 : val(inst.a);
            uint8_t sh = inst.a.isNone() ? 0 : shadow(inst.a);
            popFrame(rv, sh, provOf(inst.a));
            break;
          }
          case Opcode::Call: {
            std::vector<uint64_t> args;
            std::vector<uint8_t> argShadow;
            std::vector<uint64_t> argProv;
            args.reserve(inst.argCount);
            for (const Value &a : f.fn->argsOf(inst)) {
                args.push_back(val(a));
                argShadow.push_back(shadow(a));
                argProv.push_back(provOf(a));
            }
            // pushFrame does not advance ip: popFrame resumes after it.
            pushFrame(inst.callee, args, argShadow, inst.dst, inst.kind,
                      argProv);
            break;
          }
          case Opcode::Malloc:
            execMalloc(inst);
            break;
          case Opcode::Free:
            execFree(inst);
            break;
          case Opcode::Checksum: {
            uint64_t v = val(inst.a);
            if (opts_.groundTruth && shadow(inst.a)) {
                report(ReportKind::UninitValue, inst.loc);
                return;
            }
            result_.checksum = (result_.checksum ^ v) *
                               0x100000001b3ULL;
            f.ip++;
            break;
          }
          case Opcode::LogVal:
            if (opts_.profile) {
                opts_.profile->values[val(inst.a)].push_back(
                    static_cast<int64_t>(val(inst.b)));
            }
            f.ip++;
            break;
          case Opcode::LogPtr:
            if (opts_.profile) {
                PtrRecord rec;
                rec.address = val(inst.b);
                if (Object *obj = resolveObject(rec.address)) {
                    if (rec.address < obj->base + obj->size) {
                        rec.objectId = obj->id;
                        rec.objectBase = obj->base;
                        rec.objectSize = obj->size;
                        rec.objectKind = obj->kind;
                        rec.objectState = obj->state;
                    }
                }
                opts_.profile->pointers[val(inst.a)].push_back(rec);
            }
            f.ip++;
            break;
          case Opcode::LogBuf:
            if (opts_.profile) {
                BufRecord rec;
                rec.address = val(inst.b);
                rec.size = val(inst.c);
                if (Object *obj = resolveObject(rec.address)) {
                    rec.objectId = obj->id;
                    rec.objectKind = obj->kind;
                }
                opts_.profile->buffers[val(inst.a)].push_back(rec);
            }
            f.ip++;
            break;
          case Opcode::LifetimeStart: {
            Object &obj = objects_[f.objIds[inst.object] - 1];
            obj.state = ObjectState::Live;
            setPoison(obj.base, obj.size, kPoisonNone);
            setMsanShadow(obj.base, obj.size, 1);
            Segment &seg = stack_;
            std::memset(seg.mem.data() + (obj.base - seg.base),
                        kFillByte, obj.size);
            f.ip++;
            break;
          }
          case Opcode::LifetimeEnd: {
            Object &obj = objects_[f.objIds[inst.object] - 1];
            obj.state = ObjectState::ScopeEnded;
            if (f.fn->frame[inst.object].redzone)
                setPoison(obj.base, obj.size, kPoisonScope);
            f.ip++;
            break;
          }
          case Opcode::AsanCheck:
            execAsanCheck(inst);
            break;
          case Opcode::UbsanArith:
            execUbsanArith(inst);
            break;
          case Opcode::UbsanShift: {
            int64_t count = static_cast<int64_t>(val(inst.b));
            // flag = "negative counts only" (an injected check bug).
            bool bad = inst.flag
                           ? count < 0
                           : (count < 0 ||
                              count >= ast::scalarBits(inst.kind));
            if (bad) {
                report(ReportKind::ShiftOutOfBounds, inst.loc);
                return;
            }
            f.ip++;
            break;
          }
          case Opcode::UbsanDiv: {
            uint64_t b = val(inst.b);
            if (canonical(b, inst.kind) == 0) {
                report(ReportKind::DivByZero, inst.loc);
                return;
            }
            if (ast::scalarSigned(inst.kind)) {
                int bits = ast::scalarBits(inst.kind);
                int64_t minv = bits >= 64
                                   ? INT64_MIN
                                   : -(1LL << (bits - 1));
                if (static_cast<int64_t>(val(inst.a)) == minv &&
                    static_cast<int64_t>(canonical(b, inst.kind)) ==
                        -1) {
                    report(ReportKind::SignedIntegerOverflow, inst.loc);
                    return;
                }
            }
            f.ip++;
            break;
          }
          case Opcode::UbsanNull:
            if (val(inst.a) == 0) {
                report(ReportKind::NullDeref, inst.loc);
                return;
            }
            f.ip++;
            break;
          case Opcode::UbsanBounds: {
            int64_t idx = static_cast<int64_t>(val(inst.a));
            if (idx < 0 || static_cast<uint64_t>(idx) >= inst.imm) {
                report(ReportKind::ArrayIndexOOB, inst.loc);
                return;
            }
            f.ip++;
            break;
          }
          case Opcode::MsanCheck:
            if (m_->msan.enabled && shadow(inst.a)) {
                report(ReportKind::UninitValue, inst.loc);
                return;
            }
            f.ip++;
            break;
          case Opcode::HardenCheck:
            // Armed only while a fault plan is in effect: on the
            // ordinary sanitizer matrix a hardened binary must be
            // report-for-report identical to its unhardened twin, even
            // when the program's own UB corrupts a shadow slot.
            if (opts_.fault && val(inst.a) != val(inst.b)) {
                report(ReportKind::HardeningFault, inst.loc);
                return;
            }
            f.ip++;
            break;
        }
    }

    //===------------------------------------------------------------===//
    // Arithmetic
    //===------------------------------------------------------------===//

    uint8_t
    binShadow(const Inst &inst)
    {
        if (!trackShadow_)
            return 0;
        uint8_t sh =
            static_cast<uint8_t>(shadow(inst.a) | shadow(inst.b));
        if (!sh)
            return 0;
        // MSan policy hooks (bug injection lives in the MSan pass; the
        // VM merely obeys the compiled policy). Figure 12f: the buggy
        // propagation path treats subtraction results as fully defined.
        if (m_->msan.bugSubConstDefined && inst.binOp == ir::BinOp::Sub)
            return 0;
        if (m_->msan.bugAndDefined && inst.binOp == ir::BinOp::BitAnd)
            return 0;
        return sh;
    }

    void
    execBin(const Inst &inst)
    {
        Frame &f = frames_.back();
        ScalarKind k = inst.kind;
        uint64_t a = canonical(val(inst.a), k);
        uint64_t b = canonical(val(inst.b), k);
        bool sgn = ast::scalarSigned(k);
        int bits = ast::scalarBits(k);

        // Ground truth: flag marks source-level arithmetic.
        if (opts_.groundTruth && inst.flag && sgn &&
            ast::isArithOp(inst.binOp)) {
            __int128 wa = static_cast<int64_t>(a);
            __int128 wb = static_cast<int64_t>(b);
            __int128 r = inst.binOp == ir::BinOp::Add   ? wa + wb
                         : inst.binOp == ir::BinOp::Sub ? wa - wb
                                                        : wa * wb;
            __int128 lo = -(static_cast<__int128>(1) << (bits - 1));
            __int128 hi = (static_cast<__int128>(1) << (bits - 1)) - 1;
            if (r < lo || r > hi) {
                report(ReportKind::SignedIntegerOverflow, inst.loc);
                return;
            }
        }
        if (opts_.groundTruth && inst.flag &&
            ast::isShiftOp(inst.binOp)) {
            int64_t count = static_cast<int64_t>(val(inst.b));
            if (count < 0 || count >= bits) {
                report(ReportKind::ShiftOutOfBounds, inst.loc);
                return;
            }
        }
        if (opts_.groundTruth && inst.flag &&
            ast::isDivRemOp(inst.binOp)) {
            if (shadow(inst.a) || shadow(inst.b)) {
                report(ReportKind::UninitValue, inst.loc);
                return;
            }
            if (b == 0) {
                report(ReportKind::DivByZero, inst.loc);
                return;
            }
            if (sgn && bits >= 1) {
                int64_t minv = bits >= 64 ? INT64_MIN
                                          : -(1LL << (bits - 1));
                if (static_cast<int64_t>(a) == minv &&
                    static_cast<int64_t>(b) == -1) {
                    report(ReportKind::SignedIntegerOverflow, inst.loc);
                    return;
                }
            }
        }

        bool trapped = false;
        uint64_t r = ir::evalBinary(inst.binOp, k, a, b, trapped);
        if (trapped) {
            // x86 #DE on division by zero and INT_MIN / -1.
            trap(TrapKind::DivByZero, inst.loc);
            return;
        }
        bool is_cmp = ast::isComparisonOp(inst.binOp);
        setReg(inst.dst,
               is_cmp ? (r ? 1 : 0) : canonical(r, k),
               binShadow(inst));
        if (opts_.groundTruth && !is_cmp) {
            // Pointer provenance survives arithmetic with a
            // non-pointer operand (p + k); it dies when both operands
            // carry provenance (p - q is a count, not a pointer).
            uint64_t pa = provOf(inst.a), pb = provOf(inst.b);
            if ((pa != 0) != (pb != 0))
                setProv(inst.dst, pa ? pa : pb);
        }
        f.ip++;
    }

    static uint64_t
    maskOf(int bits)
    {
        return bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
    }

    //===------------------------------------------------------------===//
    // Memory access
    //===------------------------------------------------------------===//

    /** Ground-truth precise access check. @return true when reported. */
    bool
    preciseCheck(uint64_t addr, uint64_t size, SourceLoc loc,
                 uint64_t prov = 0)
    {
        if (!opts_.groundTruth)
            return false;
        if (addr < kNullGuard) {
            report(ReportKind::NullDeref, loc);
            return true;
        }
        Object *obj = prov ? objectById(prov) : resolveObject(addr);
        if (prov && (addr < obj->base)) {
            // Underflow of the derived-from object.
            report(obj->kind == ObjectKind::Stack
                       ? ReportKind::StackBufferOverflow
                   : obj->kind == ObjectKind::Heap
                       ? ReportKind::HeapBufferOverflow
                       : ReportKind::GlobalBufferOverflow,
                   loc);
            return true;
        }
        if (!obj || addr >= obj->base + obj->size + (prov ? 0 : 256)) {
            if (prov) {
                Object *o = objectById(prov);
                report(o->kind == ObjectKind::Stack
                           ? ReportKind::StackBufferOverflow
                       : o->kind == ObjectKind::Heap
                           ? ReportKind::HeapBufferOverflow
                           : ReportKind::GlobalBufferOverflow,
                       loc);
                return true;
            }
            // Far from any object: classify by segment.
            report(ReportKind::GlobalBufferOverflow, loc);
            return true;
        }
        ReportKind overflow_kind =
            obj->kind == ObjectKind::Stack
                ? ReportKind::StackBufferOverflow
            : obj->kind == ObjectKind::Heap
                ? ReportKind::HeapBufferOverflow
                : ReportKind::GlobalBufferOverflow;
        if (addr + size > obj->base + obj->size) {
            report(overflow_kind, loc);
            return true;
        }
        if (obj->state == ObjectState::Freed) {
            report(ReportKind::HeapUseAfterFree, loc);
            return true;
        }
        if (obj->state == ObjectState::ScopeEnded) {
            report(ReportKind::StackUseAfterScope, loc);
            return true;
        }
        return false;
    }

    void
    execLoad(const Inst &inst)
    {
        Frame &f = frames_.back();
        uint64_t addr = val(inst.a);
        uint64_t size = inst.imm;
        if (shadow(inst.a) && opts_.groundTruth) {
            report(ReportKind::UninitValue, inst.loc);
            return;
        }
        if (preciseCheck(addr, size, inst.loc, provOf(inst.a)))
            return;
        if (addr < kNullGuard) {
            trap(TrapKind::Segfault, inst.loc);
            return;
        }
        Segment *seg = segmentFor(addr, size);
        if (!seg) {
            trap(TrapKind::Segfault, inst.loc);
            return;
        }
        const uint64_t raw =
            loadScalar(seg->mem.data() + (addr - seg->base), size);
        uint8_t sh = 0;
        if (trackShadow_) {
            for (uint64_t i = 0; i < size; i++)
                sh |= seg->msh[addr - seg->base + i];
        }
        setReg(inst.dst, canonical(raw, inst.kind), sh);
        if (opts_.groundTruth && size == 8) {
            auto it = memProv_.find(addr);
            if (it != memProv_.end())
                setProv(inst.dst, it->second);
        }
        f.ip++;
    }

    void
    execStore(const Inst &inst)
    {
        Frame &f = frames_.back();
        uint64_t addr = val(inst.a);
        uint64_t size = inst.imm;
        if (shadow(inst.a) && opts_.groundTruth) {
            report(ReportKind::UninitValue, inst.loc);
            return;
        }
        if (preciseCheck(addr, size, inst.loc, provOf(inst.a)))
            return;
        if (addr < kNullGuard) {
            trap(TrapKind::Segfault, inst.loc);
            return;
        }
        Segment *seg = segmentFor(addr, size);
        if (!seg) {
            trap(TrapKind::Segfault, inst.loc);
            return;
        }
        uint64_t v = val(inst.b);
        if (seg == &stack_)
            noteStackWrite(addr + size);
        storeScalar(seg->mem.data() + (addr - seg->base), v, size);
        if (trackShadow_)
            setMsanShadow(addr, size, shadow(inst.b));
        if (opts_.groundTruth) {
            uint64_t p = provOf(inst.b);
            if (p && size == 8)
                memProv_[addr] = p;
            else
                memProv_.erase(addr);
        }
        f.ip++;
    }

    void
    execMemCopy(const Inst &inst)
    {
        Frame &f = frames_.back();
        uint64_t dst = val(inst.a);
        uint64_t src = val(inst.b);
        uint64_t size = inst.imm;
        if (preciseCheck(src, size, inst.loc, provOf(inst.b)) ||
            preciseCheck(dst, size, inst.loc, provOf(inst.a)))
            return;
        if (dst < kNullGuard || src < kNullGuard) {
            trap(TrapKind::Segfault, inst.loc);
            return;
        }
        Segment *sseg = segmentFor(src, size);
        Segment *dseg = segmentFor(dst, size);
        if (!sseg || !dseg) {
            trap(TrapKind::Segfault, inst.loc);
            return;
        }
        if (dseg == &stack_)
            noteStackWrite(dst + size);
        std::memmove(dseg->mem.data() + (dst - dseg->base),
                     sseg->mem.data() + (src - sseg->base), size);
        if (trackShadow_) {
            std::memmove(dseg->msh.data() + (dst - dseg->base),
                         sseg->msh.data() + (src - sseg->base), size);
        }
        if (opts_.groundTruth) {
            // Move pointer provenance along with the bytes.
            memProv_.erase(memProv_.lower_bound(dst),
                           memProv_.lower_bound(dst + size));
            std::vector<std::pair<uint64_t, uint64_t>> moved;
            for (auto it = memProv_.lower_bound(src);
                 it != memProv_.end() && it->first < src + size; ++it)
                moved.emplace_back(it->first - src + dst, it->second);
            for (const auto &[a, p] : moved)
                memProv_[a] = p;
        }
        f.ip++;
    }

    void
    execMalloc(const Inst &inst)
    {
        Frame &f = frames_.back();
        uint64_t size = std::max<uint64_t>(val(inst.a), 1);
        uint32_t rz = m_->asanHeap ? kHeapRedzone : 0;
        uint64_t off = heap_.mem.size();
        off = (off + 15) / 16 * 16;
        uint64_t total = rz + size + rz;
        if (off + total > kHeapCapacity) {
            trap(TrapKind::OutOfMemory, inst.loc);
            return;
        }
        heap_.grow(off + total);
        uint64_t base = kHeapBase + off + rz;
        uint64_t id = registerObject(base, size, ObjectKind::Heap, 0);
        setMsanShadow(base, size, 1);
        if (rz) {
            setPoison(base - rz, rz, kPoisonHeapRz);
            setPoison(base + size, rz, kPoisonHeapRz);
        }
        if (opts_.profile) {
            opts_.profile->heapAllocs.push_back(
                {id, base, size, ++opts_.profile->eventSeq, 0});
        }
        setReg(inst.dst, base, 0);
        setProv(inst.dst, id);
        f.ip++;
    }

    void
    execFree(const Inst &inst)
    {
        Frame &f = frames_.back();
        uint64_t addr = val(inst.a);
        if (addr == 0) { // free(NULL) is a no-op
            f.ip++;
            return;
        }
        auto it = byBase_.find(addr);
        Object *obj =
            it == byBase_.end() ? nullptr : objectById(it->second);
        if (!obj || obj->kind != ObjectKind::Heap ||
            obj->state != ObjectState::Live) {
            trap(TrapKind::InvalidFree, inst.loc);
            return;
        }
        obj->state = ObjectState::Freed;
        if (m_->asanHeap)
            setPoison(obj->base, obj->size, kPoisonFreed);
        if (opts_.profile) {
            for (auto &rec : opts_.profile->heapAllocs) {
                if (rec.objectId == obj->id && rec.freeSeq == 0)
                    rec.freeSeq = ++opts_.profile->eventSeq;
            }
        }
        f.ip++;
    }

    void
    execAsanCheck(const Inst &inst)
    {
        Frame &f = frames_.back();
        uint64_t addr = val(inst.a);
        uint64_t size = inst.imm;
        Segment *seg = segmentFor(addr, size);
        if (seg) {
            for (uint64_t i = 0; i < size; i++) {
                uint8_t code = seg->poison[addr - seg->base + i];
                if (code == kPoisonNone)
                    continue;
                ReportKind kind;
                switch (code) {
                  case kPoisonStackRz:
                    kind = ReportKind::StackBufferOverflow;
                    break;
                  case kPoisonGlobalRz:
                    kind = ReportKind::GlobalBufferOverflow;
                    break;
                  case kPoisonHeapRz:
                    kind = ReportKind::HeapBufferOverflow;
                    break;
                  case kPoisonFreed:
                    kind = ReportKind::HeapUseAfterFree;
                    break;
                  default:
                    kind = ReportKind::StackUseAfterScope;
                    break;
                }
                report(kind, inst.loc);
                return;
            }
        }
        f.ip++;
    }

    void
    execUbsanArith(const Inst &inst)
    {
        Frame &f = frames_.back();
        ScalarKind k = inst.kind;
        if (!ast::scalarSigned(k)) {
            f.ip++;
            return;
        }
        int bits = ast::scalarBits(k);
        __int128 a = static_cast<int64_t>(canonical(val(inst.a), k));
        __int128 b = static_cast<int64_t>(canonical(val(inst.b), k));
        __int128 r = inst.binOp == ir::BinOp::Add   ? a + b
                     : inst.binOp == ir::BinOp::Sub ? a - b
                                                    : a * b;
        __int128 lo = -(static_cast<__int128>(1) << (bits - 1));
        __int128 hi = (static_cast<__int128>(1) << (bits - 1)) - 1;
        if (r < lo || r > hi) {
            report(ReportKind::SignedIntegerOverflow, inst.loc);
            return;
        }
        f.ip++;
    }

    //===------------------------------------------------------------===//
    // The bytecode interpreter (the hot path)
    //
    // One dispatch loop, instantiated per Mode. The specialized modes
    // compile the shadow/ground-truth/trace/profile tests away; the
    // Generic instantiation re-tests the run options like the
    // reference interpreter does (it only runs for traced or profiled
    // executions). Every handler mirrors the corresponding step() arm
    // of the reference interpreter exactly — including evaluation
    // order around register writes — so results are bit-identical
    // (test_bytecode's parity suite).
    //===------------------------------------------------------------===//

    static constexpr uint32_t kNoLocPc = 0xFFFFFFFFu;

    template <Mode M>
    bool
    mShadow() const
    {
        if constexpr (M == Mode::Generic)
            return trackShadow_;
        else
            return M != Mode::Silent;
    }

    template <Mode M>
    bool
    mGround() const
    {
        if constexpr (M == Mode::Generic)
            return opts_.groundTruth;
        else
            return M == Mode::Ground;
    }

    template <Mode M>
    bool
    mTrace() const
    {
        if constexpr (M == Mode::Generic)
            return opts_.recordTrace;
        else
            return false;
    }

    template <Mode M>
    bool
    mProfile() const
    {
        if constexpr (M == Mode::Generic)
            return opts_.profile != nullptr;
        else
            return false;
    }

    /** Fault injection is a Generic-mode-only concern: the three hot
     *  modes compile the armed-plan test out entirely. */
    template <Mode M>
    bool
    mFault() const
    {
        if constexpr (M == Mode::Generic)
            return opts_.fault != nullptr;
        else
            return false;
    }

    /** Push a bytecode frame (args marshaled into the scratch arrays).
     *  @return false when a StackOverflow trap ended the run; the trap
     *  site is the last executed valid loc, like the reference. */
    template <Mode M>
    bool
    bcPushFrame(uint32_t fnIdx, uint32_t nArgs, uint32_t callerDst,
                ScalarKind callerKind, uint32_t retPc, uint32_t curLocPc)
    {
        auto curLoc = [&]() -> SourceLoc {
            return curLocPc == kNoLocPc ? SourceLoc{}
                                        : bp_->locs[curLocPc];
        };
        if (bframeTop_ >= kMaxCallDepth) {
            trap(TrapKind::StackOverflow, curLoc());
            return false;
        }
        const bc::BFunction &fn = bp_->functions[fnIdx];
        if (bframeTop_ == bframes_.size())
            bframes_.emplace_back();
        BFrame &f = bframes_[bframeTop_];
        f.fnIdx = fnIdx;
        f.retPc = retPc;
        f.callerDst = callerDst;
        f.callerKind = callerKind;
        f.savedSp = sp_;
        f.regs.assign(fn.numRegs, 0);
        if (mShadow<M>())
            f.rsh.assign(fn.numRegs, 0);
        if (mGround<M>())
            f.prov.assign(fn.numRegs, 0);
        f.objIds.clear();
        for (size_t i = 0; i < fn.frame.size(); i++) {
            const ir::FrameObject &obj = fn.frame[i];
            uint32_t rz = obj.redzone;
            sp_ = (sp_ + obj.align - 1) / obj.align * obj.align;
            sp_ += rz;
            sp_ = (sp_ + obj.align - 1) / obj.align * obj.align;
            uint64_t base = sp_;
            sp_ += std::max<uint64_t>(obj.size, 1) + rz;
            noteStackWrite(sp_);
            if (sp_ > kStackBase + kStackCapacity) {
                trap(TrapKind::StackOverflow, curLoc());
                return false;
            }
            uint64_t id = registerObject(base, obj.size,
                                         ObjectKind::Stack, obj.declId);
            f.objIds.push_back(id);
            std::memset(stack_.mem.data() + (base - stack_.base),
                        kFillByte, obj.size);
            if (mShadow<M>())
                setMsanShadow(base, obj.size, 1);
            if (rz) {
                setPoison(base - rz, rz, kPoisonStackRz);
                setPoison(base + obj.size, rz, kPoisonStackRz);
            }
        }
        for (uint32_t i = 0; i < fn.numParams && i < nArgs; i++) {
            uint64_t base = objects_[f.objIds[i] - 1].base;
            uint64_t size = fn.frame[i].size;
            std::memcpy(stack_.mem.data() + (base - kStackBase),
                        &scratchArgs_[i], size);
            if (mShadow<M>())
                setMsanShadow(base, size, scratchSh_[i]);
            if (mGround<M>() && scratchProv_[i] && size == 8)
                memProv_[base] = scratchProv_[i];
        }
        bframeTop_++;
        return true;
    }

    /** Pop the current bytecode frame. @return the caller resume pc
     *  (meaningless once done_). */
    template <Mode M>
    uint32_t
    bcPopFrame(uint64_t retValue, uint8_t retShadow, uint64_t retProv)
    {
        BFrame &f = bframes_[bframeTop_ - 1];
        unregisterFrameObjects(f.objIds);
        uint64_t lo = f.savedSp, hi = sp_;
        if (hi > lo) {
            setPoison(lo, hi - lo, kPoisonNone);
            if (mGround<M>()) {
                memProv_.erase(memProv_.lower_bound(lo),
                               memProv_.lower_bound(hi));
            }
        }
        sp_ = f.savedSp;
        uint32_t dst = f.callerDst;
        ScalarKind k = f.callerKind;
        uint32_t retPc = f.retPc;
        bframeTop_--;
        if (bframeTop_ == 0) {
            result_.exitCode =
                static_cast<int64_t>(canonical(retValue, k));
            done_ = true;
            return 0;
        }
        BFrame &caller = bframes_[bframeTop_ - 1];
        if (dst) {
            caller.regs[dst] = canonical(retValue, k);
            if (mShadow<M>())
                caller.rsh[dst] = retShadow;
            if (mGround<M>())
                caller.prov[dst] = retProv;
        }
        return retPc;
    }

    template <Mode M, bool AImm, bool BImm>
    void
    fastBin(const bc::BInst &bi, BFrame &f, uint32_t pc)
    {
        const bool sgn = bi.flags & bc::kOpSigned;
        const int bits = bi.bits;
        const uint64_t rawB = BImm ? bi.y : f.regs[bi.b];
        const uint64_t a =
            canonFast(AImm ? bi.x : f.regs[bi.a], bits, sgn);
        const uint64_t b = canonFast(rawB, bits, sgn);
        uint8_t shA = 0, shB = 0;
        if (mShadow<M>()) {
            if (!AImm)
                shA = f.rsh[bi.a];
            if (!BImm)
                shB = f.rsh[bi.b];
        }
        if (mGround<M>() && (bi.flags & bc::kOpIrFlag)) {
            if (sgn && (bi.flags & bc::kOpArith)) {
                __int128 wa = static_cast<int64_t>(a);
                __int128 wb = static_cast<int64_t>(b);
                __int128 r = bi.binOp == ir::BinOp::Add   ? wa + wb
                             : bi.binOp == ir::BinOp::Sub ? wa - wb
                                                          : wa * wb;
                __int128 lo = -(static_cast<__int128>(1) << (bits - 1));
                __int128 hi =
                    (static_cast<__int128>(1) << (bits - 1)) - 1;
                if (r < lo || r > hi) {
                    report(ReportKind::SignedIntegerOverflow,
                           bp_->locs[pc]);
                    return;
                }
            }
            if (bi.flags & bc::kOpShift) {
                int64_t count = static_cast<int64_t>(rawB);
                if (count < 0 || count >= bits) {
                    report(ReportKind::ShiftOutOfBounds, bp_->locs[pc]);
                    return;
                }
            }
            if (bi.flags & bc::kOpDivRem) {
                if (shA || shB) {
                    report(ReportKind::UninitValue, bp_->locs[pc]);
                    return;
                }
                if (b == 0) {
                    report(ReportKind::DivByZero, bp_->locs[pc]);
                    return;
                }
                if (sgn && bits >= 1) {
                    int64_t minv = bits >= 64 ? INT64_MIN
                                              : -(1LL << (bits - 1));
                    if (static_cast<int64_t>(a) == minv &&
                        static_cast<int64_t>(b) == -1) {
                        report(ReportKind::SignedIntegerOverflow,
                               bp_->locs[pc]);
                        return;
                    }
                }
            }
        }
        bool trapped = false;
        uint64_t r = evalBinFast(bi.binOp, bits, sgn, a, b, trapped);
        if (trapped) {
            trap(TrapKind::DivByZero, bp_->locs[pc]);
            return;
        }
        const bool isCmp = bi.flags & bc::kOpCmp;
        uint8_t sh = 0;
        if (mShadow<M>()) {
            sh = static_cast<uint8_t>(shA | shB);
            if (sh) {
                if (bp_->msan.bugSubConstDefined &&
                    bi.binOp == ir::BinOp::Sub)
                    sh = 0;
                else if (bp_->msan.bugAndDefined &&
                         bi.binOp == ir::BinOp::BitAnd)
                    sh = 0;
            }
        }
        f.regs[bi.dst] = isCmp ? (r ? 1 : 0) : canonFast(r, bits, sgn);
        if (mShadow<M>())
            f.rsh[bi.dst] = sh;
        if (mGround<M>()) {
            // Like the reference: the destination's provenance is
            // cleared first, then the operands' provenance is read.
            f.prov[bi.dst] = 0;
            if (!isCmp) {
                uint64_t pa = AImm ? 0 : f.prov[bi.a];
                uint64_t pb = BImm ? 0 : f.prov[bi.b];
                if ((pa != 0) != (pb != 0) && bi.dst)
                    f.prov[bi.dst] = pa ? pa : pb;
            }
        }
    }

    template <Mode M, bool AImm, bool BImm>
    void
    fastGep(const bc::BInst &bi, BFrame &f, uint32_t pc)
    {
        const uint64_t base = AImm ? bi.x : f.regs[bi.a];
        const int64_t idx =
            static_cast<int64_t>(BImm ? bi.y : f.regs[bi.b]);
        uint8_t shA = 0, shB = 0;
        if (mShadow<M>()) {
            if (!AImm)
                shA = f.rsh[bi.a];
            if (!BImm)
                shB = f.rsh[bi.b];
        }
        if (mGround<M>() && (shA || shB)) {
            report(ReportKind::UninitValue, bp_->locs[pc]);
            return;
        }
        const uint64_t addr =
            base +
            static_cast<uint64_t>(idx * static_cast<int64_t>(bi.imm));
        const uint64_t p = (mGround<M>() && !AImm) ? f.prov[bi.a] : 0;
        f.regs[bi.dst] = addr;
        if (mShadow<M>())
            f.rsh[bi.dst] = static_cast<uint8_t>(shA | shB);
        if (mGround<M>())
            f.prov[bi.dst] = bi.dst ? p : 0;
    }

    // fastLoad and fastStore are forced inline: left to its heuristics,
    // GCC 12 keeps some of their mode variants out of line, and which
    // ones flips with unrelated edits elsewhere in this file.
    template <Mode M, bool AImm>
    [[gnu::always_inline]] void
    fastLoad(const bc::BInst &bi, BFrame &f, uint32_t pc)
    {
        const uint64_t addr = AImm ? bi.x : f.regs[bi.a];
        const uint64_t size = bi.imm;
        if (mGround<M>()) {
            if (!AImm && f.rsh[bi.a]) {
                report(ReportKind::UninitValue, bp_->locs[pc]);
                return;
            }
            if (preciseCheck(addr, size, bp_->locs[pc],
                             AImm ? 0 : f.prov[bi.a]))
                return;
        }
        if (addr < kNullGuard) {
            trap(TrapKind::Segfault, bp_->locs[pc]);
            return;
        }
        Segment *seg = segmentFor(addr, size);
        if (!seg) {
            trap(TrapKind::Segfault, bp_->locs[pc]);
            return;
        }
        const uint64_t raw =
            loadScalar(seg->mem.data() + (addr - seg->base), size);
        uint8_t sh = 0;
        if (mShadow<M>()) {
            for (uint64_t i = 0; i < size; i++)
                sh |= seg->msh[addr - seg->base + i];
        }
        f.regs[bi.dst] =
            canonFast(raw, bi.bits, bi.flags & bc::kOpSigned);
        if (mShadow<M>())
            f.rsh[bi.dst] = sh;
        if (mGround<M>()) {
            f.prov[bi.dst] = 0;
            if (size == 8) {
                auto it = memProv_.find(addr);
                if (it != memProv_.end() && bi.dst)
                    f.prov[bi.dst] = it->second;
            }
        }
    }

    template <Mode M, bool AImm, bool BImm>
    [[gnu::always_inline]] void
    fastStore(const bc::BInst &bi, BFrame &f, uint32_t pc)
    {
        const uint64_t addr = AImm ? bi.x : f.regs[bi.a];
        const uint64_t size = bi.imm;
        if (mGround<M>()) {
            if (!AImm && f.rsh[bi.a]) {
                report(ReportKind::UninitValue, bp_->locs[pc]);
                return;
            }
            if (preciseCheck(addr, size, bp_->locs[pc],
                             AImm ? 0 : f.prov[bi.a]))
                return;
        }
        if (addr < kNullGuard) {
            trap(TrapKind::Segfault, bp_->locs[pc]);
            return;
        }
        Segment *seg = segmentFor(addr, size);
        if (!seg) {
            trap(TrapKind::Segfault, bp_->locs[pc]);
            return;
        }
        uint64_t v = BImm ? bi.y : f.regs[bi.b];
        if (seg == &stack_)
            noteStackWrite(addr + size);
        storeScalar(seg->mem.data() + (addr - seg->base), v, size);
        if (mShadow<M>())
            setMsanShadow(addr, size, BImm ? 0 : f.rsh[bi.b]);
        if (mGround<M>()) {
            uint64_t p = BImm ? 0 : f.prov[bi.b];
            if (p && size == 8)
                memProv_[addr] = p;
            else
                memProv_.erase(addr);
        }
    }

    template <Mode M>
    void
    fastMemCopy(const bc::BInst &bi, BFrame &f, uint32_t pc)
    {
        const bool aImm = bi.flags & bc::kOpAImm;
        const bool bImm = bi.flags & bc::kOpBImm;
        const uint64_t dst = aImm ? bi.x : f.regs[bi.a];
        const uint64_t src = bImm ? bi.y : f.regs[bi.b];
        const uint64_t size = bi.imm;
        if (mGround<M>()) {
            if (preciseCheck(src, size, bp_->locs[pc],
                             bImm ? 0 : f.prov[bi.b]) ||
                preciseCheck(dst, size, bp_->locs[pc],
                             aImm ? 0 : f.prov[bi.a]))
                return;
        }
        if (dst < kNullGuard || src < kNullGuard) {
            trap(TrapKind::Segfault, bp_->locs[pc]);
            return;
        }
        Segment *sseg = segmentFor(src, size);
        Segment *dseg = segmentFor(dst, size);
        if (!sseg || !dseg) {
            trap(TrapKind::Segfault, bp_->locs[pc]);
            return;
        }
        if (dseg == &stack_)
            noteStackWrite(dst + size);
        std::memmove(dseg->mem.data() + (dst - dseg->base),
                     sseg->mem.data() + (src - sseg->base), size);
        if (mShadow<M>()) {
            std::memmove(dseg->msh.data() + (dst - dseg->base),
                         sseg->msh.data() + (src - sseg->base), size);
        }
        if (mGround<M>()) {
            memProv_.erase(memProv_.lower_bound(dst),
                           memProv_.lower_bound(dst + size));
            std::vector<std::pair<uint64_t, uint64_t>> moved;
            for (auto it = memProv_.lower_bound(src);
                 it != memProv_.end() && it->first < src + size; ++it)
                moved.emplace_back(it->first - src + dst, it->second);
            for (const auto &[a, p] : moved)
                memProv_[a] = p;
        }
    }

    /**
     * The dispatch loop proper: computed goto (labels-as-values, a GCC
     * and Clang extension), i.e. direct threading. The label table is
     * generated from the same X-macro as the BOp enum, so the orders
     * cannot drift apart.
     */
    template <Mode M>
    void
    execProgram()
    {
        const bc::Program &p = *bp_;
        const bc::BInst *const code = p.code.data();
        const SourceLoc *const locs = p.locs.data();
        const uint64_t limit = opts_.stepLimit;
        uint64_t steps = 0;
        uint32_t curLocPc = kNoLocPc;
        uint32_t pc = 0;
        BFrame *f = nullptr;
        const bc::BInst *bi = nullptr;

        if (!bcPushFrame<M>(static_cast<uint32_t>(p.mainIndex), 0, 0,
                            ScalarKind::S32, 0, kNoLocPc)) {
            result_.steps = steps;
            return;
        }
        pc = p.functions[p.mainIndex].entryPc;
        f = &bframes_[bframeTop_ - 1];

// Generic-shape operand fetch (cold opcodes only).
#define VM_A() ((bi->flags & bc::kOpAImm) ? bi->x : f->regs[bi->a])
#define VM_B() ((bi->flags & bc::kOpBImm) ? bi->y : f->regs[bi->b])
#define VM_C() ((bi->flags & bc::kOpCImm) ? bi->imm : f->regs[bi->c])

        static const void *const tbl[] = {
#define UBFUZZ_BC_LABEL(name) &&H_##name,
            UBFUZZ_BC_OPS(UBFUZZ_BC_LABEL)
#undef UBFUZZ_BC_LABEL
        };
#define VM_CASE(name) H_##name
// Every handler ends with its own copy of the step preamble and
// indirect jump in the source. The compiled loop does not keep them
// apart: GCC 12 at -O2 cross-jumps the identical tails, so each mode's
// execProgram has 3-4 indirect jumps, not one per handler (objdump of
// the RelWithDebInfo build). -fno-crossjumping on this file restores
// 51 indirect jumps per mode without a measurable speedup in
// bench_exec's ns/step, so the build does not pass it.
#define VM_NEXT()                                                      \
    do {                                                               \
        if (done_)                                                     \
            goto vm_out;                                               \
        if (steps >= limit) {                                          \
            result_.kind = ExecResult::Kind::Timeout;                  \
            goto vm_out;                                               \
        }                                                              \
        bi = &code[pc];                                                \
        steps++;                                                       \
        if (bi->flags & bc::kOpLocValid)                               \
            curLocPc = pc;                                             \
        if (mTrace<M>())                                               \
            recordTrace(locs[pc]);                                     \
        if (mFault<M>() && steps == opts_.fault->step)                 \
            applyFault(f->regs, f->objIds,                             \
                       bp_->functions[f->fnIdx].frame);                \
        goto *tbl[static_cast<size_t>(bi->op)];                        \
    } while (0)
        VM_NEXT();

        VM_CASE(Nop) : { pc++; }
        VM_NEXT();

        VM_CASE(ConstK) : {
            f->regs[bi->dst] = bi->x;
            if (mShadow<M>())
                f->rsh[bi->dst] = 0;
            if (mGround<M>())
                f->prov[bi->dst] = 0;
            pc++;
        }
        VM_NEXT();

        VM_CASE(CastR) : {
            const uint64_t pr = mGround<M>() ? f->prov[bi->a] : 0;
            const uint8_t sh = mShadow<M>() ? f->rsh[bi->a] : 0;
            f->regs[bi->dst] = canonFast(f->regs[bi->a], bi->bits,
                                         bi->flags & bc::kOpSigned);
            if (mShadow<M>())
                f->rsh[bi->dst] = sh;
            if (mGround<M>())
                f->prov[bi->dst] = bi->dst ? pr : 0;
            pc++;
        }
        VM_NEXT();

        VM_CASE(CastI) : {
            f->regs[bi->dst] =
                canonFast(bi->x, bi->bits, bi->flags & bc::kOpSigned);
            if (mShadow<M>())
                f->rsh[bi->dst] = 0;
            if (mGround<M>())
                f->prov[bi->dst] = 0;
            pc++;
        }
        VM_NEXT();

        VM_CASE(Select) : {
            const bool cImm = bi->flags & bc::kOpCImm;
            const uint64_t cv = cImm ? bi->imm : f->regs[bi->c];
            const uint8_t cSh =
                (mShadow<M>() && !cImm) ? f->rsh[bi->c] : 0;
            const bool cond = cv != 0;
            const bool pickImm =
                cond ? (bi->flags & bc::kOpAImm) != 0
                     : (bi->flags & bc::kOpBImm) != 0;
            const uint32_t pickReg = cond ? bi->a : bi->b;
            const uint64_t v =
                pickImm ? (cond ? bi->x : bi->y) : f->regs[pickReg];
            const uint8_t sh =
                (mShadow<M>() && !pickImm) ? f->rsh[pickReg] : 0;
            const uint64_t pr =
                (mGround<M>() && !pickImm) ? f->prov[pickReg] : 0;
            f->regs[bi->dst] =
                canonFast(v, bi->bits, bi->flags & bc::kOpSigned);
            if (mShadow<M>())
                f->rsh[bi->dst] = static_cast<uint8_t>(sh | cSh);
            if (mGround<M>())
                f->prov[bi->dst] = bi->dst ? pr : 0;
            pc++;
        }
        VM_NEXT();

        VM_CASE(BinRR) : {
            fastBin<M, false, false>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(BinRI) : {
            fastBin<M, false, true>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(BinIR) : {
            fastBin<M, true, false>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(BinII) : {
            fastBin<M, true, true>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();

        VM_CASE(FrameAddr) : {
            const uint64_t id = f->objIds[bi->t0];
            f->regs[bi->dst] = objects_[id - 1].base;
            if (mShadow<M>())
                f->rsh[bi->dst] = 0;
            if (mGround<M>())
                f->prov[bi->dst] = bi->dst ? id : 0;
            pc++;
        }
        VM_NEXT();

        VM_CASE(GlobalAddr) : {
            f->regs[bi->dst] = globalAddrs_[bi->t0];
            if (mShadow<M>())
                f->rsh[bi->dst] = 0;
            if (mGround<M>())
                f->prov[bi->dst] = bi->dst ? globalObjIds_[bi->t0] : 0;
            pc++;
        }
        VM_NEXT();

        VM_CASE(GepRR) : {
            fastGep<M, false, false>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(GepRI) : {
            fastGep<M, false, true>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(GepIR) : {
            fastGep<M, true, false>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(GepII) : {
            fastGep<M, true, true>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();

        VM_CASE(LoadR) : {
            fastLoad<M, false>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(LoadI) : {
            fastLoad<M, true>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();

        VM_CASE(StoreRR) : {
            fastStore<M, false, false>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(StoreRI) : {
            fastStore<M, false, true>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(StoreIR) : {
            fastStore<M, true, false>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();
        VM_CASE(StoreII) : {
            fastStore<M, true, true>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();

        VM_CASE(MemCopy) : {
            fastMemCopy<M>(*bi, *f, pc);
            pc++;
        }
        VM_NEXT();

        VM_CASE(Br) : { pc = bi->t0; }
        VM_NEXT();

        VM_CASE(CondBrR) : {
            if (mGround<M>() && f->rsh[bi->a]) {
                report(ReportKind::UninitValue, locs[pc]);
                VM_NEXT();
            }
            pc = f->regs[bi->a] != 0 ? bi->t0 : bi->t1;
        }
        VM_NEXT();

        VM_CASE(CondBrI) : { pc = bi->x != 0 ? bi->t0 : bi->t1; }
        VM_NEXT();

        VM_CASE(RetVoid) : {
            pc = bcPopFrame<M>(0, 0, 0);
            if (bframeTop_)
                f = &bframes_[bframeTop_ - 1];
        }
        VM_NEXT();

        VM_CASE(RetR) : {
            const uint64_t rv = f->regs[bi->a];
            const uint8_t sh = mShadow<M>() ? f->rsh[bi->a] : 0;
            const uint64_t pr = mGround<M>() ? f->prov[bi->a] : 0;
            pc = bcPopFrame<M>(rv, sh, pr);
            if (bframeTop_)
                f = &bframes_[bframeTop_ - 1];
        }
        VM_NEXT();

        VM_CASE(RetI) : {
            pc = bcPopFrame<M>(bi->x, 0, 0);
            if (bframeTop_)
                f = &bframes_[bframeTop_ - 1];
        }
        VM_NEXT();

        VM_CASE(Call) : {
            const uint32_t n = bi->t1;
            scratchArgs_.clear();
            scratchSh_.clear();
            scratchProv_.clear();
            const bc::BArg *args = bp_->argPool.data() + bi->t0;
            for (uint32_t i = 0; i < n; i++) {
                const bc::BArg &arg = args[i];
                if (arg.isImm) {
                    scratchArgs_.push_back(arg.imm);
                    scratchSh_.push_back(0);
                    scratchProv_.push_back(0);
                } else {
                    scratchArgs_.push_back(f->regs[arg.reg]);
                    scratchSh_.push_back(mShadow<M>() ? f->rsh[arg.reg]
                                                      : 0);
                    scratchProv_.push_back(
                        mGround<M>() ? f->prov[arg.reg] : 0);
                }
            }
            if (bcPushFrame<M>(bi->a, n, bi->dst, bi->kind, pc + 1,
                               curLocPc)) {
                f = &bframes_[bframeTop_ - 1];
                pc = bp_->functions[bi->a].entryPc;
            }
        }
        VM_NEXT();

        VM_CASE(Malloc) : {
            const uint64_t size = std::max<uint64_t>(VM_A(), 1);
            const uint32_t rz = bp_->asanHeap ? kHeapRedzone : 0;
            uint64_t off = heap_.mem.size();
            off = (off + 15) / 16 * 16;
            const uint64_t total = rz + size + rz;
            if (off + total > kHeapCapacity) {
                trap(TrapKind::OutOfMemory, locs[pc]);
                VM_NEXT();
            }
            heap_.grow(off + total);
            const uint64_t base = kHeapBase + off + rz;
            const uint64_t id =
                registerObject(base, size, ObjectKind::Heap, 0);
            if (mShadow<M>())
                setMsanShadow(base, size, 1);
            if (rz) {
                setPoison(base - rz, rz, kPoisonHeapRz);
                setPoison(base + size, rz, kPoisonHeapRz);
            }
            if (mProfile<M>()) {
                opts_.profile->heapAllocs.push_back(
                    {id, base, size, ++opts_.profile->eventSeq, 0});
            }
            f->regs[bi->dst] = base;
            if (mShadow<M>())
                f->rsh[bi->dst] = 0;
            if (mGround<M>())
                f->prov[bi->dst] = bi->dst ? id : 0;
            pc++;
        }
        VM_NEXT();

        VM_CASE(Free) : {
            const uint64_t addr = VM_A();
            if (addr == 0) { // free(NULL) is a no-op
                pc++;
                VM_NEXT();
            }
            auto it = byBase_.find(addr);
            Object *obj =
                it == byBase_.end() ? nullptr : objectById(it->second);
            if (!obj || obj->kind != ObjectKind::Heap ||
                obj->state != ObjectState::Live) {
                trap(TrapKind::InvalidFree, locs[pc]);
                VM_NEXT();
            }
            obj->state = ObjectState::Freed;
            if (bp_->asanHeap)
                setPoison(obj->base, obj->size, kPoisonFreed);
            if (mProfile<M>()) {
                for (auto &rec : opts_.profile->heapAllocs) {
                    if (rec.objectId == obj->id && rec.freeSeq == 0)
                        rec.freeSeq = ++opts_.profile->eventSeq;
                }
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(ChecksumR) : {
            const uint64_t v = f->regs[bi->a];
            if (mGround<M>() && f->rsh[bi->a]) {
                report(ReportKind::UninitValue, locs[pc]);
                VM_NEXT();
            }
            result_.checksum = (result_.checksum ^ v) * 0x100000001b3ULL;
            pc++;
        }
        VM_NEXT();

        VM_CASE(ChecksumI) : {
            result_.checksum =
                (result_.checksum ^ bi->x) * 0x100000001b3ULL;
            pc++;
        }
        VM_NEXT();

        VM_CASE(LogVal) : {
            if (mProfile<M>()) {
                opts_.profile->values[VM_A()].push_back(
                    static_cast<int64_t>(VM_B()));
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(LogPtr) : {
            if (mProfile<M>()) {
                PtrRecord rec;
                rec.address = VM_B();
                if (Object *obj = resolveObject(rec.address)) {
                    if (rec.address < obj->base + obj->size) {
                        rec.objectId = obj->id;
                        rec.objectBase = obj->base;
                        rec.objectSize = obj->size;
                        rec.objectKind = obj->kind;
                        rec.objectState = obj->state;
                    }
                }
                opts_.profile->pointers[VM_A()].push_back(rec);
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(LogBuf) : {
            if (mProfile<M>()) {
                BufRecord rec;
                rec.address = VM_B();
                rec.size = VM_C();
                if (Object *obj = resolveObject(rec.address)) {
                    rec.objectId = obj->id;
                    rec.objectKind = obj->kind;
                }
                opts_.profile->buffers[VM_A()].push_back(rec);
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(LogScopeEnter) : {
            if (mProfile<M>()) {
                opts_.profile->scopes.push_back(
                    {VM_A(), true, ++opts_.profile->eventSeq});
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(LogScopeExit) : {
            if (mProfile<M>()) {
                opts_.profile->scopes.push_back(
                    {VM_A(), false, ++opts_.profile->eventSeq});
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(LifetimeStart) : {
            Object &obj = objects_[f->objIds[bi->t0] - 1];
            obj.state = ObjectState::Live;
            setPoison(obj.base, obj.size, kPoisonNone);
            if (mShadow<M>())
                setMsanShadow(obj.base, obj.size, 1);
            std::memset(stack_.mem.data() + (obj.base - stack_.base),
                        kFillByte, obj.size);
            pc++;
        }
        VM_NEXT();

        VM_CASE(LifetimeEnd) : {
            Object &obj = objects_[f->objIds[bi->t0] - 1];
            obj.state = ObjectState::ScopeEnded;
            if (bp_->functions[f->fnIdx].frame[bi->t0].redzone)
                setPoison(obj.base, obj.size, kPoisonScope);
            pc++;
        }
        VM_NEXT();

        VM_CASE(AsanCheck) : {
            const uint64_t addr = VM_A();
            const uint64_t size = bi->imm;
            Segment *seg = segmentFor(addr, size);
            if (seg) {
                ReportKind kind = ReportKind::None;
                for (uint64_t i = 0; i < size; i++) {
                    uint8_t codeByte = seg->poison[addr - seg->base + i];
                    if (codeByte == kPoisonNone)
                        continue;
                    switch (codeByte) {
                      case kPoisonStackRz:
                        kind = ReportKind::StackBufferOverflow;
                        break;
                      case kPoisonGlobalRz:
                        kind = ReportKind::GlobalBufferOverflow;
                        break;
                      case kPoisonHeapRz:
                        kind = ReportKind::HeapBufferOverflow;
                        break;
                      case kPoisonFreed:
                        kind = ReportKind::HeapUseAfterFree;
                        break;
                      default:
                        kind = ReportKind::StackUseAfterScope;
                        break;
                    }
                    break;
                }
                if (kind != ReportKind::None) {
                    report(kind, locs[pc]);
                    VM_NEXT();
                }
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(UbsanArith) : {
            if (!(bi->flags & bc::kOpSigned)) {
                pc++;
                VM_NEXT();
            }
            const int bits = bi->bits;
            __int128 a = static_cast<int64_t>(
                canonFast(VM_A(), bits, true));
            __int128 b = static_cast<int64_t>(
                canonFast(VM_B(), bits, true));
            __int128 r = bi->binOp == ir::BinOp::Add   ? a + b
                         : bi->binOp == ir::BinOp::Sub ? a - b
                                                       : a * b;
            __int128 lo = -(static_cast<__int128>(1) << (bits - 1));
            __int128 hi = (static_cast<__int128>(1) << (bits - 1)) - 1;
            if (r < lo || r > hi) {
                report(ReportKind::SignedIntegerOverflow, locs[pc]);
                VM_NEXT();
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(UbsanShift) : {
            const int64_t count = static_cast<int64_t>(VM_B());
            // flag = "negative counts only" (an injected check bug).
            const bool bad =
                (bi->flags & bc::kOpIrFlag)
                    ? count < 0
                    : (count < 0 ||
                       count >= static_cast<int64_t>(bi->bits));
            if (bad) {
                report(ReportKind::ShiftOutOfBounds, locs[pc]);
                VM_NEXT();
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(UbsanDiv) : {
            const bool sgn = bi->flags & bc::kOpSigned;
            const uint64_t b = VM_B();
            if (canonFast(b, bi->bits, sgn) == 0) {
                report(ReportKind::DivByZero, locs[pc]);
                VM_NEXT();
            }
            if (sgn) {
                const int bits = bi->bits;
                const int64_t minv =
                    bits >= 64 ? INT64_MIN : -(1LL << (bits - 1));
                if (static_cast<int64_t>(VM_A()) == minv &&
                    static_cast<int64_t>(canonFast(b, bits, sgn)) ==
                        -1) {
                    report(ReportKind::SignedIntegerOverflow, locs[pc]);
                    VM_NEXT();
                }
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(UbsanNull) : {
            if (VM_A() == 0) {
                report(ReportKind::NullDeref, locs[pc]);
                VM_NEXT();
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(UbsanBounds) : {
            const int64_t idx = static_cast<int64_t>(VM_A());
            if (idx < 0 || static_cast<uint64_t>(idx) >= bi->imm) {
                report(ReportKind::ArrayIndexOOB, locs[pc]);
                VM_NEXT();
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(MsanCheck) : {
            const uint8_t sh =
                (mShadow<M>() && !(bi->flags & bc::kOpAImm))
                    ? f->rsh[bi->a]
                    : 0;
            if (bp_->msan.enabled && sh) {
                report(ReportKind::UninitValue, locs[pc]);
                VM_NEXT();
            }
            pc++;
        }
        VM_NEXT();

        VM_CASE(HardenCheck) : {
            // Armed only while a fault plan is in effect (see the
            // reference interpreter's arm for why).
            if (mFault<M>() && VM_A() != VM_B()) {
                report(ReportKind::HardeningFault, locs[pc]);
                VM_NEXT();
            }
            pc++;
        }
        VM_NEXT();

    vm_out:;
        result_.steps = steps;

#undef VM_CASE
#undef VM_NEXT
#undef VM_A
#undef VM_B
#undef VM_C
    }

    /** The module of the current reference run; bound by
     *  runReference(). */
    const ir::Module *m_ = nullptr;
    /** The translation of the current bytecode run. */
    const bc::Program *bp_ = nullptr;
    /** The translation cache: shared (campaign unit) or private. */
    CodeCache *cache_ = nullptr;
    CodeCache ownCache_;
    /** Bytecode frame pool; live frames are [0, bframeTop_). */
    std::vector<BFrame> bframes_;
    size_t bframeTop_ = 0;
    /** Call-argument marshaling scratch (reused across calls). */
    std::vector<uint64_t> scratchArgs_;
    std::vector<uint8_t> scratchSh_;
    std::vector<uint64_t> scratchProv_;
    ExecOptions opts_;
    Segment globals_, stack_, heap_;
    std::vector<Object> objects_;
    /** base -> id for global and heap objects. Stack objects live in
     *  stackObjs_ instead: frame push/pop is the hottest allocation
     *  path and obeys strict LIFO, so a sorted vector replaces the
     *  per-call tree-node churn a shared map would cost. */
    std::map<uint64_t, uint64_t> byBase_;
    /** (base, id) of live stack objects, ascending by base. Pushes
     *  append (sp_ only grows within a frame chain) and pops remove a
     *  suffix, so the vector stays sorted without ever rebalancing. */
    std::vector<std::pair<uint64_t, uint64_t>> stackObjs_;
    uint64_t nextObjectId_ = 1;
    bool trackShadow_ = false;
    ExecResult result_;
    bool done_ = false;
    /** Has any nonzero poison code been written this run? While false,
     *  the poison planes are all-clear and clearing writes are no-ops. */
    bool poisonDirty_ = false;
    /** Has a run dirtied the arenas since the last reset()? */
    bool dirty_ = false;
    /** End offset of the highest stack byte written this run. */
    uint64_t stackDirty_ = 0;
    ExecStats stats_;
};

Machine::Machine(CodeCache *cache) : impl_(std::make_unique<Impl>(cache))
{
}
Machine::~Machine() = default;
Machine::Machine(Machine &&) noexcept = default;
Machine &Machine::operator=(Machine &&) noexcept = default;

ExecResult
Machine::run(const ir::Module &module, const ExecOptions &opts,
             const ir::BinaryKey *key)
{
    return impl_->run(module, opts, key);
}

ExecResult
Machine::runReference(const ir::Module &module, const ExecOptions &opts)
{
    return impl_->runReference(module, opts);
}

void
Machine::reset()
{
    impl_->reset();
}

const ExecStats &
Machine::stats() const
{
    return impl_->stats_;
}

void
Machine::noteDedupSkip()
{
    impl_->stats_.dedupSkips++;
}

ExecResult
execute(const ir::Module &module, const ExecOptions &opts)
{
    return Machine().run(module, opts);
}

} // namespace ubfuzz::vm
