#include "opt/pass.h"

#include <algorithm>

#include "ir/reg_table.h"
#include "support/coverage.h"
#include "support/diagnostics.h"

namespace ubfuzz::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Inst;
using ir::Opcode;
using ir::Value;
using ast::BinaryOp;

UBF_COV_DECLARE_FUNC(covFold, "opt.fold.run");
UBF_COV_DECLARE(covFoldBin, "opt.fold.bin");
UBF_COV_DECLARE(covFoldBranch, "opt.fold.branch");
UBF_COV_DECLARE_FUNC(covPeephole, "opt.peephole.run");
UBF_COV_DECLARE(covPeepholeReassoc, "opt.peephole.reassoc");
UBF_COV_DECLARE_FUNC(covCse, "opt.cse.run");
UBF_COV_DECLARE_FUNC(covStoreFwd, "opt.storefwd.run");
UBF_COV_DECLARE(covStoreFwdHit, "opt.storefwd.forwarded");
UBF_COV_DECLARE_FUNC(covDse, "opt.dse.run");
UBF_COV_DECLARE(covDseOverwrite, "opt.dse.overwrite");
UBF_COV_DECLARE(covDseWriteOnly, "opt.dse.write_only_object");
UBF_COV_DECLARE_FUNC(covDce, "opt.dce.run");
UBF_COV_DECLARE_FUNC(covSimplify, "opt.simplifycfg.run");
UBF_COV_DECLARE(covSimplifyUnreachable, "opt.simplifycfg.unreachable");
UBF_COV_DECLARE_FUNC(covHoist, "opt.lifetimehoist.run");

namespace {

/** Apply @p fn to every operand Value of @p inst, an instruction of
 *  @p f (whose pool holds a call's arguments). */
template <typename F>
void
forEachOperand(Function &f, Inst &inst, F &&fn)
{
    fn(inst.a);
    fn(inst.b);
    fn(inst.c);
    for (Value &v : f.argsOf(inst))
        fn(v);
}

/** Pure value-producing instructions: deletable when unused. Removing a
 *  dead Load or division also removes its potential fault — precisely
 *  the "optimizer assumes no UB" behaviour of real compilers. */
bool
isPure(const Inst &inst)
{
    switch (inst.op) {
      case Opcode::Const:
      case Opcode::Bin:
      case Opcode::Cast:
      case Opcode::Select:
      case Opcode::Gep:
      case Opcode::FrameAddr:
      case Opcode::GlobalAddr:
      case Opcode::Load:
        return true;
      default:
        return false;
    }
}

/** Erase every Nop: one compaction of the body, block ranges
 *  rewritten to match. Instructions before the first Nop stay put. */
void
sweepNops(Function &f)
{
    Inst *insts = f.insts.data();
    uint32_t w = 0;
    for (BasicBlock &bb : f.blocks) {
        const uint32_t begin = w;
        for (uint32_t r = bb.begin; r < bb.begin + bb.count; r++) {
            if (insts[r].op == Opcode::Nop)
                continue;
            if (w != r)
                insts[w] = insts[r];
            w++;
        }
        bb = {begin, w - begin};
    }
    f.insts.resize(w);
}

/** Rewrite @p inst into a no-op that just forwards @p src to its dst. */
void
makeIdentity(Inst &inst, Value src)
{
    inst.op = Opcode::Cast;
    inst.a = src;
    inst.b = Value{};
    inst.c = Value{};
    inst.argCount = 0;
    inst.flag = false;
}

void
makeConst(Inst &inst, uint64_t value)
{
    inst.op = Opcode::Const;
    inst.imm = ir::canonicalValue(value, inst.kind);
    inst.a = Value{};
    inst.b = Value{};
    inst.c = Value{};
    inst.argCount = 0;
    inst.flag = false;
}

//===--------------------------------------------------------------===//
// Constant folding
//===--------------------------------------------------------------===//

class ConstFoldPass : public Pass
{
  public:
    bool
    run(Function &f) override
    {
        UBF_COV_HIT(covFold);
        bool changed = false;
        for (const BasicBlock &bb : f.blocks) {
            consts_.reset(f.numRegs);
            for (Inst &inst : f.instsOf(bb)) {
                forEachOperand(f, inst, [&](Value &v) {
                    if (!v.isReg())
                        return;
                    if (const uint64_t *c = consts_.find(v.reg)) {
                        v = Value::makeImm(*c);
                        changed = true;
                    }
                });
                switch (inst.op) {
                  case Opcode::Const:
                    consts_.set(inst.dst,
                                ir::canonicalValue(inst.imm, inst.kind));
                    break;
                  case Opcode::Bin:
                    if (inst.a.isImm() && inst.b.isImm()) {
                        bool trapped = false;
                        uint64_t r =
                            ir::evalBinary(inst.binOp, inst.kind,
                                           inst.a.imm, inst.b.imm,
                                           trapped);
                        if (!trapped) {
                            UBF_COV_HIT(covFoldBin);
                            makeConst(inst, r);
                            consts_.set(inst.dst, inst.imm);
                            changed = true;
                        }
                    }
                    break;
                  case Opcode::Cast:
                    if (inst.a.isImm()) {
                        makeConst(inst, inst.a.imm);
                        consts_.set(inst.dst, inst.imm);
                        changed = true;
                    }
                    break;
                  case Opcode::Select:
                    if (inst.c.isImm()) {
                        Value pick = inst.c.imm ? inst.a : inst.b;
                        if (pick.isImm())
                            makeConst(inst, pick.imm);
                        else
                            makeIdentity(inst, pick);
                        changed = true;
                    }
                    break;
                  case Opcode::CondBr:
                    if (inst.a.isImm()) {
                        UBF_COV_HIT(covFoldBranch);
                        uint32_t target =
                            inst.a.imm ? inst.targets[0]
                                       : inst.targets[1];
                        inst.op = Opcode::Br;
                        inst.targets[0] = target;
                        inst.a = Value{};
                        changed = true;
                    }
                    break;
                  default:
                    break;
                }
            }
        }
        return changed;
    }

  private:
    /** Register -> its constant value, within the current block. */
    ir::RegTable<uint64_t> consts_;
};

//===--------------------------------------------------------------===//
// Peephole / instcombine
//===--------------------------------------------------------------===//

class PeepholePass : public Pass
{
  public:
    explicit PeepholePass(Vendor vendor) : vendor_(vendor) {}

    bool
    run(Function &f) override
    {
        UBF_COV_HIT(covPeephole);
        bool changed = false;
        for (const BasicBlock &bb : f.blocks) {
            defs_.reset(f.numRegs);
            for (uint32_t i = bb.begin; i < bb.begin + bb.count; i++) {
                Inst &inst = f.insts[i];
                if (inst.op == Opcode::Bin)
                    changed |= simplifyBin(f, inst);
                if (inst.dst)
                    defs_.set(inst.dst, i);
            }
        }
        return changed;
    }

  private:
    static bool isImmVal(const Value &v, uint64_t x)
    {
        return v.isImm() && v.imm == x;
    }

    bool
    simplifyBin(const Function &f, Inst &inst)
    {
        const Value a = inst.a, b = inst.b;
        bool llvm = vendor_ == Vendor::LLVM;
        switch (inst.binOp) {
          case BinaryOp::Mul:
            if (isImmVal(a, 0) || isImmVal(b, 0)) {
                makeConst(inst, 0);
                return true;
            }
            if (isImmVal(a, 1)) {
                makeIdentity(inst, b);
                return true;
            }
            if (isImmVal(b, 1)) {
                makeIdentity(inst, a);
                return true;
            }
            break;
          case BinaryOp::Add:
            if (isImmVal(a, 0)) {
                makeIdentity(inst, b);
                return true;
            }
            if (isImmVal(b, 0)) {
                makeIdentity(inst, a);
                return true;
            }
            // (x + c1) + c2 -> x + (c1 + c2). LLVM reassociation:
            // folding the constants can remove an intermediate signed
            // overflow, a classic UB-eliding transform.
            if (llvm && b.isImm() && a.isReg()) {
                if (const uint32_t *d = defs_.find(a.reg)) {
                    const Inst &def = f.insts[*d];
                    if (def.op == Opcode::Bin &&
                        def.binOp == BinaryOp::Add &&
                        def.kind == inst.kind && def.b.isImm()) {
                        UBF_COV_HIT(covPeepholeReassoc);
                        bool trapped = false;
                        uint64_t c = ir::evalBinary(
                            BinaryOp::Add, inst.kind, def.b.imm, b.imm,
                            trapped);
                        inst.a = def.a;
                        inst.b = Value::makeImm(c);
                        return true;
                    }
                }
            }
            break;
          case BinaryOp::Sub:
            if (isImmVal(b, 0)) {
                makeIdentity(inst, a);
                return true;
            }
            if (llvm && a.isReg() && b.isReg() && a.reg == b.reg) {
                makeConst(inst, 0);
                return true;
            }
            break;
          case BinaryOp::Div:
            if (isImmVal(b, 1)) {
                makeIdentity(inst, a);
                return true;
            }
            break;
          case BinaryOp::BitAnd:
            if (isImmVal(a, 0) || isImmVal(b, 0)) {
                makeConst(inst, 0);
                return true;
            }
            if (a.isReg() && b.isReg() && a.reg == b.reg) {
                makeIdentity(inst, a);
                return true;
            }
            break;
          case BinaryOp::BitOr:
            if (isImmVal(a, 0)) {
                makeIdentity(inst, b);
                return true;
            }
            if (isImmVal(b, 0)) {
                makeIdentity(inst, a);
                return true;
            }
            if (a.isReg() && b.isReg() && a.reg == b.reg) {
                makeIdentity(inst, a);
                return true;
            }
            break;
          case BinaryOp::BitXor:
            if (llvm && a.isReg() && b.isReg() && a.reg == b.reg) {
                makeConst(inst, 0);
                return true;
            }
            if (isImmVal(b, 0)) {
                makeIdentity(inst, a);
                return true;
            }
            break;
          case BinaryOp::Shl:
          case BinaryOp::Shr:
            if (isImmVal(b, 0)) {
                makeIdentity(inst, a);
                return true;
            }
            break;
          default:
            break;
        }
        return false;
    }

    Vendor vendor_;
    /** Register -> body index of its defining instruction, within the
     *  current block (for reassociation). */
    ir::RegTable<uint32_t> defs_;
};

//===--------------------------------------------------------------===//
// Common subexpression elimination
//===--------------------------------------------------------------===//

/**
 * The expressions one block has computed so far, each mapped to the
 * first register that holds it: a flat open-addressing table with
 * linear probing and epoch-stamped slots. reset() sizes it to a power
 * of two at least twice the block's instruction count, so the table is
 * at most half full and every probe ends.
 */
class ExprTable
{
  public:
    /** Everything an expression's value depends on. */
    struct Key
    {
        Opcode op;
        ir::ScalarKind kind;
        BinaryOp binOp;
        Value::Tag ta, tb;
        uint64_t va, vb; ///< register id or immediate, per tag
        uint64_t imm;
        uint32_t object;
        uint64_t bound;

        friend bool operator==(const Key &, const Key &) = default;
    };

    /** Forget every expression; make room for @p insts of them. */
    void
    reset(size_t insts)
    {
        size_t cap = 16;
        while (cap < 2 * insts)
            cap *= 2;
        if (slots_.size() < cap)
            slots_.resize(cap);
        mask_ = cap - 1;
        if (++epoch_ == 0) {
            for (Slot &s : slots_)
                s.stamp = 0;
            epoch_ = 1;
        }
    }

    /** The register that already holds @p key, or nullptr after
     *  recording that @p dst does: the first definition wins. */
    const uint32_t *
    insert(const Key &key, uint32_t dst)
    {
        for (size_t i = hash(key) & mask_;; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.stamp != epoch_) {
                s = {epoch_, key, dst};
                return nullptr;
            }
            if (s.key == key)
                return &s.reg;
        }
    }

  private:
    struct Slot
    {
        uint32_t stamp = 0;
        Key key{};
        uint32_t reg = 0;
    };

    static size_t
    hash(const Key &k)
    {
        uint64_t h = static_cast<uint64_t>(k.op) |
                     static_cast<uint64_t>(k.kind) << 8 |
                     static_cast<uint64_t>(k.binOp) << 16 |
                     static_cast<uint64_t>(k.ta) << 24 |
                     static_cast<uint64_t>(k.tb) << 32;
        for (uint64_t w : {k.va, k.vb, k.imm, uint64_t{k.object}, k.bound}) {
            h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
            h ^= h >> 32;
        }
        return static_cast<size_t>(h);
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    /** Never 0, so a fresh slot (stamp 0) is always empty. */
    uint32_t epoch_ = 1;
};

class CSEPass : public Pass
{
  public:
    bool
    run(Function &f) override
    {
        UBF_COV_HIT(covCse);
        bool changed = false;
        for (const BasicBlock &bb : f.blocks) {
            seen_.reset(bb.count);
            alias_.reset(f.numRegs);
            for (Inst &inst : f.instsOf(bb)) {
                forEachOperand(f, inst, [&](Value &v) {
                    if (!v.isReg())
                        return;
                    if (const uint32_t *to = alias_.find(v.reg))
                        v.reg = *to;
                });
                switch (inst.op) {
                  case Opcode::Const:
                  case Opcode::Bin:
                  case Opcode::Cast:
                  case Opcode::Gep:
                  case Opcode::FrameAddr:
                  case Opcode::GlobalAddr:
                    break;
                  default:
                    continue;
                }
                auto payload = [](const Value &v) -> uint64_t {
                    return v.isReg() ? v.reg : v.imm;
                };
                ExprTable::Key key{inst.op, inst.kind, inst.binOp,
                                   inst.a.tag, inst.b.tag,
                                   payload(inst.a), payload(inst.b),
                                   inst.imm, inst.object, inst.bound};
                if (const uint32_t *first = seen_.insert(key, inst.dst)) {
                    // Forward in-block uses directly; keep the dst
                    // defined via an identity (uses in later blocks
                    // may exist), and let DCE clean it up.
                    alias_.set(inst.dst, *first);
                    makeIdentity(inst, Value::makeReg(*first));
                    changed = true;
                }
            }
        }
        sweepNops(f);
        return changed;
    }

  private:
    ExprTable seen_;
    /** Register -> the earlier register computing the same value. */
    ir::RegTable<uint32_t> alias_;
};

//===--------------------------------------------------------------===//
// Memory: store forwarding, redundant load elim, dead store elim
//===--------------------------------------------------------------===//

/** A statically-resolved address: object + constant byte offset. */
struct AddrKey
{
    enum class Space : uint8_t { Frame, Global, Unknown } space =
        Space::Unknown;
    uint32_t object = 0;
    int64_t offset = 0;

    bool resolved() const { return space != Space::Unknown; }

    bool
    sameObject(const AddrKey &o) const
    {
        return space == o.space && object == o.object;
    }
};

/** Resolve register address chains within one block; reset() at
 *  every block start. */
class AddrResolver
{
  public:
    void reset(uint32_t numRegs) { map_.reset(numRegs); }

    void
    note(const Inst &inst)
    {
        if (!inst.dst)
            return;
        switch (inst.op) {
          case Opcode::FrameAddr:
            map_.set(inst.dst, {AddrKey::Space::Frame, inst.object, 0});
            break;
          case Opcode::GlobalAddr:
            map_.set(inst.dst, {AddrKey::Space::Global, inst.object, 0});
            break;
          case Opcode::Gep: {
            AddrKey base = resolve(inst.a);
            if (base.resolved() && inst.b.isImm()) {
                base.offset += static_cast<int64_t>(inst.b.imm) *
                               static_cast<int64_t>(inst.imm);
                map_.set(inst.dst, base);
            }
            break;
          }
          case Opcode::Cast:
            if (inst.a.isReg()) {
                if (const AddrKey *k = map_.find(inst.a.reg))
                    map_.set(inst.dst, *k);
            }
            break;
          default:
            break;
        }
    }

    AddrKey
    resolve(const Value &v) const
    {
        if (!v.isReg())
            return {};
        const AddrKey *k = map_.find(v.reg);
        return k ? *k : AddrKey{};
    }

  private:
    ir::RegTable<AddrKey> map_;
};

bool
rangesOverlap(int64_t a, uint64_t asz, int64_t b, uint64_t bsz)
{
    return a < b + static_cast<int64_t>(bsz) &&
           b < a + static_cast<int64_t>(asz);
}

class StoreForwardPass : public Pass
{
  public:
    bool
    run(Function &f) override
    {
        UBF_COV_HIT(covStoreFwd);
        bool changed = false;
        for (const BasicBlock &bb : f.blocks) {
            resolver_.reset(f.numRegs);
            entries_.clear();
            auto clobberAll = [&] { entries_.clear(); };
            auto clobberOverlap = [&](const AddrKey &k, uint64_t size) {
                entries_.erase(
                    std::remove_if(entries_.begin(), entries_.end(),
                                   [&](const Entry &e) {
                                       return e.key.sameObject(k) &&
                                              rangesOverlap(e.key.offset,
                                                            e.size,
                                                            k.offset,
                                                            size);
                                   }),
                    entries_.end());
            };
            for (Inst &inst : f.instsOf(bb)) {
                resolver_.note(inst);
                switch (inst.op) {
                  case Opcode::Store: {
                    AddrKey key = resolver_.resolve(inst.a);
                    if (!key.resolved()) {
                        clobberAll();
                        break;
                    }
                    clobberOverlap(key, inst.imm);
                    entries_.push_back({key, inst.imm, inst.b, 0});
                    break;
                  }
                  case Opcode::Load: {
                    AddrKey key = resolver_.resolve(inst.a);
                    if (!key.resolved())
                        break;
                    bool forwarded = false;
                    for (Entry &e : entries_) {
                        if (!e.key.sameObject(key) ||
                            e.key.offset != key.offset ||
                            e.size != inst.imm)
                            continue;
                        if (!e.value.isNone()) {
                            makeIdentity(inst, e.value);
                        } else if (e.loadedInto) {
                            makeIdentity(
                                inst, Value::makeReg(e.loadedInto));
                        } else {
                            continue;
                        }
                        UBF_COV_HIT(covStoreFwdHit);
                        changed = true;
                        forwarded = true;
                        break;
                    }
                    if (!forwarded) {
                        Entry e;
                        e.key = key;
                        e.size = inst.imm;
                        e.loadedInto = inst.dst;
                        entries_.push_back(e);
                    }
                    break;
                  }
                  case Opcode::Call:
                  case Opcode::Malloc:
                  case Opcode::Free:
                  case Opcode::MemCopy:
                    clobberAll();
                    break;
                  case Opcode::LifetimeStart:
                  case Opcode::LifetimeEnd: {
                    AddrKey k{AddrKey::Space::Frame, inst.object, 0};
                    entries_.erase(
                        std::remove_if(entries_.begin(), entries_.end(),
                                       [&](const Entry &e) {
                                           return e.key.sameObject(k);
                                       }),
                        entries_.end());
                    break;
                  }
                  default:
                    break;
                }
            }
        }
        return changed;
    }

  private:
    struct Entry
    {
        AddrKey key;
        uint64_t size;
        Value value;  ///< from a Store
        uint32_t loadedInto = 0; ///< from a previous Load
    };

    AddrResolver resolver_;
    /** What the current block knows about memory so far. */
    std::vector<Entry> entries_;
};

class DSEPass : public Pass
{
  public:
    bool
    run(Function &f) override
    {
        UBF_COV_HIT(covDse);
        bool changed = false;
        changed |= overwriteDSE(f);
        changed |= writeOnlyObjectDSE(f);
        sweepNops(f);
        return changed;
    }

  private:
    bool
    overwriteDSE(Function &f)
    {
        bool changed = false;
        for (const BasicBlock &bb : f.blocks) {
            const std::span<Inst> body = f.instsOf(bb);
            resolver_.reset(f.numRegs);
            for (const Inst &inst : body)
                resolver_.note(inst);
            for (size_t i = 0; i < body.size(); i++) {
                Inst &st = body[i];
                if (st.op != Opcode::Store)
                    continue;
                AddrKey key = resolver_.resolve(st.a);
                if (!key.resolved())
                    continue;
                for (size_t j = i + 1; j < body.size(); j++) {
                    const Inst &nx = body[j];
                    if (nx.op == Opcode::Store) {
                        AddrKey k2 = resolver_.resolve(nx.a);
                        if (k2.resolved() &&
                            k2.sameObject(key) &&
                            k2.offset == key.offset &&
                            nx.imm == st.imm) {
                            UBF_COV_HIT(covDseOverwrite);
                            st.op = Opcode::Nop;
                            changed = true;
                            break;
                        }
                        if (!k2.resolved())
                            break; // may alias: keep
                        if (k2.sameObject(key) &&
                            rangesOverlap(k2.offset, nx.imm, key.offset,
                                          st.imm))
                            break; // partial overlap: keep
                        continue;
                    }
                    if (nx.op == Opcode::Load) {
                        AddrKey k2 = resolver_.resolve(nx.a);
                        if (!k2.resolved() ||
                            (k2.sameObject(key) &&
                             rangesOverlap(k2.offset, nx.imm, key.offset,
                                           st.imm)))
                            break; // potential read
                        continue;
                    }
                    if (nx.op == Opcode::Call ||
                        nx.op == Opcode::MemCopy ||
                        nx.op == Opcode::Free ||
                        nx.isTerminator())
                        break;
                }
            }
        }
        return changed;
    }

    /** The frame object @p v's address chain roots at in the current
     *  block, or -1. */
    int64_t
    rootOf(const Value &v) const
    {
        if (!v.isReg())
            return -1;
        const uint32_t *r = root_.find(v.reg);
        return r ? static_cast<int64_t>(*r) : int64_t{-1};
    }

    /** Record where @p inst's destination roots: a FrameAddr at its
     *  object, a Gep or Cast wherever its address operand does. */
    void
    noteRoot(const Inst &inst)
    {
        if (inst.op == Opcode::FrameAddr) {
            root_.set(inst.dst, inst.object);
        } else if (inst.op == Opcode::Gep || inst.op == Opcode::Cast) {
            if (int64_t r = rootOf(inst.a); r >= 0)
                root_.set(inst.dst, static_cast<uint32_t>(r));
        }
    }

    /**
     * Delete stores into frame objects whose address never escapes and
     * that are never read. This is the transform of Figure 3: a dead
     * out-of-bounds store disappears at -O2 before the sanitizer pass
     * ever sees it.
     */
    bool
    writeOnlyObjectDSE(Function &f)
    {
        escaped_.assign(f.frame.size(), 0);
        loaded_.assign(f.frame.size(), 0);
        // Root each register at a frame object where possible.
        // Registers are block-local, so a per-block table suffices.
        for (const BasicBlock &bb : f.blocks) {
            root_.reset(f.numRegs);
            for (Inst &inst : f.instsOf(bb)) {
                switch (inst.op) {
                  case Opcode::FrameAddr:
                  case Opcode::Gep:
                  case Opcode::Cast:
                    noteRoot(inst);
                    break;
                  case Opcode::Load:
                    if (int64_t r = rootOf(inst.a); r >= 0)
                        loaded_[static_cast<size_t>(r)] = 1;
                    break;
                  case Opcode::Store:
                    // Storing a rooted address escapes the object.
                    if (int64_t r = rootOf(inst.b); r >= 0)
                        escaped_[static_cast<size_t>(r)] = 1;
                    break;
                  case Opcode::MemCopy:
                    if (int64_t r = rootOf(inst.a); r >= 0)
                        loaded_[static_cast<size_t>(r)] = 1;
                    if (int64_t r = rootOf(inst.b); r >= 0)
                        loaded_[static_cast<size_t>(r)] = 1;
                    break;
                  case Opcode::AsanCheck:
                  case Opcode::LifetimeStart:
                  case Opcode::LifetimeEnd:
                    break; // not reads
                  default: {
                    // Any other use of a rooted register (call args,
                    // returns, arithmetic, logging) escapes the object.
                    forEachOperand(f, inst, [&](Value &v) {
                        if (int64_t r = rootOf(v); r >= 0)
                            escaped_[static_cast<size_t>(r)] = 1;
                    });
                    break;
                  }
                }
            }
        }
        bool changed = false;
        for (const BasicBlock &bb : f.blocks) {
            root_.reset(f.numRegs);
            for (Inst &inst : f.instsOf(bb)) {
                if (inst.op == Opcode::Store) {
                    int64_t r = rootOf(inst.a);
                    if (r >= 0 && !escaped_[static_cast<size_t>(r)] &&
                        !loaded_[static_cast<size_t>(r)]) {
                        UBF_COV_HIT(covDseWriteOnly);
                        inst.op = Opcode::Nop;
                        changed = true;
                    }
                } else {
                    noteRoot(inst);
                }
            }
        }
        return changed;
    }

    AddrResolver resolver_;
    /** Register -> the frame object its address chain roots at. */
    ir::RegTable<uint32_t> root_;
    /** Per frame object of the current function. */
    std::vector<uint8_t> escaped_, loaded_;
};

//===--------------------------------------------------------------===//
// Dead code elimination
//===--------------------------------------------------------------===//

class DCEPass : public Pass
{
  public:
    bool
    run(Function &f) override
    {
        UBF_COV_HIT(covDce);
        bool changed = false;
        // Values may cross blocks (short-circuit/ternary lowering), so
        // use counts are function-scoped.
        uses_.reset(f.numRegs);
        for (Inst &inst : f.insts) {
            forEachOperand(f, inst, [&](Value &v) {
                if (v.isReg())
                    uses_.at(v.reg)++;
            });
        }
        // The body holds the blocks in order, so one backward walk
        // visits the last block first, each block back to front.
        for (auto it = f.insts.rbegin(); it != f.insts.rend(); ++it) {
            Inst &inst = *it;
            if (!isPure(inst) || !inst.dst || uses_.at(inst.dst) > 0)
                continue;
            forEachOperand(f, inst, [&](Value &v) {
                if (v.isReg())
                    uses_.at(v.reg)--;
            });
            inst.op = Opcode::Nop;
            inst.dst = 0;
            inst.a = inst.b = inst.c = Value{};
            changed = true;
        }
        sweepNops(f);
        return changed;
    }

  private:
    /** Register -> remaining uses in the current function. */
    ir::RegTable<int> uses_;
};

//===--------------------------------------------------------------===//
// CFG simplification
//===--------------------------------------------------------------===//

class SimplifyCFGPass : public Pass
{
  public:
    bool
    run(Function &f) override
    {
        UBF_COV_HIT(covSimplify);
        bool changed = false;
        // Constant branches were already folded to Br by constfold;
        // thread trivial jump chains.
        const uint32_t n = static_cast<uint32_t>(f.blocks.size());
        auto finalTarget = [&](uint32_t t) {
            visited_.reset(n);
            while (!visited_.contains(t)) {
                visited_.set(t, true);
                const std::span<const Inst> body = f.instsOf(f.blocks[t]);
                if (body.size() == 1 && body[0].op == Opcode::Br)
                    t = body[0].targets[0];
                else
                    break;
            }
            return t;
        };
        for (const BasicBlock &bb : f.blocks) {
            Inst &term = f.instsOf(bb).back();
            if (term.op == Opcode::Br) {
                uint32_t t = finalTarget(term.targets[0]);
                if (t != term.targets[0]) {
                    term.targets[0] = t;
                    changed = true;
                }
            } else if (term.op == Opcode::CondBr) {
                for (int k = 0; k < 2; k++) {
                    uint32_t t = finalTarget(term.targets[k]);
                    if (t != term.targets[k]) {
                        term.targets[k] = t;
                        changed = true;
                    }
                }
                if (term.targets[0] == term.targets[1]) {
                    term.op = Opcode::Br;
                    term.a = Value{};
                    changed = true;
                }
            }
        }
        // Prune unreachable blocks: their bodies are replaced with a
        // bare return, which deletes any UB they contained.
        reachable_.assign(n, 0);
        work_.assign(1, 0);
        reachable_[0] = 1;
        while (!work_.empty()) {
            uint32_t b = work_.back();
            work_.pop_back();
            const Inst &term = f.instsOf(f.blocks[b]).back();
            for (int k = 0; k < 2; k++) {
                bool has = (term.op == Opcode::Br && k == 0) ||
                           term.op == Opcode::CondBr;
                if (has && !reachable_[term.targets[k]]) {
                    reachable_[term.targets[k]] = 1;
                    work_.push_back(term.targets[k]);
                }
            }
        }
        // One compaction of the body: a pruned block shrinks to its
        // return, every later block moves down.
        uint32_t w = 0;
        for (size_t b = 0; b < n; b++) {
            BasicBlock &bb = f.blocks[b];
            const uint32_t begin = w;
            if (reachable_[b] || bb.count == 1) {
                if (w != bb.begin)
                    std::copy(f.insts.begin() + bb.begin,
                              f.insts.begin() + bb.begin + bb.count,
                              f.insts.begin() + w);
                w += bb.count;
            } else {
                UBF_COV_HIT(covSimplifyUnreachable);
                Inst ret;
                ret.op = Opcode::Ret;
                if (f.retKind != ir::ScalarKind::Void)
                    ret.a = Value::makeImm(0);
                f.insts[w++] = ret;
                changed = true;
            }
            bb = {begin, w - begin};
        }
        f.insts.resize(w);
        return changed;
    }

  private:
    /** Blocks one jump-chain walk has passed through. */
    ir::RegTable<bool> visited_;
    std::vector<uint8_t> reachable_;
    std::vector<uint32_t> work_;
};

//===--------------------------------------------------------------===//
// Lifetime hoisting (GCC -O3)
//===--------------------------------------------------------------===//

class LifetimeHoistPass : public Pass
{
  public:
    bool
    run(Function &f) override
    {
        UBF_COV_HIT(covHoist);
        const std::vector<uint8_t> &cyclic = cycles_.cyclicBlocks(f);
        // Small loop-scoped objects get hoisted to function scope:
        // delete their lifetime markers everywhere.
        hoisted_.assign(f.frame.size(), 0);
        bool any = false;
        for (size_t b = 0; b < f.blocks.size(); b++) {
            if (!cyclic[b])
                continue;
            for (const Inst &inst : f.instsOf(f.blocks[b])) {
                if ((inst.op == Opcode::LifetimeStart ||
                     inst.op == Opcode::LifetimeEnd) &&
                    f.frame[inst.object].size <= 8) {
                    hoisted_[inst.object] = 1;
                    any = true;
                }
            }
        }
        if (!any)
            return false;
        for (Inst &inst : f.insts) {
            if ((inst.op == Opcode::LifetimeStart ||
                 inst.op == Opcode::LifetimeEnd) &&
                hoisted_[inst.object])
                inst.op = Opcode::Nop;
        }
        sweepNops(f);
        return true;
    }

  private:
    ir::CycleFinder cycles_;
    /** Per frame object: are its lifetime markers deleted? */
    std::vector<uint8_t> hoisted_;
};

} // namespace

std::unique_ptr<Pass>
createPass(PassKind kind)
{
    switch (kind) {
      case PassKind::ConstFold:
        return std::make_unique<ConstFoldPass>();
      case PassKind::PeepholeGCC:
        return std::make_unique<PeepholePass>(Vendor::GCC);
      case PassKind::PeepholeLLVM:
        return std::make_unique<PeepholePass>(Vendor::LLVM);
      case PassKind::CSE:
        return std::make_unique<CSEPass>();
      case PassKind::StoreForward:
        return std::make_unique<StoreForwardPass>();
      case PassKind::DSE:
        return std::make_unique<DSEPass>();
      case PassKind::DCE:
        return std::make_unique<DCEPass>();
      case PassKind::SimplifyCFG:
        return std::make_unique<SimplifyCFGPass>();
      case PassKind::LifetimeHoist:
        return std::make_unique<LifetimeHoistPass>();
    }
    UBF_PANIC("unknown pass kind ", static_cast<int>(kind));
}

} // namespace ubfuzz::opt
