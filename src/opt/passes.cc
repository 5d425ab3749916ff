#include "opt/pass.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "support/coverage.h"
#include "support/diagnostics.h"

namespace ubfuzz::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Inst;
using ir::Module;
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

/** Apply @p fn to every operand Value of @p inst. */
template <typename F>
void
forEachOperand(Inst &inst, F &&fn)
{
    fn(inst.a);
    fn(inst.b);
    fn(inst.c);
    for (Value &v : inst.args)
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

void
sweepNops(Function &f)
{
    for (BasicBlock &bb : f.blocks) {
        bb.insts.erase(std::remove_if(bb.insts.begin(), bb.insts.end(),
                                      [](const Inst &i) {
                                          return i.op == Opcode::Nop;
                                      }),
                       bb.insts.end());
    }
}

/** Rewrite @p inst into a no-op that just forwards @p src to its dst. */
void
makeIdentity(Inst &inst, Value src)
{
    inst.op = Opcode::Cast;
    inst.a = src;
    inst.b = Value{};
    inst.c = Value{};
    inst.args.clear();
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
    inst.args.clear();
    inst.flag = false;
}

//===--------------------------------------------------------------===//
// Constant folding
//===--------------------------------------------------------------===//

class ConstFoldPass : public Pass
{
  public:
    bool
    run(Module &, Function &f) override
    {
        UBF_COV_HIT(covFold);
        bool changed = false;
        for (BasicBlock &bb : f.blocks) {
            std::unordered_map<uint32_t, uint64_t> consts;
            for (Inst &inst : bb.insts) {
                forEachOperand(inst, [&](Value &v) {
                    if (!v.isReg())
                        return;
                    auto it = consts.find(v.reg);
                    if (it != consts.end()) {
                        v = Value::makeImm(it->second);
                        changed = true;
                    }
                });
                switch (inst.op) {
                  case Opcode::Const:
                    consts[inst.dst] =
                        ir::canonicalValue(inst.imm, inst.kind);
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
                            consts[inst.dst] = inst.imm;
                            changed = true;
                        }
                    }
                    break;
                  case Opcode::Cast:
                    if (inst.a.isImm()) {
                        makeConst(inst, inst.a.imm);
                        consts[inst.dst] = inst.imm;
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
};

//===--------------------------------------------------------------===//
// Peephole / instcombine
//===--------------------------------------------------------------===//

class PeepholePass : public Pass
{
  public:
    explicit PeepholePass(Vendor vendor) : vendor_(vendor) {}

    bool
    run(Module &, Function &f) override
    {
        UBF_COV_HIT(covPeephole);
        bool changed = false;
        for (BasicBlock &bb : f.blocks) {
            // reg -> defining instruction index (for reassociation).
            std::unordered_map<uint32_t, size_t> defs;
            for (size_t i = 0; i < bb.insts.size(); i++) {
                Inst &inst = bb.insts[i];
                if (inst.op == Opcode::Bin)
                    changed |= simplifyBin(bb, defs, inst);
                if (inst.dst)
                    defs[inst.dst] = i;
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
    simplifyBin(BasicBlock &bb,
                const std::unordered_map<uint32_t, size_t> &defs,
                Inst &inst)
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
                auto it = defs.find(a.reg);
                if (it != defs.end()) {
                    const Inst &def = bb.insts[it->second];
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
};

//===--------------------------------------------------------------===//
// Common subexpression elimination
//===--------------------------------------------------------------===//

class CSEPass : public Pass
{
  public:
    bool
    run(Module &, Function &f) override
    {
        UBF_COV_HIT(covCse);
        bool changed = false;
        using Key = std::tuple<uint8_t, uint8_t, uint8_t, uint8_t,
                               uint64_t, uint8_t, uint64_t, uint64_t,
                               uint32_t, uint64_t>;
        for (BasicBlock &bb : f.blocks) {
            std::map<Key, uint32_t> seen;
            std::unordered_map<uint32_t, uint32_t> alias;
            for (Inst &inst : bb.insts) {
                forEachOperand(inst, [&](Value &v) {
                    if (v.isReg()) {
                        auto it = alias.find(v.reg);
                        if (it != alias.end())
                            v.reg = it->second;
                    }
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
                auto enc = [](const Value &v) {
                    return std::pair<uint8_t, uint64_t>(
                        static_cast<uint8_t>(v.tag),
                        v.isReg() ? v.reg : v.imm);
                };
                auto [ta, va] = enc(inst.a);
                auto [tb, vb] = enc(inst.b);
                Key key{static_cast<uint8_t>(inst.op),
                        static_cast<uint8_t>(inst.kind),
                        static_cast<uint8_t>(inst.binOp),
                        ta, va, tb, vb, inst.imm, inst.object,
                        inst.bound};
                auto [it, inserted] = seen.emplace(key, inst.dst);
                if (!inserted) {
                    // Forward in-block uses directly; keep the dst
                    // defined via an identity (uses in later blocks
                    // may exist), and let DCE clean it up.
                    alias[inst.dst] = it->second;
                    makeIdentity(inst, Value::makeReg(it->second));
                    changed = true;
                }
            }
        }
        sweepNops(f);
        return changed;
    }
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

/** Resolve register address chains within one block. */
class AddrResolver
{
  public:
    void
    note(const Inst &inst)
    {
        if (!inst.dst)
            return;
        switch (inst.op) {
          case Opcode::FrameAddr:
            map_[inst.dst] = {AddrKey::Space::Frame, inst.object, 0};
            break;
          case Opcode::GlobalAddr:
            map_[inst.dst] = {AddrKey::Space::Global, inst.object, 0};
            break;
          case Opcode::Gep: {
            AddrKey base = resolve(inst.a);
            if (base.resolved() && inst.b.isImm()) {
                base.offset += static_cast<int64_t>(inst.b.imm) *
                               static_cast<int64_t>(inst.imm);
                map_[inst.dst] = base;
            }
            break;
          }
          case Opcode::Cast:
            if (inst.a.isReg()) {
                auto it = map_.find(inst.a.reg);
                if (it != map_.end())
                    map_[inst.dst] = it->second;
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
        auto it = map_.find(v.reg);
        return it == map_.end() ? AddrKey{} : it->second;
    }

  private:
    std::unordered_map<uint32_t, AddrKey> map_;
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
    run(Module &, Function &f) override
    {
        UBF_COV_HIT(covStoreFwd);
        bool changed = false;
        struct Entry
        {
            AddrKey key;
            uint64_t size;
            Value value;  ///< from a Store
            uint32_t loadedInto = 0; ///< from a previous Load
        };
        for (BasicBlock &bb : f.blocks) {
            AddrResolver resolver;
            std::vector<Entry> entries;
            auto clobberAll = [&] { entries.clear(); };
            auto clobberOverlap = [&](const AddrKey &k, uint64_t size) {
                entries.erase(
                    std::remove_if(entries.begin(), entries.end(),
                                   [&](const Entry &e) {
                                       return e.key.sameObject(k) &&
                                              rangesOverlap(e.key.offset,
                                                            e.size,
                                                            k.offset,
                                                            size);
                                   }),
                    entries.end());
            };
            for (Inst &inst : bb.insts) {
                resolver.note(inst);
                switch (inst.op) {
                  case Opcode::Store: {
                    AddrKey key = resolver.resolve(inst.a);
                    if (!key.resolved()) {
                        clobberAll();
                        break;
                    }
                    clobberOverlap(key, inst.imm);
                    entries.push_back({key, inst.imm, inst.b, 0});
                    break;
                  }
                  case Opcode::Load: {
                    AddrKey key = resolver.resolve(inst.a);
                    if (!key.resolved())
                        break;
                    bool forwarded = false;
                    for (Entry &e : entries) {
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
                        entries.push_back(e);
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
                    entries.erase(
                        std::remove_if(entries.begin(), entries.end(),
                                       [&](const Entry &e) {
                                           return e.key.sameObject(k);
                                       }),
                        entries.end());
                    break;
                  }
                  default:
                    break;
                }
            }
        }
        return changed;
    }
};

class DSEPass : public Pass
{
  public:
    bool
    run(Module &, Function &f) override
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
        for (BasicBlock &bb : f.blocks) {
            AddrResolver resolver;
            for (Inst &inst : bb.insts)
                resolver.note(inst);
            for (size_t i = 0; i < bb.insts.size(); i++) {
                Inst &st = bb.insts[i];
                if (st.op != Opcode::Store)
                    continue;
                AddrKey key = resolver.resolve(st.a);
                if (!key.resolved())
                    continue;
                for (size_t j = i + 1; j < bb.insts.size(); j++) {
                    const Inst &nx = bb.insts[j];
                    if (nx.op == Opcode::Store) {
                        AddrKey k2 = resolver.resolve(nx.a);
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
                        AddrKey k2 = resolver.resolve(nx.a);
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

    /**
     * Delete stores into frame objects whose address never escapes and
     * that are never read. This is the transform of Figure 3: a dead
     * out-of-bounds store disappears at -O2 before the sanitizer pass
     * ever sees it.
     */
    bool
    writeOnlyObjectDSE(Function &f)
    {
        size_t n = f.frame.size();
        std::vector<bool> escaped(n, false), loaded(n, false);
        // Root each register at a frame object where possible.
        // Registers are block-local, so a per-block map suffices.
        for (BasicBlock &bb : f.blocks) {
            std::unordered_map<uint32_t, uint32_t> root;
            auto rootOf = [&](const Value &v) -> int64_t {
                if (!v.isReg())
                    return -1;
                auto it = root.find(v.reg);
                return it == root.end() ? int64_t{-1}
                                      : static_cast<int64_t>(it->second);
            };
            for (Inst &inst : bb.insts) {
                switch (inst.op) {
                  case Opcode::FrameAddr:
                    root[inst.dst] = inst.object;
                    break;
                  case Opcode::Gep:
                  case Opcode::Cast:
                    if (int64_t r = rootOf(inst.a); r >= 0)
                        root[inst.dst] = static_cast<uint32_t>(r);
                    break;
                  case Opcode::Load:
                    if (int64_t r = rootOf(inst.a); r >= 0)
                        loaded[static_cast<size_t>(r)] = true;
                    break;
                  case Opcode::Store:
                    // Storing a rooted address escapes the object.
                    if (int64_t r = rootOf(inst.b); r >= 0)
                        escaped[static_cast<size_t>(r)] = true;
                    break;
                  case Opcode::MemCopy:
                    if (int64_t r = rootOf(inst.a); r >= 0)
                        loaded[static_cast<size_t>(r)] = true;
                    if (int64_t r = rootOf(inst.b); r >= 0)
                        loaded[static_cast<size_t>(r)] = true;
                    break;
                  case Opcode::AsanCheck:
                  case Opcode::LifetimeStart:
                  case Opcode::LifetimeEnd:
                    break; // not reads
                  default: {
                    // Any other use of a rooted register (call args,
                    // returns, arithmetic, logging) escapes the object.
                    forEachOperand(inst, [&](Value &v) {
                        if (int64_t r = rootOf(v); r >= 0)
                            escaped[static_cast<size_t>(r)] = true;
                    });
                    break;
                  }
                }
            }
        }
        bool changed = false;
        for (BasicBlock &bb : f.blocks) {
            std::unordered_map<uint32_t, uint32_t> root;
            auto rootOf = [&](const Value &v) -> int64_t {
                if (!v.isReg())
                    return -1;
                auto it = root.find(v.reg);
                return it == root.end() ? int64_t{-1}
                                      : static_cast<int64_t>(it->second);
            };
            for (Inst &inst : bb.insts) {
                if (inst.op == Opcode::FrameAddr) {
                    root[inst.dst] = inst.object;
                } else if (inst.op == Opcode::Gep ||
                           inst.op == Opcode::Cast) {
                    if (int64_t r = rootOf(inst.a); r >= 0)
                        root[inst.dst] = static_cast<uint32_t>(r);
                } else if (inst.op == Opcode::Store) {
                    int64_t r = rootOf(inst.a);
                    if (r >= 0 && !escaped[static_cast<size_t>(r)] &&
                        !loaded[static_cast<size_t>(r)]) {
                        UBF_COV_HIT(covDseWriteOnly);
                        inst.op = Opcode::Nop;
                        changed = true;
                    }
                }
            }
        }
        return changed;
    }
};

//===--------------------------------------------------------------===//
// Dead code elimination
//===--------------------------------------------------------------===//

class DCEPass : public Pass
{
  public:
    bool
    run(Module &, Function &f) override
    {
        UBF_COV_HIT(covDce);
        bool changed = false;
        // Values may cross blocks (short-circuit/ternary lowering), so
        // use counts are function-scoped.
        std::unordered_map<uint32_t, int> uses;
        for (BasicBlock &bb : f.blocks) {
            for (Inst &inst : bb.insts) {
                forEachOperand(inst, [&](Value &v) {
                    if (v.isReg())
                        uses[v.reg]++;
                });
            }
        }
        for (auto bit = f.blocks.rbegin(); bit != f.blocks.rend();
             ++bit) {
            for (auto it = bit->insts.rbegin(); it != bit->insts.rend();
                 ++it) {
                Inst &inst = *it;
                if (!isPure(inst) || !inst.dst || uses[inst.dst] > 0)
                    continue;
                forEachOperand(inst, [&](Value &v) {
                    if (v.isReg())
                        uses[v.reg]--;
                });
                inst.op = Opcode::Nop;
                inst.dst = 0;
                inst.a = inst.b = inst.c = Value{};
                changed = true;
            }
        }
        sweepNops(f);
        return changed;
    }
};

//===--------------------------------------------------------------===//
// CFG simplification
//===--------------------------------------------------------------===//

class SimplifyCFGPass : public Pass
{
  public:
    bool
    run(Module &, Function &f) override
    {
        UBF_COV_HIT(covSimplify);
        bool changed = false;
        // Constant branches were already folded to Br by constfold;
        // thread trivial jump chains.
        auto finalTarget = [&](uint32_t t) {
            std::unordered_set<uint32_t> visited;
            while (visited.insert(t).second) {
                const BasicBlock &bb = f.blocks[t];
                if (bb.insts.size() == 1 &&
                    bb.insts[0].op == Opcode::Br)
                    t = bb.insts[0].targets[0];
                else
                    break;
            }
            return t;
        };
        for (BasicBlock &bb : f.blocks) {
            Inst &term = bb.insts.back();
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
        std::vector<bool> reachable(f.blocks.size(), false);
        std::vector<uint32_t> work{0};
        reachable[0] = true;
        while (!work.empty()) {
            uint32_t b = work.back();
            work.pop_back();
            const Inst &term = f.blocks[b].insts.back();
            for (int k = 0; k < 2; k++) {
                bool has = (term.op == Opcode::Br && k == 0) ||
                           term.op == Opcode::CondBr;
                if (has && !reachable[term.targets[k]]) {
                    reachable[term.targets[k]] = true;
                    work.push_back(term.targets[k]);
                }
            }
        }
        for (size_t b = 0; b < f.blocks.size(); b++) {
            BasicBlock &bb = f.blocks[b];
            if (reachable[b] || bb.insts.size() == 1)
                continue;
            if (bb.insts.size() == 1 && bb.insts[0].op == Opcode::Ret)
                continue;
            UBF_COV_HIT(covSimplifyUnreachable);
            Inst ret;
            ret.op = Opcode::Ret;
            if (f.retKind != ir::ScalarKind::Void)
                ret.a = Value::makeImm(0);
            bb.insts.clear();
            bb.insts.push_back(ret);
            changed = true;
        }
        return changed;
    }
};

//===--------------------------------------------------------------===//
// Lifetime hoisting (GCC -O3)
//===--------------------------------------------------------------===//

class LifetimeHoistPass : public Pass
{
  public:
    bool
    run(Module &, Function &f) override
    {
        UBF_COV_HIT(covHoist);
        // Blocks that participate in a cycle (reach themselves).
        size_t n = f.blocks.size();
        auto succs = [&](uint32_t b) {
            std::vector<uint32_t> out;
            const Inst &term = f.blocks[b].insts.back();
            if (term.op == Opcode::Br)
                out.push_back(term.targets[0]);
            if (term.op == Opcode::CondBr) {
                out.push_back(term.targets[0]);
                out.push_back(term.targets[1]);
            }
            return out;
        };
        std::vector<bool> cyclic(n, false);
        for (uint32_t start = 0; start < n; start++) {
            std::vector<bool> seen(n, false);
            std::vector<uint32_t> work = succs(start);
            while (!work.empty()) {
                uint32_t b = work.back();
                work.pop_back();
                if (b == start) {
                    cyclic[start] = true;
                    break;
                }
                if (seen[b])
                    continue;
                seen[b] = true;
                for (uint32_t s : succs(b))
                    work.push_back(s);
            }
        }
        // Small loop-scoped objects get hoisted to function scope:
        // delete their lifetime markers everywhere.
        std::unordered_set<uint32_t> hoisted;
        for (uint32_t b = 0; b < n; b++) {
            if (!cyclic[b])
                continue;
            for (const Inst &inst : f.blocks[b].insts) {
                if ((inst.op == Opcode::LifetimeStart ||
                     inst.op == Opcode::LifetimeEnd) &&
                    f.frame[inst.object].size <= 8)
                    hoisted.insert(inst.object);
            }
        }
        if (hoisted.empty())
            return false;
        for (BasicBlock &bb : f.blocks) {
            for (Inst &inst : bb.insts) {
                if ((inst.op == Opcode::LifetimeStart ||
                     inst.op == Opcode::LifetimeEnd) &&
                    hoisted.count(inst.object))
                    inst.op = Opcode::Nop;
            }
        }
        sweepNops(f);
        return true;
    }
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
