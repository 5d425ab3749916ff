#include "harden/harden.h"

#include <vector>

#include "support/diagnostics.h"

namespace ubfuzz::harden {

using ir::BasicBlock;
using ir::FrameObject;
using ir::Function;
using ir::Inst;
using ir::Module;
using ir::Opcode;
using ir::ScalarKind;
using ir::Value;

const char *
familyName(uint32_t bit)
{
    switch (bit) {
      case kDuplicateCompare: return "dup";
      case kCfgSignature: return "sig";
    }
    return "?";
}

std::string
maskStr(uint32_t mask)
{
    std::string s;
    for (uint32_t bit : {kDuplicateCompare, kCfgSignature}) {
        if (!(mask & bit))
            continue;
        if (!s.empty())
            s += ",";
        s += familyName(bit);
    }
    return s;
}

std::optional<uint32_t>
parseMask(std::string_view text)
{
    uint32_t mask = 0;
    size_t pos = 0;
    while (true) {
        size_t comma = text.find(',', pos);
        std::string_view item = text.substr(
            pos, comma == std::string_view::npos ? std::string_view::npos
                                                 : comma - pos);
        uint32_t bit;
        if (item == "dup")
            bit = kDuplicateCompare;
        else if (item == "sig")
            bit = kCfgSignature;
        else
            return std::nullopt;
        if (mask & bit) // duplicate family
            return std::nullopt;
        mask |= bit;
        if (comma == std::string_view::npos)
            break;
        pos = comma + 1;
    }
    return mask;
}

namespace {

//===----------------------------------------------------------------===//
// DuplicateCompare (EDDI-style)
//===----------------------------------------------------------------===//

/**
 * Per-function rewriter. Values get duplicates (`dup[r]`), addresses
 * rooted at shadowable frame objects get shadow addresses
 * (`shadowAddr[r]`) pointing into a shadow copy of the object, and
 * consumption sites compare original against duplicate with a
 * HardenCheck (armed only under an active FaultPlan — see vm.h).
 *
 * Shadowability: a frame object can be shadowed iff every register
 * rooted at its FrameAddr (through Gep-only chains) is used purely as
 * an address — Gep base, Load/Store/MemCopy address, or a sanitizer
 * check operand (reads the pointer, accesses no memory we must
 * mirror). Any other use (stored as a value, passed to a call, fed
 * into arithmetic) could update the object through a chain this pass
 * cannot see, which would desynchronize the shadow and make an armed
 * HardenCheck fire without a fault. Unshadowable memory still gets
 * value duplication by re-loading through the (duplicated) address.
 */
class DupRewriter
{
  public:
    explicit DupRewriter(Function &f) : f_(f) {}

    /**
     * Writes the new body into one buffer: the entry prologue's slots
     * first, then every block rewritten from the old body, then the
     * prologue itself, whose registers come after the rewrite's.
     */
    void
    run()
    {
        analyzeShadowable();
        const size_t prologueSize = 3 * appendShadowObjects();
        std::vector<Inst> out;
        out.reserve(prologueSize + f_.insts.size() * 2);
        out.resize(prologueSize);
        for (size_t b = 0; b < f_.blocks.size(); b++) {
            BasicBlock &bb = f_.blocks[b];
            // The entry block starts with the prologue.
            const uint32_t begin =
                b == 0 ? 0 : static_cast<uint32_t>(out.size());
            rewriteBlock(f_.instsOf(bb), out);
            bb = {begin, static_cast<uint32_t>(out.size()) - begin};
        }
        emitEntryCopies(out);
        f_.insts = std::move(out);
    }

  private:
    /** regRoot_[r] = 1 + frame-object index r's pointer chain roots
     *  at, or 0. Single-assignment registers: two sweeps reach the
     *  fixpoint even with cross-block chains. */
    void
    analyzeShadowable()
    {
        regRoot_.assign(f_.numRegs, 0);
        shadowable_.assign(f_.frame.size(), true);
        for (int sweep = 0; sweep < 2; sweep++) {
            for (const Inst &inst : f_.insts) {
                if (inst.op == Opcode::FrameAddr && inst.dst)
                    regRoot_[inst.dst] = inst.object + 1;
                else if (inst.op == Opcode::Gep && inst.dst &&
                         inst.a.isReg() && regRoot_[inst.a.reg])
                    regRoot_[inst.dst] = regRoot_[inst.a.reg];
            }
        }
        auto escape = [this](const Value &v) {
            if (v.isReg() && regRoot_[v.reg])
                shadowable_[regRoot_[v.reg] - 1] = false;
        };
        for (const Inst &inst : f_.insts) {
            switch (inst.op) {
              case Opcode::Gep:
                escape(inst.b); // rooted reg as *index*
                escape(inst.c);
                break;
              case Opcode::Load:
                break; // a is an address use
              case Opcode::Store:
                escape(inst.b); // pointer stored as a value
                break;
              case Opcode::MemCopy:
                break; // both operands are addresses
              case Opcode::AsanCheck:
              case Opcode::UbsanNull:
              case Opcode::MsanCheck:
                break; // pointer read, no memory access to mirror
              default:
                escape(inst.a);
                escape(inst.b);
                escape(inst.c);
                for (const Value &arg : f_.argsOf(inst))
                    escape(arg);
                break;
            }
        }
    }

    /** @return the number of shadow objects appended. */
    size_t
    appendShadowObjects()
    {
        size_t n = f_.frame.size();
        shadowIdx_.assign(n, 0);
        for (size_t o = 0; o < n; o++) {
            if (!shadowable_[o] || f_.frame[o].size == 0)
                continue;
            FrameObject sh;
            sh.name = f_.frame[o].name + ".sh";
            sh.size = f_.frame[o].size;
            sh.align = f_.frame[o].align;
            sh.scoped = false;
            sh.redzone = 0;
            sh.declId = 0;
            shadowIdx_[o] = static_cast<uint32_t>(f_.frame.size());
            f_.frame.push_back(std::move(sh));
        }
        return f_.frame.size() - n;
    }

    /** Copy every shadowed object's initial contents (0xAA fill for
     *  locals, marshaled values for parameters) into its shadow at
     *  function entry, before any original instruction runs: fills
     *  the prologue slots at the front of @p out. */
    void
    emitEntryCopies(std::vector<Inst> &out)
    {
        size_t at = 0;
        for (size_t o = 0; o < shadowIdx_.size(); o++) {
            if (!shadowIdx_[o])
                continue;
            Inst fa;
            fa.op = Opcode::FrameAddr;
            fa.kind = ScalarKind::U64;
            fa.dst = f_.newReg();
            fa.object = static_cast<uint32_t>(o);
            Inst fs = fa;
            fs.dst = f_.newReg();
            fs.object = shadowIdx_[o];
            Inst cp;
            cp.op = Opcode::MemCopy;
            cp.a = Value::makeReg(fs.dst);
            cp.b = Value::makeReg(fa.dst);
            cp.imm = f_.frame[o].size;
            out[at++] = fa;
            out[at++] = fs;
            out[at++] = cp;
        }
    }

    uint32_t
    dupOf(uint32_t reg) const
    {
        return reg < dup_.size() ? dup_[reg] : 0;
    }

    uint32_t
    shadowOf(uint32_t reg) const
    {
        return reg < shadowAddr_.size() ? shadowAddr_[reg] : 0;
    }

    void
    setDup(uint32_t reg, uint32_t dupReg)
    {
        if (reg >= dup_.size())
            dup_.resize(reg + 1, 0);
        dup_[reg] = dupReg;
    }

    void
    setShadow(uint32_t reg, uint32_t shReg)
    {
        if (reg >= shadowAddr_.size())
            shadowAddr_.resize(reg + 1, 0);
        shadowAddr_[reg] = shReg;
    }

    /** The duplicate-side rendering of an operand: its dup register
     *  when one exists, else the operand itself. */
    Value
    dupVal(const Value &v) const
    {
        if (v.isReg() && dupOf(v.reg))
            return Value::makeReg(dupOf(v.reg));
        return v;
    }

    Inst
    makeCheck(const Value &orig, const Value &other, SourceLoc loc) const
    {
        Inst chk;
        chk.op = Opcode::HardenCheck;
        chk.kind = ScalarKind::U64;
        chk.a = orig;
        chk.b = other;
        chk.loc = loc;
        return chk;
    }

    /** Compare @p v against its duplicate (no-op without one). */
    void
    checkValue(std::vector<Inst> &out, const Value &v,
               SourceLoc loc) const
    {
        if (v.isReg() && dupOf(v.reg))
            out.push_back(makeCheck(v, Value::makeReg(dupOf(v.reg)),
                                    loc));
    }

    /** Append block @p body of the old body, rewritten, to @p out. */
    void
    rewriteBlock(std::span<const Inst> body, std::vector<Inst> &out)
    {
        for (const Inst &inst : body) {
            switch (inst.op) {
              case Opcode::Const:
              case Opcode::Bin:
              case Opcode::Cast:
              case Opcode::Select: {
                out.push_back(inst);
                if (!inst.dst)
                    break;
                Inst d = inst;
                d.dst = f_.newReg();
                d.a = dupVal(inst.a);
                d.b = dupVal(inst.b);
                d.c = dupVal(inst.c);
                setDup(inst.dst, d.dst);
                out.push_back(std::move(d));
                break;
              }
              case Opcode::FrameAddr: {
                out.push_back(inst);
                if (!inst.dst)
                    break;
                if (shadowIdx_[inst.object]) {
                    Inst d = inst;
                    d.dst = f_.newReg();
                    d.object = shadowIdx_[inst.object];
                    setShadow(inst.dst, d.dst);
                    out.push_back(std::move(d));
                } else {
                    Inst d = inst;
                    d.dst = f_.newReg();
                    setDup(inst.dst, d.dst);
                    out.push_back(std::move(d));
                }
                break;
              }
              case Opcode::GlobalAddr: {
                out.push_back(inst);
                if (!inst.dst)
                    break;
                Inst d = inst;
                d.dst = f_.newReg();
                setDup(inst.dst, d.dst);
                out.push_back(std::move(d));
                break;
              }
              case Opcode::Gep: {
                out.push_back(inst);
                if (!inst.dst)
                    break;
                Inst d = inst;
                d.dst = f_.newReg();
                d.b = dupVal(inst.b);
                if (inst.a.isReg() && shadowOf(inst.a.reg)) {
                    d.a = Value::makeReg(shadowOf(inst.a.reg));
                    setShadow(inst.dst, d.dst);
                } else {
                    d.a = dupVal(inst.a);
                    setDup(inst.dst, d.dst);
                }
                out.push_back(std::move(d));
                break;
              }
              case Opcode::Load: {
                // Address integrity first (a corrupted address would
                // trap or read the wrong object before any value
                // compare could run), then the original load, then the
                // duplicate load, then the value compare.
                checkValue(out, inst.a, inst.loc);
                out.push_back(inst);
                if (!inst.dst)
                    break;
                Inst d = inst;
                d.dst = f_.newReg();
                if (inst.a.isReg() && shadowOf(inst.a.reg))
                    d.a = Value::makeReg(shadowOf(inst.a.reg));
                else
                    d.a = dupVal(inst.a);
                setDup(inst.dst, d.dst);
                uint32_t dd = d.dst;
                out.push_back(std::move(d));
                out.push_back(makeCheck(Value::makeReg(inst.dst),
                                        Value::makeReg(dd), inst.loc));
                break;
              }
              case Opcode::Store: {
                checkValue(out, inst.a, inst.loc);
                checkValue(out, inst.b, inst.loc);
                out.push_back(inst);
                if (inst.a.isReg() && shadowOf(inst.a.reg)) {
                    Inst d = inst;
                    d.a = Value::makeReg(shadowOf(inst.a.reg));
                    d.b = dupVal(inst.b);
                    out.push_back(std::move(d));
                }
                break;
              }
              case Opcode::MemCopy: {
                checkValue(out, inst.a, inst.loc);
                checkValue(out, inst.b, inst.loc);
                out.push_back(inst);
                if (inst.a.isReg() && shadowOf(inst.a.reg)) {
                    Inst d = inst;
                    d.a = Value::makeReg(shadowOf(inst.a.reg));
                    if (inst.b.isReg() && shadowOf(inst.b.reg))
                        d.b = Value::makeReg(shadowOf(inst.b.reg));
                    out.push_back(std::move(d));
                }
                break;
              }
              case Opcode::Call: {
                for (const Value &arg : f_.argsOf(inst))
                    checkValue(out, arg, inst.loc);
                out.push_back(inst);
                if (inst.dst) {
                    // The callee's result exists once; duplicate by an
                    // identity copy. Safe from optimizer interference
                    // because hardening runs after every optimizer.
                    Inst d;
                    d.op = Opcode::Bin;
                    d.binOp = ir::BinOp::Add;
                    d.kind = inst.kind;
                    d.dst = f_.newReg();
                    d.a = Value::makeReg(inst.dst);
                    d.b = Value::makeImm(0);
                    d.loc = inst.loc;
                    setDup(inst.dst, d.dst);
                    out.push_back(std::move(d));
                }
                break;
              }
              case Opcode::Malloc: {
                checkValue(out, inst.a, inst.loc);
                out.push_back(inst);
                if (inst.dst) {
                    Inst d;
                    d.op = Opcode::Bin;
                    d.binOp = ir::BinOp::Add;
                    d.kind = ScalarKind::U64;
                    d.dst = f_.newReg();
                    d.a = Value::makeReg(inst.dst);
                    d.b = Value::makeImm(0);
                    d.loc = inst.loc;
                    setDup(inst.dst, d.dst);
                    out.push_back(std::move(d));
                }
                break;
              }
              case Opcode::Free:
              case Opcode::Checksum:
                checkValue(out, inst.a, inst.loc);
                out.push_back(inst);
                break;
              case Opcode::CondBr:
              case Opcode::Ret:
                checkValue(out, inst.a, inst.loc);
                out.push_back(inst);
                break;
              default:
                // Nop, Br, lifetime markers, profiling logs, sanitizer
                // checks: pass through untouched.
                out.push_back(inst);
                break;
            }
        }
    }

    Function &f_;
    std::vector<uint32_t> regRoot_;
    std::vector<bool> shadowable_;
    std::vector<uint32_t> shadowIdx_;
    std::vector<uint32_t> dup_;
    std::vector<uint32_t> shadowAddr_;
};

//===----------------------------------------------------------------===//
// CfgSignature (simplified RACFED)
//===----------------------------------------------------------------===//

uint64_t
blockSignature(size_t fnIdx, uint32_t blockId)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    h = (h ^ static_cast<uint64_t>(fnIdx)) * 0x100000001b3ULL;
    h = (h ^ static_cast<uint64_t>(blockId)) * 0x100000001b3ULL;
    // Keep the stored signature nonzero so a zeroed slot always
    // mismatches.
    return h | 1;
}

void
signFunction(Module &m, size_t fnIdx)
{
    Function &f = m.functions[fnIdx];
    uint32_t sigObj = static_cast<uint32_t>(f.frame.size());
    FrameObject sig;
    sig.name = ".sig";
    sig.size = 8;
    sig.align = 8;
    f.frame.push_back(std::move(sig));

    // The new body: every block gains 3 instructions at entry and 4
    // before its terminator.
    std::vector<Inst> out;
    out.reserve(f.insts.size() + 7 * f.blocks.size());
    for (size_t b = 0; b < f.blocks.size(); b++) {
        BasicBlock &bb = f.blocks[b];
        const std::span<const Inst> body = f.instsOf(bb);
        const uint32_t begin = static_cast<uint32_t>(out.size());
        uint64_t sigVal =
            blockSignature(fnIdx, static_cast<uint32_t>(b));

        // Entry: store the block's signature into the slot.
        Inst c;
        c.op = Opcode::Const;
        c.kind = ScalarKind::U64;
        c.dst = f.newReg();
        c.imm = sigVal;
        Inst fa;
        fa.op = Opcode::FrameAddr;
        fa.kind = ScalarKind::U64;
        fa.dst = f.newReg();
        fa.object = sigObj;
        Inst st;
        st.op = Opcode::Store;
        st.kind = ScalarKind::U64;
        st.a = Value::makeReg(fa.dst);
        st.b = Value::makeReg(c.dst);
        st.imm = 8;
        out.insert(out.end(), {c, fa, st});

        // Exit: reload, fold the expected signature out, require zero.
        SourceLoc loc = body.empty() ? SourceLoc{} : body.back().loc;
        Inst fa2 = fa;
        fa2.dst = f.newReg();
        Inst ld;
        ld.op = Opcode::Load;
        ld.kind = ScalarKind::U64;
        ld.dst = f.newReg();
        ld.a = Value::makeReg(fa2.dst);
        ld.imm = 8;
        ld.loc = loc;
        Inst x;
        x.op = Opcode::Bin;
        x.binOp = ir::BinOp::BitXor;
        x.kind = ScalarKind::U64;
        x.dst = f.newReg();
        x.a = Value::makeReg(ld.dst);
        x.b = Value::makeImm(sigVal);
        x.loc = loc;
        Inst chk;
        chk.op = Opcode::HardenCheck;
        chk.kind = ScalarKind::U64;
        chk.a = Value::makeReg(x.dst);
        chk.b = Value::makeImm(0);
        chk.loc = loc;
        // Keep the terminator last (verifyModule's placement rule).
        const bool term = !body.empty() && body.back().isTerminator();
        out.insert(out.end(), body.begin(),
                   body.begin() + (body.size() - (term ? 1 : 0)));
        out.insert(out.end(), {fa2, ld, x, chk});
        if (term)
            out.push_back(body.back());
        bb = {begin, static_cast<uint32_t>(out.size()) - begin};
    }
    f.insts = std::move(out);
}

} // namespace

void
apply(Module &m, uint32_t mask)
{
    for (uint32_t bit : {kDuplicateCompare, kCfgSignature}) {
        if (!(mask & bit))
            continue;
        // Per-family-once: a set bit means a binary was hardened a
        // second time (a twin derived from a hardened binary).
        UBF_ASSERT((m.hardenedWith & bit) == 0,
                   "module already hardened with ", familyName(bit));
        m.hardenedWith |= bit;
        for (size_t fi = 0; fi < m.functions.size(); fi++) {
            if (m.functions[fi].blocks.empty())
                continue;
            if (bit == kDuplicateCompare)
                DupRewriter(m.functions[fi]).run();
            else
                signFunction(m, fi);
        }
    }
}

} // namespace ubfuzz::harden
