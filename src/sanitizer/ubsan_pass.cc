#include "sanitizer/sanitizer.h"

#include "sanitizer/pass_util.h"
#include "support/coverage.h"

namespace ubfuzz::san {

using ir::Function;
using ir::Inst;
using ir::Module;
using ir::Opcode;
using ir::Value;
using ast::BinaryOp;

static ubfuzz::CovSite covRun[2] = {
    {"gcc.ubsan.run", CovKind::Function},
    {"llvm.ubsan.run", CovKind::Function}};
static ubfuzz::CovSite covArith[2] = {
    {"gcc.ubsan.arith_check", CovKind::Line},
    {"llvm.ubsan.arith_check", CovKind::Line}};
static ubfuzz::CovSite covArithWide[2] = {
    {"gcc.ubsan.arith_wide", CovKind::Branch},
    {"llvm.ubsan.arith_wide", CovKind::Branch}};
static ubfuzz::CovSite covShift[2] = {
    {"gcc.ubsan.shift_check", CovKind::Line},
    {"llvm.ubsan.shift_check", CovKind::Line}};
static ubfuzz::CovSite covDiv[2] = {
    {"gcc.ubsan.div_check", CovKind::Line},
    {"llvm.ubsan.div_check", CovKind::Line}};
static ubfuzz::CovSite covNull[2] = {
    {"gcc.ubsan.null_check", CovKind::Line},
    {"llvm.ubsan.null_check", CovKind::Line}};
static ubfuzz::CovSite covBounds[2] = {
    {"gcc.ubsan.bounds_check", CovKind::Line},
    {"llvm.ubsan.bounds_check", CovKind::Line}};
static ubfuzz::CovSite covNullNeeded[2] = {
    {"gcc.ubsan.null_needed", CovKind::Branch},
    {"llvm.ubsan.null_needed", CovKind::Branch}};

namespace {

/** Is there a sub-32-bit value in @p v's short def chain (casts,
 *  loads, and one level of arithmetic)? The buggy "shortening"
 *  reasoning treats such operands as too narrow to misbehave. */
bool
valueFromNarrow(const DefMap &defs, const Value &v, int narrowBits,
                int depth = 0)
{
    const Inst *d = defs.def(v);
    if (!d || depth > 3)
        return false;
    int bits = ast::scalarBits(d->kind);
    if (bits > 0 && bits <= narrowBits &&
        (d->op == Opcode::Load || d->op == Opcode::Cast))
        return true;
    switch (d->op) {
      case Opcode::Cast:
        return valueFromNarrow(defs, d->a, narrowBits, depth + 1);
      case Opcode::Bin:
        return valueFromNarrow(defs, d->a, narrowBits, depth + 1) ||
               valueFromNarrow(defs, d->b, narrowBits, depth + 1);
      default:
        return false;
    }
}

bool
narrowedFrom(const DefMap &defs, const Value &v)
{
    return valueFromNarrow(defs, v, 16);
}

/** Does the shift-count chain involve an 8-bit value? */
bool
countFromChar(const DefMap &defs, const Value &v)
{
    return valueFromNarrow(defs, v, 8);
}

/** The first instruction after @p idx that uses register @p reg, in
 *  block @p body of @p f. */
const Inst *
firstUse(const Function &f, std::span<const Inst> body, size_t idx,
         uint32_t reg)
{
    for (size_t j = idx + 1; j < body.size(); j++) {
        const Inst &inst = body[j];
        bool uses = false;
        auto check = [&](const Value &v) {
            uses |= v.isReg() && v.reg == reg;
        };
        check(inst.a);
        check(inst.b);
        check(inst.c);
        for (const Value &arg : f.argsOf(inst))
            check(arg);
        if (uses)
            return &inst;
    }
    return nullptr;
}

} // namespace

void
runUbsanPass(const Module &src, Module &m, const SanitizerContext &ctx)
{
    int vi = ctx.bugs.vendor() == Vendor::LLVM ? 1 : 0;
    covRun[vi].hit();

    DefMap defs;
    for (size_t fi = 0; fi < m.functions.size(); fi++) {
        const Function &f = src.functions[fi];
        // The new body, sized for the most checks the old one can
        // gain: one per checked Bin, bounded Gep, Load or Store, two
        // per MemCopy. The loop reads the old body from @p src, so the
        // instructions `defs` points at stay put.
        size_t most = f.insts.size();
        for (const Inst &inst : f.insts)
            most += inst.op == Opcode::MemCopy ? 2
                    : (inst.op == Opcode::Bin && inst.flag) ||
                            (inst.op == Opcode::Gep && inst.bound) ||
                            inst.op == Opcode::Load ||
                            inst.op == Opcode::Store
                        ? 1
                        : 0;
        std::vector<Inst> out;
        out.reserve(most);
        Function &g = m.functions[fi];
        for (size_t b = 0; b < f.blocks.size(); b++) {
            const std::span<const Inst> body = f.instsOf(f.blocks[b]);
            const uint32_t begin = static_cast<uint32_t>(out.size());
            defs.reset(f.numRegs);
            for (size_t idx = 0; idx < body.size(); idx++) {
                const Inst &inst = body[idx];
                switch (inst.op) {
                  case Opcode::Bin: {
                    if (!inst.flag)
                        break; // compiler-internal arithmetic
                    bool sgn = ast::scalarSigned(inst.kind);
                    if (ast::isArithOp(inst.binOp) && sgn) {
                        covArith[vi].hit();
                        covArithWide[vi].branch(
                            ast::scalarBits(inst.kind) >= 64);
                        if (ctx.bugs.active(
                                BugId::
                                    GccUbsanWidenedNarrowAddNoCheck) &&
                            (narrowedFrom(defs, inst.a) ||
                             narrowedFrom(defs, inst.b))) {
                            ctx.fire(
                                BugId::GccUbsanWidenedNarrowAddNoCheck,
                                inst.loc);
                            break;
                        }
                        if (ctx.bugs.active(
                                BugId::GccUbsanNegationNoCheck) &&
                            inst.binOp == BinaryOp::Sub &&
                            inst.a.isImm() && inst.a.imm == 0) {
                            ctx.fire(BugId::GccUbsanNegationNoCheck,
                                     inst.loc);
                            break;
                        }
                        if (ctx.bugs.active(
                                BugId::
                                    LlvmUbsanStoreMergedArithSkipped) &&
                            inst.dst) {
                            const Inst *use =
                                firstUse(f, body, idx, inst.dst);
                            if (use && use->op == Opcode::Store) {
                                const Inst *ad = defs.def(use->a);
                                if (ad &&
                                    ad->op == Opcode::GlobalAddr) {
                                    ctx.fire(
                                        BugId::
                                            LlvmUbsanStoreMergedArithSkipped,
                                        inst.loc);
                                    break;
                                }
                            }
                        }
                        Inst chk;
                        chk.op = Opcode::UbsanArith;
                        chk.kind = inst.kind;
                        chk.binOp = inst.binOp;
                        if (ctx.bugs.active(BugId::LlvmUbsanMulAsAdd) &&
                            inst.binOp == BinaryOp::Mul) {
                            chk.binOp = BinaryOp::Add;
                            ctx.fire(BugId::LlvmUbsanMulAsAdd,
                                     inst.loc);
                        }
                        chk.a = inst.a;
                        chk.b = inst.b;
                        chk.loc = inst.loc;
                        out.push_back(chk);
                        break;
                    }
                    if (ast::isShiftOp(inst.binOp)) {
                        covShift[vi].hit();
                        if (ctx.bugs.active(
                                BugId::
                                    GccUbsanShiftCharCountNoCheck) &&
                            countFromChar(defs, inst.b)) {
                            ctx.fire(
                                BugId::GccUbsanShiftCharCountNoCheck,
                                inst.loc);
                            break;
                        }
                        Inst chk;
                        chk.op = Opcode::UbsanShift;
                        chk.kind = inst.kind;
                        chk.a = inst.a;
                        chk.b = inst.b;
                        chk.loc = inst.loc;
                        if (ctx.bugs.active(
                                BugId::LlvmUbsanShiftNegOnly)) {
                            chk.flag = true; // negative counts only
                            ctx.fire(BugId::LlvmUbsanShiftNegOnly,
                                     inst.loc);
                        }
                        out.push_back(chk);
                        break;
                    }
                    if (ast::isDivRemOp(inst.binOp)) {
                        covDiv[vi].hit();
                        if (ctx.bugs.active(
                                BugId::LlvmUbsanRemNoCheck) &&
                            inst.binOp == BinaryOp::Rem) {
                            ctx.fire(BugId::LlvmUbsanRemNoCheck,
                                     inst.loc);
                            break;
                        }
                        if (ctx.bugs.active(
                                BugId::
                                    GccUbsanNarrowedDividendNoCheck) &&
                            narrowedFrom(defs, inst.a)) {
                            // Figure 12b: the dividend was narrowed
                            // from a wider (boolean-ish) expression.
                            ctx.fire(
                                BugId::GccUbsanNarrowedDividendNoCheck,
                                inst.loc);
                            break;
                        }
                        Inst chk;
                        chk.op = Opcode::UbsanDiv;
                        chk.kind = inst.kind;
                        chk.a = inst.a;
                        chk.b = inst.b;
                        chk.loc = inst.loc;
                        if (ctx.bugs.active(
                                BugId::GccUbsanDivCheckWrongLoc)) {
                            chk.loc.offset = 0;
                            ctx.fire(BugId::GccUbsanDivCheckWrongLoc,
                                     inst.loc);
                        }
                        out.push_back(chk);
                        break;
                    }
                    break;
                  }
                  case Opcode::Gep: {
                    if (inst.bound == 0)
                        break;
                    covBounds[vi].hit();
                    if (ctx.bugs.active(
                            BugId::
                                LlvmUbsanSmallArrayBoundsSkipped) &&
                        inst.bound <= 4) {
                        ctx.fire(
                            BugId::LlvmUbsanSmallArrayBoundsSkipped,
                            inst.loc);
                        break;
                    }
                    Inst chk;
                    chk.op = Opcode::UbsanBounds;
                    chk.a = inst.b; // the index operand
                    chk.imm = inst.bound;
                    chk.loc = inst.loc;
                    if (ctx.bugs.active(BugId::GccUbsanBoundsOffByOne) &&
                        inst.bound >= 8) {
                        chk.imm = inst.bound + 1;
                        ctx.fire(BugId::GccUbsanBoundsOffByOne,
                                 inst.loc);
                    }
                    out.push_back(chk);
                    break;
                  }
                  case Opcode::Load:
                  case Opcode::Store: {
                    // Null checks for derefs of runtime pointers.
                    const Inst *root = addressRoot(defs, inst.a);
                    bool runtime_ptr =
                        !root || root->op == Opcode::Load ||
                        root->op == Opcode::Call ||
                        root->op == Opcode::Malloc;
                    covNullNeeded[vi].branch(runtime_ptr);
                    if (!runtime_ptr)
                        break;
                    if (ctx.bugs.active(
                            BugId::
                                LlvmUbsanCompoundAssignNullSkipped)) {
                        // Figure 12e: the pointer feeds both a load
                        // and a store (++(*p)).
                        bool load_use = false, store_use = false;
                        for (const Inst &other : body) {
                            if (!inst.a.isReg() || !other.a.isReg() ||
                                other.a.reg != inst.a.reg)
                                continue;
                            load_use |= other.op == Opcode::Load;
                            store_use |= other.op == Opcode::Store;
                        }
                        if (load_use && store_use) {
                            ctx.fire(
                                BugId::
                                    LlvmUbsanCompoundAssignNullSkipped,
                                inst.loc);
                            break;
                        }
                    }
                    covNull[vi].hit();
                    Inst chk;
                    chk.op = Opcode::UbsanNull;
                    chk.a = inst.a;
                    chk.loc = inst.loc;
                    out.push_back(chk);
                    break;
                  }
                  case Opcode::MemCopy: {
                    if (ctx.bugs.active(
                            BugId::LlvmUbsanStructPtrNullSkipped)) {
                        ctx.fire(BugId::LlvmUbsanStructPtrNullSkipped,
                                 inst.loc);
                        break;
                    }
                    covNull[vi].hit();
                    for (const Value *addr : {&inst.a, &inst.b}) {
                        const Inst *root = addressRoot(defs, *addr);
                        bool runtime_ptr =
                            !root || root->op == Opcode::Load ||
                            root->op == Opcode::Call ||
                            root->op == Opcode::Malloc;
                        if (!runtime_ptr)
                            continue;
                        Inst chk;
                        chk.op = Opcode::UbsanNull;
                        chk.a = *addr;
                        chk.loc = inst.loc;
                        out.push_back(chk);
                    }
                    break;
                  }
                  default:
                    break;
                }
                defs.note(inst);
                out.push_back(inst);
            }
            g.blocks[b] = {begin,
                           static_cast<uint32_t>(out.size()) - begin};
        }
        g.insts = std::move(out);
    }
}

// MSan is LLVM-only (§4.1), so its coverage sites live only in the
// llvm slice — a gcc.msan site could never be hit and would distort
// the Table 5 universe.
static ubfuzz::CovSite covMsanRun("llvm.msan.run", CovKind::Function);
static ubfuzz::CovSite covMsanBranch("llvm.msan.branch_check",
                                     CovKind::Line);

void
runMsanPass(const Module &src, Module &m, const SanitizerContext &ctx)
{
    covMsanRun.hit();
    m.msan.enabled = true;
    if (ctx.bugs.active(BugId::LlvmMsanSubConstDefined)) {
        // Figure 12f: the optimized propagation path treats x - const
        // as producing fully defined bits.
        m.msan.bugSubConstDefined = true;
        ctx.fire(BugId::LlvmMsanSubConstDefined);
    }
    for (size_t fi = 0; fi < m.functions.size(); fi++) {
        const Function &f = src.functions[fi];
        // The new body, sized for one check per branch or checksum.
        size_t most = f.insts.size();
        for (const Inst &inst : f.insts)
            most += inst.op == Opcode::CondBr ||
                            inst.op == Opcode::Checksum
                        ? 1
                        : 0;
        std::vector<Inst> out;
        out.reserve(most);
        Function &g = m.functions[fi];
        for (size_t b = 0; b < f.blocks.size(); b++) {
            const uint32_t begin = static_cast<uint32_t>(out.size());
            for (const Inst &inst : f.instsOf(f.blocks[b])) {
                if ((inst.op == Opcode::CondBr ||
                     inst.op == Opcode::Checksum) &&
                    inst.a.isReg()) {
                    covMsanBranch.hit();
                    Inst chk;
                    chk.op = Opcode::MsanCheck;
                    chk.a = inst.a;
                    chk.loc = inst.loc;
                    out.push_back(chk);
                }
                out.push_back(inst);
            }
            g.blocks[b] = {begin,
                           static_cast<uint32_t>(out.size()) - begin};
        }
        g.insts = std::move(out);
    }
}

} // namespace ubfuzz::san
