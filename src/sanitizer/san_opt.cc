#include "sanitizer/sanitizer.h"

#include <algorithm>

#include "sanitizer/pass_util.h"
#include "support/coverage.h"
#include "support/diagnostics.h"

namespace ubfuzz::san {

using ir::BasicBlock;
using ir::Function;
using ir::Inst;
using ir::Module;
using ir::Opcode;
using ir::Value;
using ast::BinaryOp;

static ubfuzz::CovSite covRun[2] = {
    {"gcc.sanopt.run", CovKind::Function},
    {"llvm.sanopt.run", CovKind::Function}};
static ubfuzz::CovSite covDupRemoved[2] = {
    {"gcc.sanopt.dup_check_removed", CovKind::Line},
    {"llvm.sanopt.dup_check_removed", CovKind::Line}};
static ubfuzz::CovSite covStaticSafe[2] = {
    {"gcc.sanopt.static_safe_removed", CovKind::Line},
    {"llvm.sanopt.static_safe_removed", CovKind::Line}};
static ubfuzz::CovSite covStaticKept[2] = {
    {"gcc.sanopt.static_unsafe_kept", CovKind::Branch},
    {"llvm.sanopt.static_unsafe_kept", CovKind::Branch}};

namespace {

/** Statically evaluate a check with all-immediate operands.
 *  @return 0 unknown, 1 provably safe (removable), 2 provably UB. */
int
staticCheckVerdict(const Inst &chk)
{
    switch (chk.op) {
      case Opcode::UbsanArith: {
        if (!chk.a.isImm() || !chk.b.isImm())
            return 0;
        if (!ast::scalarSigned(chk.kind))
            return 1;
        int bits = ast::scalarBits(chk.kind);
        __int128 a = static_cast<int64_t>(
            ir::canonicalValue(chk.a.imm, chk.kind));
        __int128 b = static_cast<int64_t>(
            ir::canonicalValue(chk.b.imm, chk.kind));
        __int128 r = chk.binOp == BinaryOp::Add   ? a + b
                     : chk.binOp == BinaryOp::Sub ? a - b
                                                  : a * b;
        __int128 lo = -(static_cast<__int128>(1) << (bits - 1));
        __int128 hi = (static_cast<__int128>(1) << (bits - 1)) - 1;
        return (r < lo || r > hi) ? 2 : 1;
      }
      case Opcode::UbsanShift: {
        if (!chk.b.isImm())
            return 0;
        int64_t count = static_cast<int64_t>(chk.b.imm);
        return (count < 0 || count >= ast::scalarBits(chk.kind)) ? 2 : 1;
      }
      case Opcode::UbsanDiv: {
        if (!chk.b.isImm())
            return 0;
        return ir::canonicalValue(chk.b.imm, chk.kind) == 0 ? 2 : 1;
      }
      case Opcode::UbsanBounds: {
        if (!chk.a.isImm())
            return 0;
        int64_t idx = static_cast<int64_t>(chk.a.imm);
        return (idx < 0 || static_cast<uint64_t>(idx) >= chk.imm) ? 2
                                                                  : 1;
      }
      case Opcode::UbsanNull:
        if (!chk.a.isImm())
            return 0;
        return chk.a.imm == 0 ? 2 : 1;
      default:
        return 0;
    }
}

} // namespace

void
runSanOpt(Module &m, const SanitizerContext &ctx)
{
    int vi = ctx.bugs.vendor() == Vendor::LLVM ? 1 : 0;
    covRun[vi].hit();

    // Every module runs through here, so the two bugs asked about
    // outside a check of their own sanitizer are asked only of theirs
    // (ActiveBugs panics on another sanitizer's bug). Elsewhere the
    // answer could not matter: a module without AsanChecks has no
    // checked addresses to keep across a free(), and one without
    // UbsanArith checks none to drop.
    const bool dupAcrossFreeBug =
        ctx.kind == SanitizerKind::ASan &&
        ctx.bugs.active(BugId::GccAsanSanOptDupAcrossFree);
    const bool widenedResultBug =
        ctx.kind == SanitizerKind::UBSan &&
        ctx.bugs.active(BugId::GccUbsanSanOptWidenedResultRemoved);

    DefMap defs;
    // ASan duplicate elimination state, per block. Checked addresses
    // are keyed by pointer provenance: "the pointer loaded from object
    // X" — two derefs of the same pointer variable are the same check
    // even when loads were not CSE'd. A block holds a handful of
    // checks, so these are sets kept as plain vectors.
    std::vector<uint64_t> checkedAddr;
    std::vector<uint32_t> checkedGepBase;
    auto contains = [](const auto &set, auto x) {
        return std::find(set.begin(), set.end(), x) != set.end();
    };
    auto clearChecked = [&] {
        checkedAddr.clear();
        checkedGepBase.clear();
    };
    for (Function &f : m.functions) {
        // Sanopt only drops checks, so it compacts the body in place,
        // like any erasing pass: each kept instruction moves down to
        // slot w, never past its own, and the block ranges are
        // rewritten to match. `defs` points at the kept copies in the
        // compacted prefix [0, w), which no later write touches; a
        // dropped check defines no register, so it is never noted.
        uint32_t w = 0;
        for (BasicBlock &bb : f.blocks) {
            const uint32_t begin = w;
            defs.reset(f.numRegs);
            clearChecked();
            bool free_since_clear = false;
            int arith_checks_in_block = 0;

            // Provenance key for an address register: the variable
            // slot its pointer was loaded from, or the register id.
            auto addrKey = [&](const DefMap &d,
                               const Value &addr) -> uint64_t {
                const Inst *def = d.def(addr);
                if (def && def->op == Opcode::Load) {
                    const Inst *src = d.def(def->a);
                    if (src && src->op == Opcode::FrameAddr)
                        return 0x1000000000ULL | src->object;
                    if (src && src->op == Opcode::GlobalAddr)
                        return 0x2000000000ULL | src->object;
                }
                return addr.isReg() ? addr.reg : ~0ULL;
            };

            for (uint32_t r = bb.begin; r < bb.begin + bb.count; r++) {
                const Inst &inst = f.insts[r];
                bool drop = false;
                switch (inst.op) {
                  case Opcode::AsanCheck: {
                    if (!inst.a.isReg())
                        break;
                    uint64_t key = (addrKey(defs, inst.a) << 8) |
                                   (inst.imm & 0xFF);
                    if (contains(checkedAddr, key)) {
                        // A same-address, same-size check already ran.
                        // Correct unless a free() happened in between
                        // (the GccAsanSanOptDupAcrossFree defect keeps
                        // us from invalidating the cache there).
                        covDupRemoved[vi].hit();
                        drop = true;
                        if (free_since_clear) {
                            ctx.fire(
                                BugId::GccAsanSanOptDupAcrossFree,
                                inst.loc);
                        }
                        break;
                    }
                    const Inst *adef = defs.def(inst.a);
                    if (ctx.bugs.active(
                            BugId::GccAsanSanOptConstGepRemoved) &&
                        adef && adef->op == Opcode::Gep &&
                        adef->b.isImm()) {
                        const Inst *base = defs.def(adef->a);
                        if (base &&
                            (base->op == Opcode::FrameAddr ||
                             base->op == Opcode::GlobalAddr)) {
                            // "Constant index is provably in bounds"
                            // — without consulting the bound.
                            ctx.fire(
                                BugId::GccAsanSanOptConstGepRemoved,
                                inst.loc);
                            drop = true;
                            break;
                        }
                    }
                    if (ctx.bugs.active(
                            BugId::LlvmAsanSanOptSameBaseRemoved) &&
                        adef && adef->op == Opcode::Gep &&
                        adef->a.isReg() &&
                        contains(checkedGepBase, adef->a.reg)) {
                        ctx.fire(BugId::LlvmAsanSanOptSameBaseRemoved,
                                 inst.loc);
                        drop = true;
                        break;
                    }
                    checkedAddr.push_back(key);
                    if (adef && adef->op == Opcode::Gep &&
                        adef->a.isReg() &&
                        !contains(checkedGepBase, adef->a.reg))
                        checkedGepBase.push_back(adef->a.reg);
                    break;
                  }
                  case Opcode::UbsanArith: {
                    int verdict = staticCheckVerdict(inst);
                    covStaticKept[vi].branch(verdict == 2);
                    if (verdict == 1) {
                        covStaticSafe[vi].hit();
                        drop = true;
                        break;
                    }
                    arith_checks_in_block++;
                    if (ctx.bugs.active(
                            BugId::LlvmUbsanCheckBudgetDropped) &&
                        arith_checks_in_block > 4) {
                        ctx.fire(BugId::LlvmUbsanCheckBudgetDropped,
                                 inst.loc);
                        drop = true;
                    }
                    break;
                  }
                  case Opcode::UbsanShift:
                  case Opcode::UbsanDiv:
                  case Opcode::UbsanBounds:
                  case Opcode::UbsanNull: {
                    int verdict = staticCheckVerdict(inst);
                    covStaticKept[vi].branch(verdict == 2);
                    if (verdict == 1) {
                        covStaticSafe[vi].hit();
                        drop = true;
                    }
                    break;
                  }
                  case Opcode::Store: {
                    // A store may overwrite a pointer variable and
                    // stale the provenance-keyed cache: a store to a
                    // variable slot forgets that variable's checks of
                    // sizes 0-8, any other wide store forgets them
                    // all. Type-based reasoning keeps the cache alive
                    // for narrow stores (they cannot hold a pointer).
                    const Inst *dest = defs.def(inst.a);
                    auto forget = [&](uint64_t provenance) {
                        std::erase_if(checkedAddr, [&](uint64_t k) {
                            return (k >> 8) == provenance &&
                                   (k & 0xFF) <= 8;
                        });
                    };
                    if (dest && dest->op == Opcode::FrameAddr)
                        forget(0x1000000000ULL | dest->object);
                    else if (dest && dest->op == Opcode::GlobalAddr)
                        forget(0x2000000000ULL | dest->object);
                    else if (inst.imm >= 8)
                        clearChecked();
                    break;
                  }
                  case Opcode::LifetimeStart:
                    // Unpoisoning only: previously valid checks stay
                    // valid, the cache survives.
                    break;
                  case Opcode::Free:
                  case Opcode::Call:
                  case Opcode::Malloc:
                  case Opcode::MemCopy:
                  case Opcode::LifetimeEnd: {
                    if (inst.op == Opcode::Free && dupAcrossFreeBug) {
                        // Defect: the check cache survives free().
                        free_since_clear = true;
                    } else {
                        clearChecked();
                        free_since_clear = false;
                    }
                    break;
                  }
                  default:
                    break;
                }
                if (drop)
                    continue;
                if (w != r)
                    f.insts[w] = inst;
                defs.note(f.insts[w++]);
            }

            // GccUbsanSanOptWidenedResultRemoved: remove an arith
            // check when its guarded Bin's result feeds only a
            // widening Cast. Compacts the block in place again: slot
            // `kept` is written only after every slot up to i >= kept
            // was read, and the scan reads ahead of i only.
            if (widenedResultBug) {
                const std::span<const Inst> insts(f.insts.data() + begin,
                                                  w - begin);
                uint32_t kept = begin;
                for (size_t i = 0; i < insts.size(); i++) {
                    const Inst &chk = insts[i];
                    if (chk.op == Opcode::UbsanArith &&
                        i + 1 < insts.size()) {
                        const Inst &bin = insts[i + 1];
                        if (bin.op == Opcode::Bin && bin.dst) {
                            // Count uses and find the lone use.
                            const Inst *lone = nullptr;
                            int uses = 0;
                            for (size_t j = i + 2; j < insts.size();
                                 j++) {
                                const Inst &u = insts[j];
                                auto scan = [&](const Value &v) {
                                    if (v.isReg() &&
                                        v.reg == bin.dst) {
                                        uses++;
                                        lone = &u;
                                    }
                                };
                                scan(u.a);
                                scan(u.b);
                                scan(u.c);
                                for (const Value &arg : f.argsOf(u))
                                    scan(arg);
                            }
                            if (uses == 1 && lone &&
                                lone->op == Opcode::Cast &&
                                ast::scalarBits(lone->kind) >
                                    ast::scalarBits(bin.kind)) {
                                ctx.fire(
                                    BugId::
                                        GccUbsanSanOptWidenedResultRemoved,
                                    chk.loc);
                                continue; // drop the check
                            }
                        }
                    }
                    f.insts[kept++] = chk;
                }
                w = kept;
            }
            bb = {begin, w - begin};
        }
        f.insts.resize(w);
    }
}

Module
instrument(const Module &src, const SanitizerContext &ctx)
{
    // A module that already went through a sanitizer pass can never go
    // through one again.
    UBF_ASSERT(src.instrumentedWith == SanitizerKind::None,
               "module already instrumented with ",
               sanitizerName(src.instrumentedWith));
    if (ctx.kind == SanitizerKind::None)
        return ir::cloneModule(src);
    // Every instrumenting pass writes each body anew, so the bodies of
    // @p src are read, never copied.
    Module m = ir::cloneModuleWithoutBodies(src);
    m.instrumentedWith = ctx.kind;
    switch (ctx.kind) {
      case SanitizerKind::None:
        break;
      case SanitizerKind::ASan:
        runAsanPass(src, m, ctx);
        break;
      case SanitizerKind::UBSan:
        runUbsanPass(src, m, ctx);
        break;
      case SanitizerKind::MSan:
        runMsanPass(src, m, ctx);
        break;
    }
    runSanOpt(m, ctx);
    return m;
}

} // namespace ubfuzz::san
