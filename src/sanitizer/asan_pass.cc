#include "sanitizer/sanitizer.h"

#include <algorithm>

#include "sanitizer/pass_util.h"
#include "support/coverage.h"

namespace ubfuzz::san {

using ir::BasicBlock;
using ir::Function;
using ir::Inst;
using ir::Module;
using ir::Opcode;
using ir::Value;

// Coverage sites, one per vendor so Table 5 can slice per compiler.
static ubfuzz::CovSite covRun[2] = {
    {"gcc.asan.run", CovKind::Function},
    {"llvm.asan.run", CovKind::Function}};
static ubfuzz::CovSite covLoad[2] = {
    {"gcc.asan.instrument_load", CovKind::Line},
    {"llvm.asan.instrument_load", CovKind::Line}};
static ubfuzz::CovSite covStore[2] = {
    {"gcc.asan.instrument_store", CovKind::Line},
    {"llvm.asan.instrument_store", CovKind::Line}};
static ubfuzz::CovSite covMemCopy[2] = {
    {"gcc.asan.instrument_memcopy", CovKind::Line},
    {"llvm.asan.instrument_memcopy", CovKind::Line}};
static ubfuzz::CovSite covWide[2] = {
    {"gcc.asan.wide_access", CovKind::Branch},
    {"llvm.asan.wide_access", CovKind::Branch}};
static ubfuzz::CovSite covStackRz[2] = {
    {"gcc.asan.stack_redzone", CovKind::Line},
    {"llvm.asan.stack_redzone", CovKind::Line}};
static ubfuzz::CovSite covGlobalRz[2] = {
    {"gcc.asan.global_redzone", CovKind::Line},
    {"llvm.asan.global_redzone", CovKind::Line}};
static ubfuzz::CovSite covScope[2] = {
    {"gcc.asan.scope_poison", CovKind::Branch},
    {"llvm.asan.scope_poison", CovKind::Branch}};
static ubfuzz::CovSite covDirectSkip[2] = {
    {"gcc.asan.direct_access_skip", CovKind::Branch},
    {"llvm.asan.direct_access_skip", CovKind::Branch}};

namespace {

/**
 * Frame objects whose address is stored into a *global* (directly or
 * through a global pointer). Used by the LlvmAsanEscapedScopeNoPoison
 * defect: the buggy escape analysis concludes that locals escaping
 * into global state need no scope poisoning. One per runAsanPass
 * invocation; its tables are reused for every block.
 */
class FrameEscapes
{
  public:
    /** escaped[o] for every frame object o of @p f; valid until the
     *  next call. */
    const std::vector<uint8_t> &
    compute(const Function &f)
    {
        escaped_.assign(f.frame.size(), 0);
        for (const BasicBlock &bb : f.blocks) {
            root_.reset(f.numRegs);
            globalAddrs_.reset(f.numRegs);
            for (const Inst &inst : f.instsOf(bb)) {
                switch (inst.op) {
                  case Opcode::FrameAddr:
                    root_.set(inst.dst, inst.object);
                    break;
                  case Opcode::GlobalAddr:
                    globalAddrs_.set(inst.dst, true);
                    break;
                  case Opcode::Gep:
                  case Opcode::Cast:
                    if (const uint32_t *r = rootOf(inst.a))
                        root_.set(inst.dst, *r);
                    if (isGlobalAddr(inst.a))
                        globalAddrs_.set(inst.dst, true);
                    break;
                  case Opcode::Store:
                    if (const uint32_t *r = rootOf(inst.b);
                        r && isGlobalAddr(inst.a))
                        escaped_[*r] = 1;
                    break;
                  default:
                    break;
                }
            }
        }
        return escaped_;
    }

  private:
    const uint32_t *
    rootOf(const Value &v) const
    {
        return v.isReg() ? root_.find(v.reg) : nullptr;
    }

    bool
    isGlobalAddr(const Value &v) const
    {
        return v.isReg() && globalAddrs_.contains(v.reg);
    }

    /** Register -> the frame object its address chain roots at. */
    ir::RegTable<uint32_t> root_;
    /** Registers holding an address derived from a global. */
    ir::RegTable<bool> globalAddrs_;
    std::vector<uint8_t> escaped_;
};

} // namespace

void
runAsanPass(const Module &src, Module &m, const SanitizerContext &ctx)
{
    int vi = ctx.bugs.vendor() == Vendor::LLVM ? 1 : 0;
    covRun[vi].hit();

    // Global redzones (poisoned at module load by the VM runtime).
    for (ir::GlobalObject &g : m.globals) {
        covGlobalRz[vi].hit();
        g.redzone = 32;
        if (ctx.bugs.active(BugId::LlvmAsanGlobalSmallArrayRedzoneSkip) &&
            g.size <= 32) {
            // Figure 12d: the first redzone bytes past small global
            // arrays are wrongly treated as valid padding.
            g.poisonSkip = 8;
            ctx.fire(BugId::LlvmAsanGlobalSmallArrayRedzoneSkip);
        }
    }
    m.asanGlobals = true;
    m.asanHeap = true;

    const bool adjacentStoreBug =
        ctx.bugs.active(BugId::LlvmAsanAdjacentStoreNoCheck);
    const bool escapedScopeBug =
        ctx.bugs.active(BugId::LlvmAsanEscapedScopeNoPoison);
    ir::CycleFinder cycles;
    FrameEscapes escapes;
    DefMap defs;
    // Frame (2o) and global (2o + 1) objects already store-checked in
    // the current block, for the adjacent-store bug.
    ir::RegTable<bool> checkedStoreObjects;
    for (size_t fi = 0; fi < m.functions.size(); fi++) {
        const Function &sf = src.functions[fi];
        Function &f = m.functions[fi];
        // Stack redzones for source-level objects (compiler temps stay
        // plain, like spill slots in real ASan).
        for (ir::FrameObject &obj : f.frame) {
            if (!obj.declId)
                continue;
            covStackRz[vi].hit();
            obj.redzone = 32;
            if (ctx.bugs.active(
                    BugId::GccAsanStackRedzoneMultiple32) &&
                obj.size >= 16 && obj.size % 16 == 0) {
                obj.redzone = 8;
                ctx.fire(BugId::GccAsanStackRedzoneMultiple32);
            }
        }

        // Read only by the escaped-scope bug.
        const std::vector<uint8_t> *escaped =
            escapedScopeBug ? &escapes.compute(sf) : nullptr;
        const uint32_t numObjectKeys = static_cast<uint32_t>(
            2 * std::max(f.frame.size(), m.globals.size()));

        // The new body, sized for the most checks the old one can
        // gain: one per Load or Store, two per MemCopy. The loop reads
        // the old body from @p src, so the instructions `defs` points
        // at stay put.
        size_t most = sf.insts.size();
        bool scopeEnds = false;
        for (const Inst &inst : sf.insts) {
            most += inst.op == Opcode::MemCopy ? 2
                    : inst.op == Opcode::Load || inst.op == Opcode::Store
                        ? 1
                        : 0;
            scopeEnds |= inst.op == Opcode::LifetimeEnd;
        }
        // Read only at LifetimeEnd markers, which many functions lack.
        const std::vector<uint8_t> *cyclic =
            scopeEnds ? &cycles.cyclicBlocks(sf) : nullptr;
        std::vector<Inst> out;
        out.reserve(most);
        for (size_t b = 0; b < sf.blocks.size(); b++) {
            const std::span<const Inst> body = sf.instsOf(sf.blocks[b]);
            const uint32_t begin = static_cast<uint32_t>(out.size());
            defs.reset(f.numRegs);
            checkedStoreObjects.reset(numObjectKeys);
            SourceLoc block_first_loc =
                body.empty() ? SourceLoc{} : body.front().loc;

            auto emitCheck = [&](Value addr, uint64_t size, bool write,
                                 SourceLoc loc) {
                Inst chk;
                chk.op = Opcode::AsanCheck;
                chk.a = addr;
                chk.imm = size;
                chk.flag = write;
                chk.loc = loc;
                out.push_back(chk);
            };

            for (const Inst &inst : body) {
                switch (inst.op) {
                  case Opcode::Load: {
                    covLoad[vi].hit();
                    covWide[vi].branch(inst.imm >= 8);
                    const Inst *root = addressRoot(defs, inst.a);
                    bool direct_scalar =
                        root &&
                        (root->op == Opcode::FrameAddr ||
                         root->op == Opcode::GlobalAddr) &&
                        defs.def(inst.a) == root;
                    covDirectSkip[vi].branch(direct_scalar);
                    if (direct_scalar)
                        break; // provably in-bounds direct slot access
                    const Inst *adef = defs.def(inst.a);
                    if (ctx.bugs.active(
                            BugId::LlvmAsanParamPtrGepLoadNoCheck) &&
                        adef && adef->op == Opcode::Gep &&
                        adef->b.isReg()) {
                        const Inst *base = defs.def(adef->a);
                        const Inst *baseaddr =
                            base && base->op == Opcode::Load
                                ? defs.def(base->a)
                                : nullptr;
                        if (baseaddr &&
                            baseaddr->op == Opcode::FrameAddr &&
                            baseaddr->object < f.numParams) {
                            ctx.fire(
                                BugId::LlvmAsanParamPtrGepLoadNoCheck,
                                inst.loc);
                            break;
                        }
                    }
                    uint64_t size = inst.imm;
                    Value addr = inst.a;
                    if (ctx.bugs.active(
                            BugId::GccAsanWideLoadCheckSkipped) &&
                        size == 8) {
                        // Zero-width shadow check: never fires.
                        size = 0;
                        ctx.fire(BugId::GccAsanWideLoadCheckSkipped,
                                 inst.loc);
                    }
                    if (ctx.bugs.active(
                            BugId::LlvmAsanCharPtrBaseChecked) &&
                        inst.imm == 1 && adef &&
                        adef->op == Opcode::Gep && adef->b.isReg()) {
                        addr = adef->a;
                        ctx.fire(BugId::LlvmAsanCharPtrBaseChecked,
                                 inst.loc);
                    }
                    emitCheck(addr, size, false, inst.loc);
                    break;
                  }
                  case Opcode::Store: {
                    covStore[vi].hit();
                    covWide[vi].branch(inst.imm >= 8);
                    const Inst *root = addressRoot(defs, inst.a);
                    bool direct_scalar =
                        root &&
                        (root->op == Opcode::FrameAddr ||
                         root->op == Opcode::GlobalAddr) &&
                        defs.def(inst.a) == root;
                    covDirectSkip[vi].branch(direct_scalar);
                    if (direct_scalar)
                        break;
                    const Inst *adef = defs.def(inst.a);
                    if (ctx.bugs.active(
                            BugId::GccAsanGlobalPtrStoreNoCheck) &&
                        adef) {
                        // Figure 12a: the address was loaded from a
                        // global pointer variable.
                        const Inst *chase = adef;
                        if (chase->op == Opcode::Gep)
                            chase = defs.def(chase->a);
                        if (chase && chase->op == Opcode::Load) {
                            const Inst *pdef = defs.def(chase->a);
                            if (pdef &&
                                pdef->op == Opcode::GlobalAddr) {
                                ctx.fire(
                                    BugId::GccAsanGlobalPtrStoreNoCheck,
                                    inst.loc);
                                break;
                            }
                        }
                    }
                    auto object_key = [](const Inst *r) -> uint32_t {
                        if (!r)
                            return UINT32_MAX;
                        if (r->op == Opcode::FrameAddr)
                            return r->object * 2;
                        if (r->op == Opcode::GlobalAddr)
                            return r->object * 2 + 1;
                        return UINT32_MAX;
                    };
                    uint32_t okey = object_key(root);
                    if (adjacentStoreBug && okey != UINT32_MAX) {
                        if (checkedStoreObjects.contains(okey)) {
                            ctx.fire(
                                BugId::LlvmAsanAdjacentStoreNoCheck,
                                inst.loc);
                            break;
                        }
                        checkedStoreObjects.set(okey, true);
                    }
                    Value addr = inst.a;
                    if (ctx.bugs.active(
                            BugId::LlvmAsanCharPtrBaseChecked) &&
                        inst.imm == 1 && adef &&
                        adef->op == Opcode::Gep && adef->b.isReg()) {
                        addr = adef->a;
                        ctx.fire(BugId::LlvmAsanCharPtrBaseChecked,
                                 inst.loc);
                    }
                    emitCheck(addr, inst.imm, true, inst.loc);
                    break;
                  }
                  case Opcode::MemCopy: {
                    covMemCopy[vi].hit();
                    const Inst *src_root = addressRoot(defs, inst.b);
                    const Inst *dst_root = addressRoot(defs, inst.a);
                    auto runtime_root = [](const Inst *r) {
                        return !r || r->op == Opcode::Load ||
                               r->op == Opcode::Call ||
                               r->op == Opcode::Malloc;
                    };
                    if (ctx.bugs.active(
                            BugId::GccAsanStructCopyNoCheck) &&
                        (runtime_root(src_root) ||
                         runtime_root(dst_root))) {
                        // Figure 1: aggregate copies through runtime
                        // pointers escape instrumentation entirely.
                        ctx.fire(BugId::GccAsanStructCopyNoCheck,
                                 inst.loc);
                        break;
                    }
                    SourceLoc loc = inst.loc;
                    if (ctx.bugs.active(
                            BugId::GccAsanMemCopyCheckWrongLoc)) {
                        loc = block_first_loc;
                        ctx.fire(BugId::GccAsanMemCopyCheckWrongLoc,
                                 inst.loc);
                    }
                    emitCheck(inst.b, inst.imm, false, loc);
                    emitCheck(inst.a, inst.imm, true, loc);
                    break;
                  }
                  case Opcode::LifetimeEnd: {
                    bool in_loop = (*cyclic)[b];
                    covScope[vi].branch(in_loop);
                    if (ctx.bugs.active(
                            BugId::GccAsanScopePoisonLoopRemoved) &&
                        in_loop && f.frame[inst.object].size > 8) {
                        // Figure 12c: the scope poisoning is removed
                        // when leaving the loop.
                        ctx.fire(BugId::GccAsanScopePoisonLoopRemoved);
                        continue; // drop the marker entirely
                    }
                    if (escapedScopeBug && (*escaped)[inst.object]) {
                        ctx.fire(BugId::LlvmAsanEscapedScopeNoPoison);
                        continue;
                    }
                    break;
                  }
                  default:
                    break;
                }
                defs.note(inst);
                out.push_back(inst);
            }
            f.blocks[b] = {begin,
                           static_cast<uint32_t>(out.size()) - begin};
        }
        f.insts = std::move(out);
    }
}

} // namespace ubfuzz::san
