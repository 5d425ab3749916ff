#include "vm/bytecode.h"

#include <algorithm>
#include <iterator>

#include "support/diagnostics.h"

namespace ubfuzz::vm {

namespace bc {

using ir::Inst;
using ir::Opcode;
using ir::Value;

bool
opcodeHasHandler(ir::Opcode op)
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::Const:
      case Opcode::Bin:
      case Opcode::Cast:
      case Opcode::Select:
      case Opcode::FrameAddr:
      case Opcode::GlobalAddr:
      case Opcode::Gep:
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::MemCopy:
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Ret:
      case Opcode::Call:
      case Opcode::Malloc:
      case Opcode::Free:
      case Opcode::Checksum:
      case Opcode::LogVal:
      case Opcode::LogPtr:
      case Opcode::LogBuf:
      case Opcode::LogScopeEnter:
      case Opcode::LogScopeExit:
      case Opcode::LifetimeStart:
      case Opcode::LifetimeEnd:
      case Opcode::AsanCheck:
      case Opcode::UbsanArith:
      case Opcode::UbsanShift:
      case Opcode::UbsanDiv:
      case Opcode::UbsanNull:
      case Opcode::UbsanBounds:
      case Opcode::MsanCheck:
      case Opcode::HardenCheck:
        return true;
      default:
        // An opcode added to the IR without a flattener handler lands
        // here: translation panics (see translate) and the
        // exhaustiveness test fails until a handler exists.
        return false;
    }
}

namespace {

/** Pick the reg/imm-specialized opcode for a two-operand shape. */
BOp
shape2(const Value &a, const Value &b, BOp rr, BOp ri, BOp ir, BOp ii)
{
    if (a.isImm())
        return b.isImm() ? ii : ir;
    return b.isImm() ? ri : rr;
}

} // namespace

Program
translate(const ir::Module &m)
{
    UBF_ASSERT(m.mainIndex >= 0, "translating a module without main");
    Program p;
    p.mainIndex = m.mainIndex;
    p.asanGlobals = m.asanGlobals;
    p.asanHeap = m.asanHeap;
    p.msan = m.msan;
    p.globals = m.globals;

    // Pass 1: lay out the flat pc space — functions in order, each
    // function's blocks in order — so branch targets and call entries
    // resolve to absolute pcs.
    std::vector<std::vector<uint32_t>> blockStart(m.functions.size());
    uint32_t pc = 0;
    p.functions.reserve(m.functions.size());
    for (size_t fi = 0; fi < m.functions.size(); fi++) {
        const ir::Function &fn = m.functions[fi];
        BFunction bf;
        bf.entryPc = pc;
        bf.numRegs = fn.numRegs;
        bf.numParams = fn.numParams;
        bf.frame = fn.frame;
        p.functions.push_back(std::move(bf));
        blockStart[fi].reserve(fn.blocks.size());
        for (const ir::BasicBlock &bb : fn.blocks) {
            blockStart[fi].push_back(pc);
            pc += bb.count;
        }
    }
    p.code.reserve(pc);
    p.locs.reserve(pc);

    // Pass 2: translate every instruction into one fixed-size record.
    for (size_t fi = 0; fi < m.functions.size(); fi++) {
        const ir::Function &fn = m.functions[fi];
        for (const ir::BasicBlock &bb : fn.blocks) {
            for (const Inst &inst : fn.instsOf(bb)) {
                if (!opcodeHasHandler(inst.op)) {
                    UBF_PANIC("no bytecode handler for opcode #",
                              static_cast<int>(inst.op));
                }
                BInst bi;
                bi.kind = inst.kind;
                bi.binOp = inst.binOp;
                bi.bits = static_cast<uint8_t>(ast::scalarBits(inst.kind));
                bi.dst = inst.dst;
                bi.imm = inst.imm;
                if (inst.flag)
                    bi.flags |= kOpIrFlag;
                if (inst.loc.isValid())
                    bi.flags |= kOpLocValid;
                if (ast::scalarSigned(inst.kind))
                    bi.flags |= kOpSigned;
                if (ast::isComparisonOp(inst.binOp))
                    bi.flags |= kOpCmp;
                if (ast::isArithOp(inst.binOp))
                    bi.flags |= kOpArith;
                if (ast::isShiftOp(inst.binOp))
                    bi.flags |= kOpShift;
                if (ast::isDivRemOp(inst.binOp))
                    bi.flags |= kOpDivRem;

                // Operand pre-decoding for shape-generic opcodes:
                // immediates move into the record (a -> x, b -> y,
                // c -> imm), registers keep their id.
                auto opA = [&bi](const Value &v) {
                    if (v.isImm()) {
                        bi.flags |= kOpAImm;
                        bi.x = v.imm;
                    } else {
                        bi.a = v.reg;
                    }
                };
                auto opB = [&bi](const Value &v) {
                    if (v.isImm()) {
                        bi.flags |= kOpBImm;
                        bi.y = v.imm;
                    } else {
                        bi.b = v.reg;
                    }
                };
                auto opC = [&bi](const Value &v) {
                    if (v.isImm()) {
                        bi.flags |= kOpCImm;
                        bi.imm = v.imm;
                    } else {
                        bi.c = v.reg;
                    }
                };

                switch (inst.op) {
                  case Opcode::Nop:
                    bi.op = BOp::Nop;
                    break;
                  case Opcode::Const:
                    bi.op = BOp::ConstK;
                    // The only canonicalization the reference applies
                    // to a Const happens at translation time.
                    bi.x = ir::canonicalValue(inst.imm, inst.kind);
                    break;
                  case Opcode::Cast:
                    bi.op = inst.a.isImm() ? BOp::CastI : BOp::CastR;
                    opA(inst.a);
                    break;
                  case Opcode::Select:
                    bi.op = BOp::Select;
                    opA(inst.a);
                    opB(inst.b);
                    opC(inst.c);
                    break;
                  case Opcode::Bin:
                    bi.op = shape2(inst.a, inst.b, BOp::BinRR,
                                   BOp::BinRI, BOp::BinIR, BOp::BinII);
                    opA(inst.a);
                    opB(inst.b);
                    break;
                  case Opcode::FrameAddr:
                    bi.op = BOp::FrameAddr;
                    bi.t0 = inst.object;
                    break;
                  case Opcode::GlobalAddr:
                    bi.op = BOp::GlobalAddr;
                    bi.t0 = inst.object;
                    break;
                  case Opcode::Gep:
                    bi.op = shape2(inst.a, inst.b, BOp::GepRR,
                                   BOp::GepRI, BOp::GepIR, BOp::GepII);
                    opA(inst.a);
                    opB(inst.b);
                    break;
                  case Opcode::Load:
                    bi.op = inst.a.isImm() ? BOp::LoadI : BOp::LoadR;
                    opA(inst.a);
                    break;
                  case Opcode::Store:
                    bi.op = shape2(inst.a, inst.b, BOp::StoreRR,
                                   BOp::StoreRI, BOp::StoreIR,
                                   BOp::StoreII);
                    opA(inst.a);
                    opB(inst.b);
                    break;
                  case Opcode::MemCopy:
                    bi.op = BOp::MemCopy;
                    opA(inst.a);
                    opB(inst.b);
                    break;
                  case Opcode::Br:
                    bi.op = BOp::Br;
                    bi.t0 = blockStart[fi][inst.targets[0]];
                    break;
                  case Opcode::CondBr:
                    bi.op = inst.a.isImm() ? BOp::CondBrI : BOp::CondBrR;
                    opA(inst.a);
                    bi.t0 = blockStart[fi][inst.targets[0]];
                    bi.t1 = blockStart[fi][inst.targets[1]];
                    break;
                  case Opcode::Ret:
                    if (inst.a.isNone()) {
                        bi.op = BOp::RetVoid;
                    } else {
                        bi.op = inst.a.isImm() ? BOp::RetI : BOp::RetR;
                        opA(inst.a);
                    }
                    break;
                  case Opcode::Call:
                    bi.op = BOp::Call;
                    bi.a = inst.callee;
                    bi.t0 = static_cast<uint32_t>(p.argPool.size());
                    bi.t1 = inst.argCount;
                    for (const Value &arg : fn.argsOf(inst)) {
                        UBF_ASSERT(!arg.isNone(),
                                   "empty call argument operand");
                        BArg ba;
                        if (arg.isImm()) {
                            ba.isImm = true;
                            ba.imm = arg.imm;
                        } else {
                            ba.reg = arg.reg;
                        }
                        p.argPool.push_back(ba);
                    }
                    break;
                  case Opcode::Malloc:
                    bi.op = BOp::Malloc;
                    opA(inst.a);
                    break;
                  case Opcode::Free:
                    bi.op = BOp::Free;
                    opA(inst.a);
                    break;
                  case Opcode::Checksum:
                    bi.op = inst.a.isImm() ? BOp::ChecksumI
                                           : BOp::ChecksumR;
                    opA(inst.a);
                    break;
                  case Opcode::LogVal:
                    bi.op = BOp::LogVal;
                    opA(inst.a);
                    opB(inst.b);
                    break;
                  case Opcode::LogPtr:
                    bi.op = BOp::LogPtr;
                    opA(inst.a);
                    opB(inst.b);
                    break;
                  case Opcode::LogBuf:
                    bi.op = BOp::LogBuf;
                    opA(inst.a);
                    opB(inst.b);
                    opC(inst.c);
                    break;
                  case Opcode::LogScopeEnter:
                    bi.op = BOp::LogScopeEnter;
                    opA(inst.a);
                    break;
                  case Opcode::LogScopeExit:
                    bi.op = BOp::LogScopeExit;
                    opA(inst.a);
                    break;
                  case Opcode::LifetimeStart:
                    bi.op = BOp::LifetimeStart;
                    bi.t0 = inst.object;
                    break;
                  case Opcode::LifetimeEnd:
                    bi.op = BOp::LifetimeEnd;
                    bi.t0 = inst.object;
                    break;
                  case Opcode::AsanCheck:
                    bi.op = BOp::AsanCheck;
                    opA(inst.a);
                    break;
                  case Opcode::UbsanArith:
                    bi.op = BOp::UbsanArith;
                    opA(inst.a);
                    opB(inst.b);
                    break;
                  case Opcode::UbsanShift:
                    bi.op = BOp::UbsanShift;
                    opB(inst.b);
                    break;
                  case Opcode::UbsanDiv:
                    bi.op = BOp::UbsanDiv;
                    opA(inst.a);
                    opB(inst.b);
                    break;
                  case Opcode::UbsanNull:
                    bi.op = BOp::UbsanNull;
                    opA(inst.a);
                    break;
                  case Opcode::UbsanBounds:
                    bi.op = BOp::UbsanBounds;
                    opA(inst.a);
                    break;
                  case Opcode::MsanCheck:
                    bi.op = BOp::MsanCheck;
                    opA(inst.a);
                    break;
                  case Opcode::HardenCheck:
                    bi.op = BOp::HardenCheck;
                    opA(inst.a);
                    opB(inst.b);
                    break;
                }
                p.code.push_back(bi);
                p.locs.push_back(inst.loc);
            }
        }
    }
    return p;
}

} // namespace bc

std::shared_ptr<const bc::Program>
CodeCache::translation(const ir::Module &m, const ir::BinaryKey &key,
                       bool *wasHit)
{
    // Scan from the most recent end: a hit is usually a re-run of a
    // binary of the row that just ran.
    auto it = std::find_if(window_.rbegin(), window_.rend(),
                           [&](const Entry &e) { return e.key == key; });
    if (wasHit)
        *wasHit = it != window_.rend();
    if (it != window_.rend()) {
        auto pos = std::prev(it.base());
        std::rotate(pos, std::next(pos), window_.end());
        return window_.back().program;
    }
    if (maxEntries_ == 0) {
        evictions_++;
        return std::make_shared<const bc::Program>(bc::translate(m));
    }
    // Evict before translating, so the window never holds more than
    // maxEntries_ translations and the new one can reuse the memory.
    if (window_.size() == maxEntries_) {
        evictions_++;
        window_.erase(window_.begin());
    }
    window_.push_back(
        {key, std::make_shared<const bc::Program>(bc::translate(m))});
    return window_.back().program;
}

} // namespace ubfuzz::vm
