/**
 * @file
 * Small analyses shared by the sanitizer passes: in-block def chains.
 */

#ifndef UBFUZZ_SANITIZER_PASS_UTIL_H
#define UBFUZZ_SANITIZER_PASS_UTIL_H

#include "ir/ir.h"
#include "ir/reg_table.h"

namespace ubfuzz::san {

/**
 * Register -> defining instruction, within one basic block. A pass
 * invocation keeps one and calls reset() at every block start.
 */
class DefMap
{
  public:
    void reset(uint32_t numRegs) { defs_.reset(numRegs); }

    void
    note(const ir::Inst &inst)
    {
        if (inst.dst)
            defs_.set(inst.dst, &inst);
    }

    const ir::Inst *
    def(const ir::Value &v) const
    {
        if (!v.isReg())
            return nullptr;
        const ir::Inst *const *d = defs_.find(v.reg);
        return d ? *d : nullptr;
    }

  private:
    ir::RegTable<const ir::Inst *> defs_;
};

/**
 * Walk an address chain (Gep/Cast) to its root instruction within the
 * block; nullptr when the chain leaves the block or starts at an
 * immediate.
 */
const ir::Inst *addressRoot(const DefMap &defs, const ir::Value &addr);

} // namespace ubfuzz::san

#endif // UBFUZZ_SANITIZER_PASS_UTIL_H
