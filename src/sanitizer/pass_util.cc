#include "sanitizer/pass_util.h"

namespace ubfuzz::san {

const ir::Inst *
addressRoot(const DefMap &defs, const ir::Value &addr)
{
    const ir::Inst *cur = defs.def(addr);
    while (cur) {
        if (cur->op == ir::Opcode::Gep || cur->op == ir::Opcode::Cast) {
            const ir::Inst *next = defs.def(cur->a);
            if (!next)
                return cur;
            cur = next;
            continue;
        }
        return cur;
    }
    return nullptr;
}

} // namespace ubfuzz::san
