#include "opt/pass.h"

namespace ubfuzz::opt {

int
stageIterations(OptLevel level, Stage stage)
{
    if (stage == Stage::EarlyOpt)
        return optAtLeast(level, OptLevel::O2) ? 2 : 1;
    return 1;
}

std::pair<Vendor, OptLevel>
canonicalEarlyOptPoint(Vendor vendor, OptLevel level)
{
    // -O0 builds {constfold} x1 for both vendors.
    if (level == OptLevel::O0)
        return {Vendor::GCC, OptLevel::O0};
    // LLVM's early pipeline gains passes only at the optAtLeast(O2)
    // boundary, and the fixpoint round count changes at the same
    // boundary, so {O1, Os} and {O2, O3} are equivalence classes.
    if (vendor == Vendor::LLVM) {
        if (level == OptLevel::Os)
            return {Vendor::LLVM, OptLevel::O1};
        if (level == OptLevel::O3)
            return {Vendor::LLVM, OptLevel::O2};
    }
    return {vendor, level};
}

} // namespace ubfuzz::opt
