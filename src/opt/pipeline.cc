#include "opt/pass.h"

#include <array>

namespace ubfuzz::opt {

std::vector<PassKind>
earlyPasses(Vendor vendor, OptLevel level)
{
    using enum PassKind;
    const PassKind peephole =
        vendor == Vendor::GCC ? PeepholeGCC : PeepholeLLVM;

    // Even -O0 performs local constant folding (§1: "even with -O0,
    // some basic optimizations, such as constant folding, may still
    // optimize away the UB").
    std::vector<PassKind> p{ConstFold};
    if (level == OptLevel::O0)
        return p;
    // Room for the longest list (LLVM -O2: 11 passes). Without it GCC
    // 12 reports -Warray-bounds false positives on the inserts below.
    p.reserve(12);
    p.push_back(peephole);
    if (vendor == Vendor::GCC) {
        // GCC: CSE and DSE arrive at -Os/-O2; store forwarding and
        // lifetime hoisting are -O2/-O3 features.
        p.insert(p.end(), {DCE, SimplifyCFG});
        if (optAtLeast(level, OptLevel::Os))
            p.insert(p.end(), {CSE, DSE});
        if (optAtLeast(level, OptLevel::O2))
            p.insert(p.end(), {StoreForward, ConstFold, DCE});
        if (level == OptLevel::O3)
            p.push_back(LifetimeHoist);
    } else {
        // LLVM: more eager at -O1 (store forwarding, DSE), with an
        // extra combine round at -O2 and above.
        p.insert(p.end(),
                 {CSE, StoreForward, ConstFold, DSE, DCE, SimplifyCFG});
        if (optAtLeast(level, OptLevel::O2))
            p.insert(p.end(), {peephole, ConstFold, DCE});
    }
    return p;
}

std::vector<PassKind>
latePasses(OptLevel level)
{
    using enum PassKind;
    if (level == OptLevel::O0)
        return {};
    std::vector<PassKind> p{ConstFold, CSE, DCE, SimplifyCFG};
    if (optAtLeast(level, OptLevel::O2))
        p.push_back(DSE);
    return p;
}

int
earlyRounds(OptLevel level)
{
    return optAtLeast(level, OptLevel::O2) ? 2 : 1;
}

void
runPasses(ir::Module &m, const std::vector<PassKind> &passes, int rounds)
{
    std::vector<std::unique_ptr<Pass>> group;
    group.reserve(passes.size());
    for (PassKind kind : passes)
        group.push_back(createPass(kind));
    for (int round = 0; round < rounds; round++) {
        bool changed = false;
        for (ir::Function &f : m.functions) {
            for (const auto &pass : group)
                changed |= pass->run(m, f);
        }
        if (!changed)
            break;
    }
}

std::pair<Vendor, OptLevel>
canonicalEarlyOptPoint(Vendor vendor, OptLevel level)
{
    // 2 vendors x 5 levels, derived once (magic static): the hot path
    // queries this per compile.
    using Point = std::pair<Vendor, OptLevel>;
    static const auto table = [] {
        std::vector<Point> order;
        for (Vendor v : {Vendor::GCC, Vendor::LLVM})
            for (OptLevel l : kAllOptLevels)
                order.emplace_back(v, l);
        auto same = [](Point a, Point b) {
            return earlyRounds(a.second) == earlyRounds(b.second) &&
                   earlyPasses(a.first, a.second) ==
                       earlyPasses(b.first, b.second);
        };
        std::array<std::array<Point, 5>, 2> t{};
        for (Point p : order) {
            // Terminates at the latest on p itself.
            size_t rep = 0;
            while (!same(order[rep], p))
                rep++;
            t[static_cast<size_t>(p.first)]
             [static_cast<size_t>(p.second)] = order[rep];
        }
        return t;
    }();
    return table[static_cast<size_t>(vendor)][static_cast<size_t>(level)];
}

} // namespace ubfuzz::opt
