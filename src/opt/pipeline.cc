#include "opt/pass.h"

#include <algorithm>
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

Pass &
PassSet::get(PassKind kind)
{
    std::unique_ptr<Pass> &pass = passes_[static_cast<size_t>(kind)];
    if (!pass)
        pass = createPass(kind);
    return *pass;
}

bool
runRound(ir::Module &m, std::span<const PassKind> passes, PassSet &set)
{
    bool changed = false;
    for (ir::Function &f : m.functions) {
        for (PassKind kind : passes)
            changed |= set.get(kind).run(f);
    }
    return changed;
}

void
runPasses(ir::Module &m, const std::vector<PassKind> &passes, int rounds)
{
    PassSet set;
    for (int round = 0; round < rounds; round++) {
        if (!runRound(m, passes, set))
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

std::optional<std::pair<Vendor, OptLevel>>
earlyOptParent(Vendor vendor, OptLevel level)
{
    using Point = std::pair<Vendor, OptLevel>;
    static const auto table = [] {
        std::vector<Point> canonical;
        for (Vendor v : {Vendor::GCC, Vendor::LLVM})
            for (OptLevel l : kAllOptLevels)
                if (canonicalEarlyOptPoint(v, l) == Point{v, l})
                    canonical.emplace_back(v, l);
        std::array<std::array<std::optional<Point>, 5>, 2> t{};
        for (Point p : canonical) {
            const std::vector<PassKind> own =
                earlyPasses(p.first, p.second);
            size_t longest = 0;
            for (Point q : canonical) {
                const std::vector<PassKind> prefix =
                    earlyPasses(q.first, q.second);
                // Strictly longer than the best so far, so the first
                // of equal lists wins.
                if (prefix.size() < own.size() &&
                    prefix.size() > longest &&
                    std::equal(prefix.begin(), prefix.end(),
                               own.begin())) {
                    longest = prefix.size();
                    t[static_cast<size_t>(p.first)]
                     [static_cast<size_t>(p.second)] = q;
                }
            }
        }
        return t;
    }();
    const auto [cv, cl] = canonicalEarlyOptPoint(vendor, level);
    return table[static_cast<size_t>(cv)][static_cast<size_t>(cl)];
}

} // namespace ubfuzz::opt
