/**
 * @file
 * Cross-cutting toolchain enums: the two simulated compiler vendors, the
 * optimization levels the paper tests (-O0, -O1, -Os, -O2, -O3), and the
 * three sanitizers (Table 2). MSan is LLVM-only, as in the paper.
 */

#ifndef UBFUZZ_SUPPORT_TOOLCHAIN_H
#define UBFUZZ_SUPPORT_TOOLCHAIN_H

#include <array>
#include <cstdint>
#include <string>

namespace ubfuzz {

enum class Vendor : uint8_t { GCC, LLVM };

inline const char *
vendorName(Vendor v)
{
    return v == Vendor::GCC ? "gcc" : "llvm";
}

enum class OptLevel : uint8_t { O0, O1, Os, O2, O3 };

inline const char *
optLevelName(OptLevel l)
{
    switch (l) {
      case OptLevel::O0: return "-O0";
      case OptLevel::O1: return "-O1";
      case OptLevel::Os: return "-Os";
      case OptLevel::O2: return "-O2";
      case OptLevel::O3: return "-O3";
    }
    return "?";
}

/** All levels in the paper's testing matrix (§4.1). */
inline constexpr std::array<OptLevel, 5> kAllOptLevels = {
    OptLevel::O0, OptLevel::O1, OptLevel::Os, OptLevel::O2, OptLevel::O3,
};

/** Is `a` at least as aggressive as `b`? (Os sits between O1 and O2.) */
inline bool
optAtLeast(OptLevel a, OptLevel b)
{
    return static_cast<int>(a) >= static_cast<int>(b);
}

enum class SanitizerKind : uint8_t { None, ASan, UBSan, MSan };

inline const char *
sanitizerName(SanitizerKind s)
{
    switch (s) {
      case SanitizerKind::None: return "none";
      case SanitizerKind::ASan: return "asan";
      case SanitizerKind::UBSan: return "ubsan";
      case SanitizerKind::MSan: return "msan";
    }
    return "?";
}

/** Does this vendor ship this sanitizer? (GCC has no MSan — §4.1.) */
inline bool
vendorSupports(Vendor v, SanitizerKind s)
{
    if (s == SanitizerKind::MSan)
        return v == Vendor::LLVM;
    return true;
}

/**
 * Simulated release history. Stable versions are GCC 5..13 and LLVM
 * 5..17; the campaign always tests "trunk" (one past the last stable),
 * matching the paper's setup of testing development versions. Figure 9
 * and 10 use the per-version bug activity windows.
 */
inline int
firstStableVersion(Vendor)
{
    return 5;
}

inline int
lastStableVersion(Vendor v)
{
    return v == Vendor::GCC ? 13 : 17;
}

inline int
trunkVersion(Vendor v)
{
    return lastStableVersion(v) + 1;
}

} // namespace ubfuzz

#endif // UBFUZZ_SUPPORT_TOOLCHAIN_H
