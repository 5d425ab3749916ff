/**
 * @file
 * Source locations for MiniC programs.
 *
 * A crash site in the paper (Definition 2) is a (line, offset) pair in the
 * source program; every IR instruction carries one as debug metadata, and
 * the crash-site mapping oracle (Algorithm 2) compares them for equality.
 */

#ifndef UBFUZZ_SUPPORT_SOURCE_LOC_H
#define UBFUZZ_SUPPORT_SOURCE_LOC_H

#include <cstdint>
#include <functional>
#include <string>

namespace ubfuzz {

/** A (line, offset-in-line) position in pretty-printed MiniC source. */
struct SourceLoc
{
    /** 1-based source line; 0 means "unknown location". */
    int32_t line = 0;
    /** 0-based column offset within the line. */
    int32_t offset = 0;

    constexpr bool isValid() const { return line > 0; }

    friend constexpr bool
    operator==(const SourceLoc &a, const SourceLoc &b)
    {
        return a.line == b.line && a.offset == b.offset;
    }

    friend constexpr bool
    operator<(const SourceLoc &a, const SourceLoc &b)
    {
        return a.line != b.line ? a.line < b.line : a.offset < b.offset;
    }

    std::string
    str() const
    {
        std::string s = "(";
        s += std::to_string(line);
        s += ',';
        s += std::to_string(offset);
        s += ')';
        return s;
    }
};

/** Hash for unordered containers keyed by SourceLoc. */
struct SourceLocHash
{
    size_t
    operator()(const SourceLoc &l) const
    {
        return std::hash<uint64_t>()(
            (static_cast<uint64_t>(static_cast<uint32_t>(l.line)) << 32) |
            static_cast<uint32_t>(l.offset));
    }
};

} // namespace ubfuzz

#endif // UBFUZZ_SUPPORT_SOURCE_LOC_H
