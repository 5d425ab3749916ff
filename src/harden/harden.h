/**
 * @file
 * ASPIS-style hardening passes: compile-time redundancy that turns a
 * silent single-event upset (one flipped bit in a register or stack
 * slot) into an explicit HardeningFault report.
 *
 *  - DuplicateCompare (EDDI-flavoured): every computed value gets a
 *    duplicate computed through an independent chain — shadow stack
 *    objects for memory, recomputation for pure ops — and consumption
 *    sites (stores, branches, returns, call arguments, the checksum)
 *    compare the two with a HardenCheck before using the value.
 *  - CfgSignature (RACFED-flavoured, simplified): each basic block
 *    stores its compile-time signature into a dedicated frame slot on
 *    entry and re-checks it before its terminator, catching upsets
 *    that corrupt the signature slot or the check's own data path.
 *    The inter-block transfer of the full RACFED scheme is subsumed by
 *    DuplicateCompare's duplicated branch conditions.
 *
 * compiler::specialize applies both at the very end (after the
 * sanitizer stage and the late optimizer), so no optimizer ever sees —
 * or deletes — the redundancy.
 * HardenCheck only reports while the VM has a FaultPlan armed, which
 * is what guarantees zero sanitizer-report drift on the ordinary
 * testing matrix even when the program's own UB corrupts shadow state.
 */

#ifndef UBFUZZ_HARDEN_HARDEN_H
#define UBFUZZ_HARDEN_HARDEN_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ir/ir.h"

namespace ubfuzz::harden {

/** Hardening family bits (ir::Module::hardenedWith). */
inline constexpr uint32_t kDuplicateCompare = 1u << 0;
inline constexpr uint32_t kCfgSignature = 1u << 1;
inline constexpr uint32_t kAllFamilies =
    kDuplicateCompare | kCfgSignature;

/** "dup", "sig" — the CLI names of single family bits. */
const char *familyName(uint32_t bit);

/** Render a mask as its comma-joined family list, e.g. "dup,sig". */
std::string maskStr(uint32_t mask);

/**
 * Strict parse of a `--harden-passes` value: a non-empty
 * comma-separated list of known family names with no duplicates and no
 * trailing junk ("dup", "sig", "dup,sig"). Anything else —
 * including an empty string or "dup,dup" — is std::nullopt.
 */
std::optional<uint32_t> parseMask(std::string_view text);

/**
 * Harden every function of @p m with the families in @p mask:
 * duplicate-and-compare first, then the block signatures. Records each
 * family in Module::hardenedWith and panics when one is already there.
 * compiler::specialize runs it last, so the hardened twin of a binary
 * is apply over a copy of it (CompilationCache::hardenedTwin).
 */
void apply(ir::Module &m, uint32_t mask);

} // namespace ubfuzz::harden

#endif // UBFUZZ_HARDEN_HARDEN_H
