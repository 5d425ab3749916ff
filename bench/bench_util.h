/**
 * @file
 * Shared helpers for the bench binaries: bench_paper (every paper
 * table and figure), bench_throughput and bench_exec. Campaign scale
 * is controlled by UBFUZZ_BENCH_SEEDS; each artifact keeps its own
 * default when it is unset.
 */

#ifndef UBFUZZ_BENCH_BENCH_UTIL_H
#define UBFUZZ_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/parse_num.h"

namespace ubfuzz::bench {

/**
 * UBFUZZ_BENCH_SEEDS, strictly parsed (support::parseInt): a typo
 * ("6O", "1e3", "") or an overflowing value ("9e30"-sized digits,
 * which raw strtol clamps with errno=ERANGE) must abort the run, not
 * silently shrink or clamp the campaign — the same policy the
 * campaign CLI applies to its flags.
 */
inline int
seedCount(int fallback = 60)
{
    const char *env = std::getenv("UBFUZZ_BENCH_SEEDS");
    if (!env)
        return fallback;
    auto v = support::parseInt(env, 1, 1000000);
    if (!v) {
        std::fprintf(stderr,
                     "UBFUZZ_BENCH_SEEDS: invalid seed count '%s' "
                     "(want an integer in [1, 1000000])\n",
                     env);
        std::exit(2);
    }
    return *v;
}

inline void
header(const char *title)
{
    std::printf("==== %s ====\n", title);
}

inline void
rule()
{
    std::printf("------------------------------------------"
                "----------------------------\n");
}

} // namespace ubfuzz::bench

#endif // UBFUZZ_BENCH_BENCH_UTIL_H
