/**
 * @file
 * Campaign throughput harness: how many UB programs per second the
 * full pipeline (generate -> inject -> sanitizer matrix -> oracle)
 * sustains, and how that scales with the worker pool.
 *
 *   ./build/bench/bench_throughput [--jobs N] [--seeds N] [--seed S]
 *
 * `--jobs 0` uses every hardware thread. The finding digest is
 * invariant under --jobs: the orchestrator guarantees bit-identical
 * results for any pool size, so two runs that differ only in --jobs
 * must print the same programs/findings/digest lines.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/resource.h>

#include "bench_util.h"
#include "fuzzer/orchestrator.h"
#include "support/parse_num.h"

using namespace ubfuzz;

namespace {

/** Strict int flag: garbage, trailing junk, overflow (ERANGE), and
 *  values below @p min all abort instead of clamping. */
int
intArg(int argc, char **argv, int &i, const char *flag, int min)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
    }
    auto v = support::parseInt(argv[++i], min);
    if (!v) {
        std::fprintf(stderr, "%s: invalid number '%s'\n", flag, argv[i]);
        std::exit(2);
    }
    return *v;
}

/** Strict 64-bit flag for the campaign seed (any uint64 value). */
uint64_t
u64Arg(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
    }
    auto v = support::parseUint64(argv[++i]);
    if (!v) {
        std::fprintf(stderr, "%s: invalid number '%s'\n", flag, argv[i]);
        std::exit(2);
    }
    return *v;
}

} // namespace

int
main(int argc, char **argv)
{
    fuzzer::CampaignConfig cfg;
    cfg.seed = 20240427;
    cfg.capPerKind = 4;
    cfg.numSeeds = bench::seedCount(60);
    cfg.jobs = 1;

    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--jobs") || !std::strcmp(argv[i], "-j"))
            cfg.jobs = intArg(argc, argv, i, "--jobs", 0);
        else if (!std::strcmp(argv[i], "--seeds"))
            cfg.numSeeds = intArg(argc, argv, i, "--seeds", 1);
        else if (!std::strcmp(argv[i], "--seed"))
            cfg.seed = u64Arg(argc, argv, i, "--seed");
        else {
            std::fprintf(stderr,
                         "usage: %s [--jobs N] [--seeds N] [--seed S]\n",
                         argv[0]);
            return 2;
        }
    }

    int jobs = fuzzer::resolveJobs(cfg.jobs);
    std::printf("bench_throughput: %d seeds, seed=%llu, jobs=%d\n",
                cfg.numSeeds,
                static_cast<unsigned long long>(cfg.seed), jobs);

    auto t0 = std::chrono::steady_clock::now();
    fuzzer::CampaignStats stats = fuzzer::runCampaign(cfg);
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs <= 0)
        secs = 1e-9;

    std::printf("elapsed:          %.3f s\n", secs);
    std::printf("seeds (unprof.):  %zu (%zu)\n", stats.seeds,
                stats.unprofiledSeeds);
    std::printf("ub programs:      %zu\n", stats.ubPrograms);
    std::printf("programs/sec:     %.1f\n",
                static_cast<double>(stats.ubPrograms) / secs);
    std::printf("seeds/sec:        %.1f\n",
                static_cast<double>(stats.seeds) / secs);
    std::printf("selected pairs:   %zu\n", stats.selectedPairs);
    std::printf("distinct bugs:    %zu\n", stats.distinctBugsFound());
    std::printf("findings:         %zu\n", stats.findings.size());
    // Staged-compiler counters: base lowerings track productive
    // seeds (one each) and every derived UB program is lowered once,
    // its module adopted by the testing matrix; a jump here is a
    // hot-path regression even when the digest is unchanged.
    std::printf("productive seeds: %zu\n", stats.productiveSeeds());
    std::printf("lowerings:        %zu\n", stats.compile.lowerings);
    std::printf("derived lowerings: %zu\n", stats.compile.deltaLowerings);
    std::printf("early-opt runs:   %zu (cache hits: %zu)\n",
                stats.compile.earlyOptRuns,
                stats.compile.earlyOptCacheHits);
    std::printf("specializations:  %zu\n", stats.compile.specializations);
    // Every trace run used to be a second compile of a silent binary.
    std::printf("trace re-execs:   %zu (formerly recompiles)\n",
                stats.compile.traceExecutions);
    // Batched-execution counters: one machine per tested program (not
    // one per run), cheap resets in between, and executions skipped
    // when an identical binary already ran in the same matrix.
    std::printf("machines built:   %zu\n", stats.exec.machinesBuilt);
    std::printf("machine resets:   %zu\n", stats.exec.resets);
    std::printf("executions:       %zu\n", stats.exec.executions);
    // Bytecode engine: every execution resolves through the per-unit
    // CodeCache exactly once, so executions == translations + hits; a
    // binary re-executed (the debugger trace runs) is a hit, never a
    // second flattening, so in ubfuzz mode hits == trace re-execs.
    std::printf("translations:     %zu\n", stats.exec.translations);
    std::printf("translation hits: %zu\n", stats.exec.translationHits);
    std::printf("dedup skips:      %zu\n", stats.exec.dedupSkips);
    std::printf("corpus replays:   %zu\n", stats.exec.corpusSkips);
    // Cap pressure: how often the corpus memo was full and recomputed
    // instead of admitting, and how many translations the per-unit
    // code cache's window dropped. Results are bit-identical either way
    // (test_orchestrator pins that); evictions cost work only when a
    // dropped binary runs again, which shows as fewer translation hits.
    std::printf("memo cap rejects: %zu\n", stats.exec.corpusCapRejects);
    std::printf("cache evictions:  %zu\n",
                stats.exec.translationCapRejects);
    std::printf("unique programs:  %zu (cross-seed duplicates: %zu)\n",
                stats.uniquePrograms(), stats.corpusDuplicates);
    std::printf("exec timeouts:    %zu (excluded from pairing: %zu)\n",
                stats.execTimeouts, stats.timeoutExcluded);
    // Hardening-oracle work (zero outside --mode harden): fault
    // injections counted by the VM itself, and the oracle's
    // classification of each injected flip.
    std::printf("fault injections: %zu\n", stats.exec.faultInjections);
    std::printf("faults detected:  %zu (masked %zu, sdc %zu)\n",
                stats.harden.faultsDetected, stats.harden.faultsMasked,
                stats.harden.faultsSdc);
    std::printf("drift reports:    %zu (of %zu comparisons)\n",
                stats.harden.driftReports,
                stats.harden.driftComparisons);
    // Supervised-execution accounting (zero outside the campaign
    // CLI's --isolate mode — the bench always runs in-process, so CI
    // asserts all four stay zero here).
    std::printf("worker crashes:   %zu\n", stats.workerCrashes);
    std::printf("worker timeouts:  %zu\n", stats.workerTimeouts);
    std::printf("retried attempts: %zu\n", stats.retried);
    std::printf("quarantined:      %zu\n", stats.quarantined);
    std::printf("finding digest:   %016llx\n",
                static_cast<unsigned long long>(
                    fuzzer::findingsDigest(stats)));
    // The process's largest resident set so far (ru_maxrss is in KiB
    // on Linux): the caches' memory bound, end to end.
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        std::printf("peak rss:         %.1f MB\n",
                    static_cast<double>(ru.ru_maxrss) / 1024.0);
    return 0;
}
