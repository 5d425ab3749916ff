/**
 * @file
 * The campaign service from the command line:
 *
 *   ./build/examples/campaign [numSeeds] [source] [--jobs N]
 *       [--step-limit N] [--seed S] [--cap-per-kind N]
 *       [--mode M] [--fault-rate N] [--harden-passes dup,sig]
 *       [--store DIR] [--resume] [--shard i/N] [--max-units K]
 *       [--serve] [--isolate] [--unit-timeout MS] [--retries N]
 *       [--inject crash:U:A | hang:U:A | torn:U:A:BYTES]
 *   ./build/examples/campaign merge --store DIR
 *
 * where source (equivalently `--mode`) is one of: ubfuzz (default),
 * music, nosafe, juliet, harden. Harden mode runs the standard ubfuzz
 * campaign (same finding digest) plus the hardening differential
 * oracle: `--fault-rate` bit flips per hardened clean seed,
 * `--harden-passes` selecting the compiled-in families. Both flags
 * exit 2 in any other mode.
 *
 * A plain invocation runs one in-memory campaign. `--store DIR`
 * journals every completed unit to DIR so the campaign survives its
 * process: kill it mid-run, rerun with `--resume`, and the final
 * stats and finding digest are bit-identical to an uninterrupted run.
 * `--shard i/N` runs only every N-th unit (1-based; launch N
 * processes with the same --store and fold their journals with the
 * `merge` subcommand). `--max-units K` pauses after K fresh units —
 * the deterministic stand-in for `kill` that the CI crash/resume
 * smoke uses (exit code 3 marks a paused, resumable campaign).
 * `--serve` streams findings as they dedup, one line per new finding,
 * in unit order.
 *
 * `--isolate` runs every unit in a forked, supervised worker process
 * (fuzzer/supervisor): `--unit-timeout MS` SIGKILLs a worker past its
 * wall-clock deadline, crashes/hangs/torn results retry with backoff
 * up to `--retries` times, and a unit that exhausts its retries is
 * quarantined — the campaign completes without it. Crash-free results
 * are bit-identical to a non-isolated run. `--inject` forces a
 * deterministic worker fault on unit U's first A attempts (A = -1 for
 * all; torn also takes the byte offset to cut the result frame at) —
 * the CI smoke's stand-in for a genuinely misbehaving unit.
 *
 * SIGINT/SIGTERM pause gracefully: live workers are killed, everything
 * already folded stays journaled, and the exit code is 3 — rerun with
 * `--resume` to continue.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "fuzzer/orchestrator.h"
#include "harden/harden.h"
#include "support/parse_num.h"

using namespace ubfuzz;

namespace {

/** Exit code for a paused (incomplete but resumable) campaign. */
constexpr int kExitPaused = 3;

/** Flipped by SIGINT/SIGTERM; the service checks it between units and
 *  inside the supervisor's watch loop (killing live workers), so a
 *  Ctrl-C flushes the journal at the fold frontier instead of dying
 *  mid-append. */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

/**
 * Strict flag parsing via support::parseInt: "4O0" aborts instead of
 * becoming 4, 99999999999 aborts instead of truncating through the
 * int cast, and each flag states the smallest value it accepts
 * (seeds need at least one; --jobs 0 means "all hardware threads",
 * so negatives are rejected but zero is not).
 */
int
parseIntArg(const char *what, const char *text, int min)
{
    auto v = support::parseInt(text, min);
    if (!v) {
        std::fprintf(stderr, "%s: invalid number '%s' (want an integer >= %d)\n",
                     what, text, min);
        std::exit(2);
    }
    return *v;
}

/** Same strict policy for 64-bit values (seed may be any uint64). */
uint64_t
parseU64Arg(const char *what, const char *text, uint64_t min)
{
    auto v = support::parseUint64(text, min);
    if (!v) {
        std::fprintf(stderr, "%s: invalid number '%s'\n", what, text);
        std::exit(2);
    }
    return *v;
}

const char *
requireValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

void
printStats(const fuzzer::CampaignStats &stats)
{
    std::printf("\nUB programs tested:       %zu\n", stats.ubPrograms);
    std::printf("programs without UB:      %zu\n", stats.noUB);
    std::printf("non-triggering (skipped): %zu\n",
                stats.nonTriggering);
    std::printf("per kind:\n");
    for (size_t k = 0; k < ubgen::kNumUBKinds; k++) {
        if (stats.perKind[k]) {
            std::printf("  %-24s %zu\n",
                        ubgen::ubKindName(
                            static_cast<ubgen::UBKind>(k)),
                        stats.perKind[k]);
        }
    }
    std::printf("discrepant programs:      %zu\n",
                stats.discrepantPrograms);
    std::printf("oracle-selected programs: %zu\n",
                stats.oracleSelectedPrograms);
    std::printf("exec timeouts:            %zu (excluded from "
                "pairing: %zu)\n",
                stats.execTimeouts, stats.timeoutExcluded);
    std::printf("distinct bugs found:      %zu\n",
                stats.distinctBugsFound());
    for (const auto &[id, n] : stats.bugFindingCounts) {
        const san::BugInfo &b = san::bugInfo(id);
        std::printf("  [%s/%s] %-44s %5zu findings\n",
                    vendorName(b.vendor), sanitizerName(b.sanitizer),
                    b.name, n);
    }
    for (san::BugId id : stats.wrongReportBugs)
        std::printf("  [wrong-report] %s\n", san::bugInfo(id).name);
    if (stats.harden.programs || stats.harden.driftComparisons) {
        const fuzzer::HardenStats &h = stats.harden;
        std::printf("hardened programs:        %zu\n", h.programs);
        std::printf("drift comparisons:        %zu (drift reports: "
                    "%zu)\n",
                    h.driftComparisons, h.driftReports);
        std::printf("faults injected:          %zu (detected %zu, "
                    "masked %zu, sdc %zu)\n",
                    h.faultsInjected, h.faultsDetected, h.faultsMasked,
                    h.faultsSdc);
        size_t observable = h.faultsDetected + h.faultsSdc;
        if (observable) {
            std::printf("fault detection rate:     %zu%%\n",
                        h.faultsDetected * 100 / observable);
        }
    }
    std::printf("worker crashes:           %zu\n", stats.workerCrashes);
    std::printf("worker timeouts:          %zu\n", stats.workerTimeouts);
    std::printf("retried attempts:         %zu\n", stats.retried);
    std::printf("quarantined units:        %zu\n", stats.quarantined);
    std::printf("finding digest:           %016llx\n",
                static_cast<unsigned long long>(
                    fuzzer::findingsDigest(stats)));
}

/** `campaign merge --store DIR`: fold a completed campaign's shard
 *  journals into one result without re-running anything. */
int
runMerge(int argc, char **argv)
{
    std::string dir;
    for (int i = 2; i < argc; i++) {
        if (!std::strcmp(argv[i], "--store")) {
            dir = requireValue(argc, argv, i);
        } else {
            std::fprintf(stderr, "merge: unknown argument '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    if (dir.empty()) {
        std::fprintf(stderr, "merge requires --store DIR\n");
        return 2;
    }
    campaign::MergeResult merged = campaign::mergeStore(dir);
    if (!merged.ok) {
        std::fprintf(stderr, "merge: %s\n", merged.error.c_str());
        return 1;
    }
    std::printf("merged %zu units from %d shard journal(s) in %s\n",
                merged.unitsMerged, merged.shardCount, dir.c_str());
    std::printf("campaign seed: %llu, config hash %016llx\n",
                static_cast<unsigned long long>(merged.campaignSeed),
                static_cast<unsigned long long>(merged.configHash));
    printStats(merged.stats);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && !std::strcmp(argv[1], "merge"))
        return runMerge(argc, argv);

    fuzzer::CampaignConfig cfg;
    cfg.seed = 1;
    cfg.numSeeds = 25;
    cfg.capPerKind = 3;

    std::string storeDir;
    bool resume = false;
    bool serve = false;
    const char *sawSupervisionFlag = nullptr;
    const char *sawHardenFlag = nullptr;
    campaign::ShardSpec shard;
    int maxUnits = -1;
    int positional = 0;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--jobs") || !std::strcmp(argv[i], "-j")) {
            cfg.jobs = parseIntArg("--jobs", requireValue(argc, argv, i), 0);
        } else if (!std::strcmp(argv[i], "--step-limit")) {
            // A step limit of zero would run nothing, so the minimum
            // is one.
            cfg.stepLimit =
                parseU64Arg("--step-limit", requireValue(argc, argv, i), 1);
        } else if (!std::strcmp(argv[i], "--seed")) {
            cfg.seed =
                parseU64Arg("--seed", requireValue(argc, argv, i), 0);
        } else if (!std::strcmp(argv[i], "--cap-per-kind")) {
            cfg.capPerKind = static_cast<size_t>(parseIntArg(
                "--cap-per-kind", requireValue(argc, argv, i), 1));
        } else if (!std::strcmp(argv[i], "--mode")) {
            const char *text = requireValue(argc, argv, i);
            auto mode = fuzzer::parseSourceMode(text);
            if (!mode) {
                std::fprintf(stderr,
                             "--mode: unknown mode '%s' (want ubfuzz, "
                             "music, nosafe, juliet, or harden)\n",
                             text);
                return 2;
            }
            cfg.source = *mode;
        } else if (!std::strcmp(argv[i], "--fault-rate")) {
            cfg.faultsPerProgram = parseIntArg(
                "--fault-rate", requireValue(argc, argv, i), 1);
            sawHardenFlag = "--fault-rate";
        } else if (!std::strcmp(argv[i], "--harden-passes")) {
            const char *text = requireValue(argc, argv, i);
            auto mask = harden::parseMask(text);
            if (!mask) {
                std::fprintf(stderr,
                             "--harden-passes: invalid list '%s' (want "
                             "a comma-separated subset of dup,sig)\n",
                             text);
                return 2;
            }
            cfg.hardenPasses = *mask;
            sawHardenFlag = "--harden-passes";
        } else if (!std::strcmp(argv[i], "--store")) {
            storeDir = requireValue(argc, argv, i);
        } else if (!std::strcmp(argv[i], "--resume")) {
            resume = true;
        } else if (!std::strcmp(argv[i], "--serve")) {
            serve = true;
        } else if (!std::strcmp(argv[i], "--shard")) {
            const char *text = requireValue(argc, argv, i);
            auto spec = support::parseShard(text);
            if (!spec) {
                std::fprintf(stderr,
                             "--shard: invalid spec '%s' (want i/N "
                             "with 1 <= i <= N, e.g. 2/4)\n",
                             text);
                return 2;
            }
            shard.index = spec->first;
            shard.count = spec->second;
        } else if (!std::strcmp(argv[i], "--max-units")) {
            maxUnits =
                parseIntArg("--max-units", requireValue(argc, argv, i), 0);
        } else if (!std::strcmp(argv[i], "--isolate")) {
            cfg.isolate = true;
        } else if (!std::strcmp(argv[i], "--unit-timeout")) {
            // A zero deadline would kill every worker on arrival, so
            // the minimum is one millisecond.
            cfg.unitTimeoutMs = parseU64Arg(
                "--unit-timeout", requireValue(argc, argv, i), 1);
            sawSupervisionFlag = "--unit-timeout";
        } else if (!std::strcmp(argv[i], "--retries")) {
            cfg.retries =
                parseIntArg("--retries", requireValue(argc, argv, i), 0);
            sawSupervisionFlag = "--retries";
        } else if (!std::strcmp(argv[i], "--inject")) {
            const char *text = requireValue(argc, argv, i);
            auto inj = fuzzer::parseFailureInjection(text);
            if (!inj) {
                std::fprintf(stderr,
                             "--inject: invalid spec '%s' (want "
                             "crash:UNIT:ATTEMPTS, hang:UNIT:ATTEMPTS, "
                             "or torn:UNIT:ATTEMPTS:BYTES; ATTEMPTS -1 "
                             "means every attempt)\n",
                             text);
                return 2;
            }
            cfg.failureInjection = *inj;
            sawSupervisionFlag = "--inject";
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return 2;
        } else if (positional == 0) {
            cfg.numSeeds = parseIntArg("numSeeds", argv[i], 1);
            positional++;
        } else if (positional == 1) {
            // Strict like --mode: an unrecognized source used to be
            // silently ignored (the campaign ran ubfuzz), now it
            // aborts.
            auto mode = fuzzer::parseSourceMode(argv[i]);
            if (!mode) {
                std::fprintf(stderr,
                             "source: unknown mode '%s' (want ubfuzz, "
                             "music, nosafe, juliet, or harden)\n",
                             argv[i]);
                return 2;
            }
            cfg.source = *mode;
            positional++;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
            return 2;
        }
    }
    if (resume && storeDir.empty()) {
        std::fprintf(stderr, "--resume requires --store DIR\n");
        return 2;
    }
    if (sawSupervisionFlag && !cfg.isolate) {
        std::fprintf(stderr, "%s requires --isolate\n",
                     sawSupervisionFlag);
        return 2;
    }
    // The hardening oracle runs only in harden mode; anywhere else its
    // flags would be ignored without a word.
    if (sawHardenFlag && cfg.source != fuzzer::SourceMode::Harden) {
        std::fprintf(stderr, "%s requires --mode harden\n",
                     sawHardenFlag);
        return 2;
    }

    std::unique_ptr<campaign::CampaignStore> store;
    if (!storeDir.empty()) {
        std::string error;
        store = campaign::CampaignStore::open(
            storeDir, campaign::manifestFor(cfg, shard), resume, &error);
        if (!store) {
            std::fprintf(stderr, "--store: %s\n", error.c_str());
            return 2;
        }
    }

    std::printf("campaign: %d seeds, source=%s, jobs=%d, step limit "
                "%llu, shard %d/%d%s%s%s\n",
                cfg.numSeeds, fuzzer::sourceModeName(cfg.source),
                fuzzer::resolveJobs(cfg.jobs),
                static_cast<unsigned long long>(cfg.stepLimit),
                shard.index, shard.count,
                cfg.isolate ? ", isolated workers" : "",
                store ? ", store " : "",
                store ? storeDir.c_str() : "");

    fuzzer::ServiceOptions opts;
    opts.shard = shard;
    opts.store = store.get();
    opts.maxFreshUnits = maxUnits;
    opts.stopRequested = &g_stop;
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    // Streaming mode: findings print the moment their unit folds —
    // strict unit order, so the stream is identical run to run, and a
    // replayed unit streams exactly what its live run once did.
    std::set<fuzzer::FindingRecord> seen;
    if (serve) {
        opts.onUnitFolded = [&seen](int unit,
                                    const fuzzer::CampaignStats &delta,
                                    bool replayed) {
            for (const fuzzer::FindingRecord &f : delta.findings) {
                if (!seen.insert(f).second)
                    continue;
                std::printf("finding unit=%d%s kind=%s crash=[%s] "
                            "missing=[%s] line=%d%s\n",
                            unit, replayed ? " (replayed)" : "",
                            ubgen::ubKindName(f.kind),
                            f.crashing.str().c_str(),
                            f.missing.str().c_str(), f.ubLoc.line,
                            f.groundTruthBug ? " injected-bug" : "");
            }
        };
    }

    fuzzer::ServiceResult res = fuzzer::runCampaignService(cfg, opts);

    std::printf("units: %d owned, %d replayed, %d run%s\n",
                res.unitsOwned, res.unitsReplayed, res.unitsRun,
                res.complete ? "" : " (paused)");
    printStats(res.stats);
    if (!res.complete) {
        std::printf("campaign paused%s; rerun with --resume to "
                    "continue\n",
                    g_stop.load() ? " by signal" : "");
        return kExitPaused;
    }
    return 0;
}
