/**
 * @file
 * The campaign benchmark client: runs one campaign, one set-up, or one
 * traced run through ubfuzz_core's public entry points and prints one
 * JSON object on stdout. run.py owns the workloads and the metrics.
 *
 *   campaignbench campaign --mode M --seed S[,S...] --units U
 *       [--jobs N] [--isolate] [--store DIR [--resume] [--max-units K]]
 *       [--check K:U,...]
 *   campaignbench setup    (same flags; stops where the first fresh
 *                           unit would start)
 *   campaignbench trace    (same flags) --trace-out FILE
 *
 * Each seed is one campaign of U units; the campaigns run one after
 * another in this process. A store holds one campaign, so --store
 * takes a single seed.
 *
 * Every campaign uses `--cap-per-kind 4`, the repository's standard
 * campaign setting.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "campaign/store.h"
#include "fuzzer/orchestrator.h"
#include "support/parse_num.h"

#include <sys/resource.h>

using namespace ubfuzz;

namespace campaignbench {

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "campaignbench: %s\n"
                 "usage: campaignbench campaign|setup|trace --mode M "
                 "--seed S[,S...] --units U [--jobs N] [--isolate]\n"
                 "       [--store DIR [--resume] [--max-units K]] "
                 "[--check K:U,...] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

const char *
value(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage("flag requires a value");
    return argv[++i];
}

int
intFlag(int argc, char **argv, int &i, int min)
{
    auto v = support::parseInt(value(argc, argv, i), min);
    if (!v)
        usage("invalid number");
    return *v;
}

/** Split a comma-separated flag value. */
std::vector<std::string_view>
fields(std::string_view list, char sep)
{
    std::vector<std::string_view> out;
    while (true) {
        size_t at = list.find(sep);
        out.push_back(list.substr(0, at));
        if (at == std::string_view::npos)
            return out;
        list.remove_prefix(at + 1);
    }
}

/** Parse argv; prints usage and exits with code 2 on bad input. */
Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing subcommand");
    Args a;
    a.command = argv[1];
    if (a.command != "campaign" && a.command != "setup" &&
        a.command != "trace")
        usage("unknown subcommand");
    a.cfg.capPerKind = 4;
    bool sawMode = false, sawUnits = false;
    for (int i = 2; i < argc; i++) {
        const char *f = argv[i];
        if (!std::strcmp(f, "--mode")) {
            auto mode = fuzzer::parseSourceMode(value(argc, argv, i));
            if (!mode)
                usage("unknown mode");
            a.cfg.source = *mode;
            sawMode = true;
        } else if (!std::strcmp(f, "--seed")) {
            for (std::string_view text : fields(value(argc, argv, i), ',')) {
                auto seed = support::parseUint64(text);
                if (!seed)
                    usage("invalid seed");
                a.seeds.push_back(*seed);
            }
        } else if (!std::strcmp(f, "--units")) {
            a.cfg.numSeeds = intFlag(argc, argv, i, 1);
            sawUnits = true;
        } else if (!std::strcmp(f, "--jobs")) {
            a.cfg.jobs = intFlag(argc, argv, i, 1);
        } else if (!std::strcmp(f, "--isolate")) {
            a.cfg.isolate = true;
        } else if (!std::strcmp(f, "--store")) {
            a.store = value(argc, argv, i);
        } else if (!std::strcmp(f, "--resume")) {
            a.resume = true;
        } else if (!std::strcmp(f, "--max-units")) {
            a.maxUnits = intFlag(argc, argv, i, 0);
        } else if (!std::strcmp(f, "--check")) {
            for (std::string_view pair : fields(value(argc, argv, i), ',')) {
                std::vector<std::string_view> ku = fields(pair, ':');
                auto k = support::parseInt(ku[0], 0);
                auto u = ku.size() == 2 ? support::parseInt(ku[1], 0)
                                        : std::nullopt;
                if (!k || !u)
                    usage("invalid --check (want K:U,...)");
                a.checks.emplace_back(*k, *u);
            }
        } else if (!std::strcmp(f, "--trace-out")) {
            a.traceOut = value(argc, argv, i);
        } else {
            usage("unknown flag");
        }
    }
    if (!sawMode || a.seeds.empty() || !sawUnits)
        usage("--mode, --seed and --units are required");
    for (const auto &[k, u] : a.checks)
        if (k >= static_cast<int>(a.seeds.size()) || u >= a.cfg.numSeeds)
            usage("--check names a unit outside the campaigns");
    if (!a.store.empty() && a.seeds.size() != 1)
        usage("--store holds one campaign: give one seed");
    a.cfg.seed = a.seeds[0];
    if (a.resume && a.store.empty())
        usage("--resume requires --store");
    if (a.command == "trace" && a.traceOut.empty())
        usage("trace requires --trace-out");
    return a;
}

/** CLOCK_MONOTONIC seconds — the clock run.py's time.monotonic()
 *  reads, so the parent can time a child's launch-to-ready. */
double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

std::string
quote(std::string_view s)
{
    std::string q = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            q += '\\';
            q += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            q += buf;
        } else {
            q += c;
        }
    }
    return q + "\"";
}

void
Json::key(std::string_view k)
{
    if (out_.size() > 1)
        out_ += ',';
    out_ += quote(k);
    out_ += ':';
}

Json &
Json::num(std::string_view k, double v)
{
    key(k);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ += buf;
    return *this;
}

Json &
Json::num(std::string_view k, uint64_t v)
{
    key(k);
    out_ += std::to_string(v);
    return *this;
}

Json &
Json::boolean(std::string_view k, bool v)
{
    key(k);
    out_ += v ? "true" : "false";
    return *this;
}

Json &
Json::str(std::string_view k, std::string_view v)
{
    key(k);
    out_ += quote(v);
    return *this;
}

Json &
Json::raw(std::string_view k, std::string_view json)
{
    key(k);
    out_ += json;
    return *this;
}

std::string
logicalJson(const fuzzer::CampaignStats &s)
{
    std::string perKind = "[";
    for (size_t k = 0; k < ubgen::kNumUBKinds; k++)
        perKind += (k ? "," : "") + std::to_string(s.perKind[k]);
    perKind += "]";
    Json bugs;
    for (const auto &[id, n] : s.bugFindingCounts)
        bugs.num(san::bugInfo(id).name, static_cast<uint64_t>(n));
    std::string wrong = "[";
    for (san::BugId id : s.wrongReportBugs)
        wrong += (wrong.size() > 1 ? "," : "") +
                 quote(san::bugInfo(id).name);
    wrong += "]";
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      fuzzer::findingsDigest(s)));
    const fuzzer::HardenStats &h = s.harden;
    return Json()
        .num("seeds", static_cast<uint64_t>(s.seeds))
        .num("unprofiled_seeds", static_cast<uint64_t>(s.unprofiledSeeds))
        .num("ub_programs", static_cast<uint64_t>(s.ubPrograms))
        .raw("per_kind", perKind)
        .num("non_triggering", static_cast<uint64_t>(s.nonTriggering))
        .num("no_ub", static_cast<uint64_t>(s.noUB))
        .num("discrepant_programs",
             static_cast<uint64_t>(s.discrepantPrograms))
        .num("selected_programs",
             static_cast<uint64_t>(s.oracleSelectedPrograms))
        .num("verdict_pairs", static_cast<uint64_t>(s.verdictPairs))
        .num("selected_pairs", static_cast<uint64_t>(s.selectedPairs))
        .num("selected_true_bug", static_cast<uint64_t>(s.selectedTrueBug))
        .num("selected_optimization",
             static_cast<uint64_t>(s.selectedOptimization))
        .num("dropped_pairs", static_cast<uint64_t>(s.droppedPairs))
        .num("dropped_true_bug", static_cast<uint64_t>(s.droppedTrueBug))
        .raw("bug_findings", bugs.done())
        .num("wrong_reports", static_cast<uint64_t>(s.wrongReports))
        .raw("wrong_report_bugs", wrong)
        .num("invalid_findings", static_cast<uint64_t>(s.invalidFindings))
        .num("exec_timeouts", static_cast<uint64_t>(s.execTimeouts))
        .num("timeout_excluded", static_cast<uint64_t>(s.timeoutExcluded))
        .num("harden_programs", static_cast<uint64_t>(h.programs))
        .num("faults_injected", static_cast<uint64_t>(h.faultsInjected))
        .num("faults_detected", static_cast<uint64_t>(h.faultsDetected))
        .num("faults_masked", static_cast<uint64_t>(h.faultsMasked))
        .num("faults_sdc", static_cast<uint64_t>(h.faultsSdc))
        .num("drift_comparisons", static_cast<uint64_t>(h.driftComparisons))
        .num("drift_reports", static_cast<uint64_t>(h.driftReports))
        .str("digest", digest)
        .done();
}

std::string
workJson(const fuzzer::CampaignStats &s)
{
    const compiler::CompileStats &c = s.compile;
    const vm::ExecStats &e = s.exec;
    auto n = [](size_t v) { return static_cast<uint64_t>(v); };
    return Json()
        .num("lowerings", n(c.lowerings))
        .num("delta_lowerings", n(c.deltaLowerings))
        .num("delta_fallbacks", n(c.deltaFallbacks))
        .num("early_opt_runs", n(c.earlyOptRuns))
        .num("early_opt_hits", n(c.earlyOptCacheHits))
        .num("specializations", n(c.specializations))
        .num("trace_executions", n(c.traceExecutions))
        .num("executions", n(e.executions))
        .num("translation_hits", n(e.translationHits))
        .num("corpus_skips", n(e.corpusSkips))
        .done();
}

uint64_t
failures(const fuzzer::CampaignStats &s)
{
    return s.workerCrashes + s.workerTimeouts + s.quarantined;
}

namespace {

std::unique_ptr<campaign::CampaignStore>
openStore(const Args &a)
{
    if (a.store.empty())
        return nullptr;
    std::string error;
    auto store = campaign::CampaignStore::open(
        a.store, campaign::manifestFor(a.cfg, campaign::ShardSpec{}),
        a.resume, &error);
    if (!store) {
        std::fprintf(stderr, "campaignbench: --store: %s\n",
                     error.c_str());
        std::exit(2);
    }
    return store;
}

/**
 * One campaign per seed (or one process of a paused/resumed one), each
 * timed around runCampaignService. The result check runs after the
 * clock stops: each --check unit's folded delta (fresh, replayed from
 * the journal, or replayed from the corpus memo) must equal a fresh
 * in-process detail::runCampaignUnit of that unit.
 */
int
runCampaign(const Args &a)
{
    auto store = openStore(a);
    std::map<std::pair<int, int>, std::string> folded;
    std::vector<std::string> results;
    uint64_t failed = 0;
    for (size_t k = 0; k < a.seeds.size(); k++) {
        fuzzer::CampaignConfig cfg = a.cfg;
        cfg.seed = a.seeds[k];
        fuzzer::ServiceOptions opts;
        opts.store = store.get();
        opts.maxFreshUnits = a.maxUnits;
        std::set<int> check;
        for (const auto &[ck, unit] : a.checks)
            if (ck == static_cast<int>(k))
                check.insert(unit);
        opts.onUnitFolded = [&](int unit, const fuzzer::CampaignStats &delta,
                                bool) {
            if (check.count(unit))
                folded.emplace(std::make_pair(static_cast<int>(k), unit),
                               logicalJson(delta));
        };
        const double t0 = monotonicSeconds();
        fuzzer::ServiceResult res = fuzzer::runCampaignService(cfg, opts);
        const double wall = monotonicSeconds() - t0;
        failed += failures(res.stats);
        results.push_back(
            Json()
                .num("seed", cfg.seed)
                .num("wall_s", wall)
                .boolean("complete", res.complete)
                .num("units_replayed",
                     static_cast<uint64_t>(res.unitsReplayed))
                .str("invariant", fuzzer::statsInvariantViolation(res.stats))
                .raw("stats", logicalJson(res.stats))
                .done());
    }
    // Resource use up to here, before the result check below adds its
    // own: this process's threads plus every worker it forked and
    // reaped.
    struct rusage self, workers;
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &workers);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    const double cpu = secs(self.ru_utime) + secs(self.ru_stime) +
                       secs(workers.ru_utime) + secs(workers.ru_stime);
    const long maxrssKb = std::max(self.ru_maxrss, workers.ru_maxrss);

    uint64_t mismatches = 0;
    for (const auto &[at, json] : folded) {
        fuzzer::CampaignConfig plain = a.cfg;
        plain.seed = a.seeds[static_cast<size_t>(at.first)];
        plain.isolate = false;
        plain.jobs = 1;
        if (logicalJson(fuzzer::detail::runCampaignUnit(plain, at.second)) !=
            json)
            mismatches++;
    }

    std::string list = "[";
    for (const std::string &r : results)
        list += (list.size() > 1 ? "," : "") + r;
    std::printf("%s\n", Json()
                            .num("cpu_s", cpu)
                            .num("maxrss_kb", static_cast<uint64_t>(maxrssKb))
                            .num("failures", failed)
                            .num("checked_units",
                                 static_cast<uint64_t>(folded.size()))
                            .num("check_mismatches", mismatches)
                            .raw("campaigns", list + "]")
                            .done()
                            .c_str());
    return 0;
}

/**
 * Set-up only: everything a campaign process does before its first
 * fresh unit starts — process start, store open (journal recovery on
 * resume), and the service's replay fold and corpus-memo refill, which
 * runCampaignService performs before it claims a unit. Prints the
 * monotonic time at that point.
 */
int
runSetup(const Args &a)
{
    auto store = openStore(a);
    fuzzer::ServiceOptions opts;
    opts.store = store.get();
    opts.maxFreshUnits = 0;
    fuzzer::runCampaignService(a.cfg, opts);
    const double ready = monotonicSeconds();
    std::printf("%s\n", Json().num("ready_s", ready).done().c_str());
    return 0;
}

} // namespace

} // namespace campaignbench

int
main(int argc, char **argv)
{
    campaignbench::Args args = campaignbench::parseArgs(argc, argv);
    if (args.command == "campaign")
        return campaignbench::runCampaign(args);
    if (args.command == "setup")
        return campaignbench::runSetup(args);
    return campaignbench::runTrace(args);
}
