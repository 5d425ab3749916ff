/**
 * @file
 * Shared pieces of the campaign benchmark client: flag parsing, the
 * JSON it prints, and the subcommand entry points. run.py drives the
 * client; every subcommand prints exactly one JSON object on stdout.
 */

#ifndef CAMPAIGNBENCH_BENCH_H
#define CAMPAIGNBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fuzzer/fuzzer.h"

namespace campaignbench {

/** Parsed command line of one client invocation. */
struct Args
{
    /** "campaign", "setup", or "trace". */
    std::string command;
    /** Config of every campaign; cfg.seed is set per campaign. */
    ubfuzz::fuzzer::CampaignConfig cfg;
    /** One campaign per seed, run one after another. */
    std::vector<uint64_t> seeds;
    /** Journal directory (empty: no store). */
    std::string store;
    bool resume = false;
    /** Fresh-unit budget of this process (negative: no cap). */
    int maxUnits = -1;
    /** (campaign index, unit) pairs whose folded delta is re-checked
     *  against a fresh run. */
    std::vector<std::pair<int, int>> checks;
    /** Chrome trace-event JSON written by the traced run. */
    std::string traceOut;
};

/** Minimal JSON object writer (keys are trusted identifiers). */
class Json
{
  public:
    Json &num(std::string_view key, double v);
    Json &num(std::string_view key, uint64_t v);
    Json &boolean(std::string_view key, bool v);
    Json &str(std::string_view key, std::string_view v);
    /** @p json must already be valid JSON (object, array, ...). */
    Json &raw(std::string_view key, std::string_view json);
    std::string done() const { return out_ + "}"; }

  private:
    void key(std::string_view k);
    std::string out_ = "{";
};

/** JSON-quote @p s. */
std::string quote(std::string_view s);

/**
 * Every logical result of a campaign: the counters the result check
 * compares (UB programs per kind, non-triggering and no-UB counts,
 * discrepant and selected programs, verdict/selected/dropped pairs,
 * per-bug findings, wrong-report bugs, harden outcomes) plus the
 * finding digest. Work counters are left out: they legitimately
 * differ between execution strategies.
 */
std::string logicalJson(const ubfuzz::fuzzer::CampaignStats &s);

/** The compile and execution work counters of @p s. */
std::string workJson(const ubfuzz::fuzzer::CampaignStats &s);

/** Attempt-level failures: worker crashes, timeouts, quarantines. */
uint64_t failures(const ubfuzz::fuzzer::CampaignStats &s);

int runTrace(const Args &args);

} // namespace campaignbench

#endif // CAMPAIGNBENCH_BENCH_H
