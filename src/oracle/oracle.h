/**
 * @file
 * The crash-site mapping test oracle (Algorithm 2) and the
 * differential test runner around it.
 *
 * Given a UB program compiled by a matrix of compiler configurations
 * with the same sanitizer, a *discrepancy* is a pair (b_c, b_n) where
 * b_c produces a sanitizer report and b_n does not. The discrepancy is
 * attributed to a sanitizer FN bug iff the crash site of b_c — the
 * (line, offset) of its last executed instruction — is also executed
 * by b_n (the compiler did not optimize the UB away).
 */

#ifndef UBFUZZ_ORACLE_ORACLE_H
#define UBFUZZ_ORACLE_ORACLE_H

#include <optional>
#include <vector>

#include "compiler/compiler.h"
#include "vm/vm.h"

namespace ubfuzz::oracle {

/**
 * Algorithm 2 (IsBug): does the non-crashing execution pass through
 * the crashing execution's crash site?
 *
 * @param crashSite   the crash site of b_c (Definition 2)
 * @param nonCrashingTrace  all executed sites of b_n (GetExecutedSites)
 */
bool crashSiteMapping(SourceLoc crashSite,
                      const std::vector<SourceLoc> &nonCrashingTrace);

/** One compiled-and-executed configuration of the program under test. */
struct ConfigOutcome
{
    compiler::CompilerConfig config;
    san::CompileLog log;
    vm::ExecResult result;
    /**
     * The compiled binary itself, retained so the debugger pass (§3.3)
     * can re-execute it with tracing enabled instead of compiling the
     * same configuration a second time.
     */
    ir::Module module;
    /** Index of the batch's first outcome with the same ir::BinaryKey
     *  (its own when it is the first): one alias group executes once,
     *  and harden mode derives one hardened twin per group. */
    size_t aliasRoot = 0;
    /** Copied from an earlier outcome with equal
     *  compiler::SpecializeInputs instead of specialized. */
    bool reused = false;
};

/** A (crashing, non-crashing) pair with the oracle verdict. */
struct DiscrepancyVerdict
{
    size_t crashingIdx = 0;
    size_t nonCrashingIdx = 0;
    /** Crash-site mapping said the discrepancy is a sanitizer FN bug. */
    bool isBug = false;
};

struct DifferentialResult
{
    std::vector<ConfigOutcome> outcomes;
    /** Every (crash, no-crash) pair with its oracle verdict. */
    std::vector<DiscrepancyVerdict> verdicts;
    /** Executions that hit the step limit (ExecResult::Kind::Timeout). */
    size_t timeouts = 0;
    /**
     * Timed-out binaries explicitly excluded from discrepancy pairing
     * when pairing actually happened: a timeout is neither a crash nor
     * evidence of a missed report, so it must never stand in as the
     * "silent" half of a pair.
     */
    size_t timeoutExcluded = 0;

    bool hasDiscrepancy() const { return !verdicts.empty(); }

    bool
    anyBugVerdict() const
    {
        for (const auto &v : verdicts)
            if (v.isBug)
                return true;
        return false;
    }
};

/**
 * The compile-all-first execution batch of one testing matrix.
 *
 * Phase 1 (`compile`) specializes every configuration through the
 * CompilationCache while the machine is still cold; phase 2 (`run`)
 * pushes all binaries through one shared vm::Machine — reset, not
 * rebuilt, between runs — pairs the discrepancies, and lazily
 * re-executes silent binaries of discrepant pairs with tracing (the
 * debugger pass of §3.3). Configurations whose specialized binaries
 * are byte-identical (equal ir::executionKey — e.g. both vendors'
 * modules at equivalent opt points) execute once; the others copy the
 * result and count a dedup skip on the machine's ExecStats.
 *
 * A configuration whose compiler::SpecializeInputs equal an earlier
 * one's is not specialized at all: it copies that outcome's module,
 * log, key and alias root, and counts its specialization through
 * CompilationCache::noteReuse, so the compile counters read as if it
 * had been built.
 *
 * The ir::BinaryKey computed per outcome for that dedup is retained
 * and handed to every machine.run() call, so the machine's CodeCache
 * resolves each binary to its flattened bytecode without a second
 * serialization pass — one key computation serves both the execution
 * dedup and the translate-once cache, and the lazy debugger re-runs
 * hit the translation their silent run produced.
 */
class ExecutionPlan
{
  public:
    /** Phase 1: compile every configuration; no execution yet. */
    static ExecutionPlan
    compile(compiler::CompilationCache &cache,
            const std::vector<compiler::CompilerConfig> &configs);

    /** Phase 2: execute the whole batch through @p machine. Consumes
     *  the plan (outcomes move into the result). */
    DifferentialResult run(vm::Machine &machine, uint64_t stepLimit);

    size_t size() const { return outcomes_.size(); }

    /** The compiled outcomes, not executed yet. */
    const std::vector<ConfigOutcome> &outcomes() const { return outcomes_; }

  private:
    /** For the trace accounting of the debugger re-executions. */
    compiler::CompilationCache *cache_ = nullptr;
    std::vector<ConfigOutcome> outcomes_;
    /** Each outcome's ir::BinaryKey, computed once at compile time and
     *  handed to the machine so its CodeCache never re-serializes a
     *  module it is about to execute. */
    std::vector<ir::BinaryKey> keys_;
};

/**
 * Compile the cache's program under every configuration, execute
 * through @p machine, and apply crash-site mapping to every discrepant
 * pair — ExecutionPlan::compile + run. Each distinct set of
 * specialization inputs is specialized once (a configuration with the
 * inputs of an earlier one copies its binary), the cache shares
 * lowering/early-opt work across calls, and the machine shares its
 * arenas across the whole batch (the campaign passes one cache and one
 * machine per program through its whole sanitizer matrix). The step
 * limit is a required argument: the campaign plumbs
 * CampaignConfig::stepLimit end to end.
 */
DifferentialResult
runDifferential(compiler::CompilationCache &cache, vm::Machine &machine,
                const std::vector<compiler::CompilerConfig> &configs,
                uint64_t stepLimit);

/** Overload for callers without a long-lived machine: builds a
 *  throwaway one. */
DifferentialResult
runDifferential(compiler::CompilationCache &cache,
                const std::vector<compiler::CompilerConfig> &configs,
                uint64_t stepLimit = 2'000'000);

/** Convenience overload for one-off callers: builds a throwaway
 *  CompilationCache (and machine) for @p program and delegates. */
DifferentialResult
runDifferential(const ast::Program &program,
                const ast::PrintedProgram &printed,
                const std::vector<compiler::CompilerConfig> &configs,
                uint64_t stepLimit = 2'000'000);

/** The paper's testing matrix: both vendors (where the sanitizer is
 *  supported) at -O0/-O1/-Os/-O2/-O3 (§4.1). */
std::vector<compiler::CompilerConfig>
testingMatrix(SanitizerKind sanitizer);

} // namespace ubfuzz::oracle

#endif // UBFUZZ_ORACLE_ORACLE_H
