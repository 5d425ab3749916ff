#include "oracle/oracle.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>

namespace ubfuzz::oracle {

bool
crashSiteMapping(SourceLoc crashSite,
                 const std::vector<SourceLoc> &nonCrashingTrace)
{
    for (const SourceLoc &loc : nonCrashingTrace)
        if (loc == crashSite)
            return true;
    return false;
}

ExecutionPlan
ExecutionPlan::compile(compiler::CompilationCache &cache,
                       const std::vector<compiler::CompilerConfig> &configs)
{
    ExecutionPlan plan;
    plan.cache_ = &cache;
    plan.outcomes_.reserve(configs.size());
    plan.keys_.reserve(configs.size());
    std::vector<compiler::SpecializeInputs> inputs;
    inputs.reserve(configs.size());
    // Map each binary's execution key to the first outcome that has
    // it: later identical binaries alias their execution to it. Keyed
    // by ir::BinaryKey — a hash and the length of the serialized key,
    // hashed as it is serialized, rather than the multi-KB key itself:
    // the same collision-risk tradeoff the corpus dedup makes. The
    // keys are retained: run() hands them to the machine so the VM's
    // code cache reuses this serialization pass instead of re-walking
    // every module per execution. Unordered on purpose: the key
    // carries its own finalized hash, and insertion order (not key
    // order) decides aliasing, so lookup is O(1) with no ordered
    // full-key compares.
    std::unordered_map<ir::BinaryKey, size_t, ir::BinaryKeyHash>
        firstWithKey;
    for (const compiler::CompilerConfig &cfg : configs) {
        const size_t idx = plan.outcomes_.size();
        inputs.push_back(compiler::specializeInputs(cfg));
        ConfigOutcome &outcome = plan.outcomes_.emplace_back();
        outcome.config = cfg;
        // specialize reads nothing of a configuration but its inputs,
        // so a cell with an earlier cell's inputs is that cell's
        // binary: copy it, its log, key and alias group.
        const size_t same = static_cast<size_t>(
            std::find(inputs.begin(), inputs.end() - 1, inputs.back()) -
            inputs.begin());
        if (same < idx) {
            cache.noteReuse(cfg);
            const ConfigOutcome &from = plan.outcomes_[same];
            outcome.module = ir::cloneModule(from.module);
            outcome.log = from.log;
            outcome.aliasRoot = from.aliasRoot;
            outcome.reused = true;
            plan.keys_.push_back(plan.keys_[same]);
            continue;
        }
        compiler::Binary binary = cache.compile(cfg);
        outcome.log = std::move(binary.log);
        outcome.module = std::move(binary.module);
        const ir::BinaryKey key = ir::binaryKey(outcome.module);
        outcome.aliasRoot = firstWithKey.emplace(key, idx).first->second;
        plan.keys_.push_back(key);
    }
    return plan;
}

DifferentialResult
ExecutionPlan::run(vm::Machine &machine, uint64_t stepLimit)
{
    DifferentialResult result;
    // Execute each distinct binary once; identical binaries behave
    // identically under every ExecOptions (see ir::executionKey), so
    // aliases copy the root's result instead of re-running.
    for (size_t i = 0; i < outcomes_.size(); i++) {
        const size_t root = outcomes_[i].aliasRoot;
        if (root != i) {
            outcomes_[i].result = outcomes_[root].result;
            machine.noteDedupSkip();
            continue;
        }
        vm::ExecOptions opts;
        opts.stepLimit = stepLimit;
        outcomes_[i].result =
            machine.run(outcomes_[i].module, opts, &keys_[i]);
    }

    // Find discrepant pairs: some binary reports, another does not. A
    // timed-out binary is neither: it is excluded from pairing (and
    // counted) rather than treated as a silent non-crasher.
    std::vector<size_t> crashing, silent;
    std::vector<size_t> timedOut;
    for (size_t i = 0; i < outcomes_.size(); i++) {
        const vm::ExecResult &r = outcomes_[i].result;
        if (r.kind == vm::ExecResult::Kind::Timeout)
            timedOut.push_back(i);
        else if (r.crashed())
            crashing.push_back(i);
        else
            silent.push_back(i);
    }
    result.timeouts = timedOut.size();
    if (crashing.empty() || silent.empty()) {
        result.outcomes = std::move(outcomes_);
        return result;
    }
    result.timeoutExcluded = timedOut.size();

    // Trace each distinct silent binary once (the debugger run):
    // re-execute the retained module with tracing on — compilation and
    // the machine are deterministic, so this is exactly the binary
    // that ran silently above. Aliased binaries share the trace; the
    // copy happens only when an alias actually exists (traces can be
    // stepLimit-sized).
    std::map<size_t, size_t> traceIdxOfRoot;
    std::vector<std::vector<SourceLoc>> traces(silent.size());
    for (size_t k = 0; k < silent.size(); k++) {
        size_t root = outcomes_[silent[k]].aliasRoot;
        auto [it, inserted] = traceIdxOfRoot.emplace(root, k);
        if (!inserted) {
            traces[k] = traces[it->second];
            machine.noteDedupSkip();
            continue;
        }
        vm::ExecOptions opts;
        opts.stepLimit = stepLimit;
        opts.recordTrace = true;
        traces[k] = machine
                        .run(outcomes_[silent[k]].module, opts,
                             &keys_[silent[k]])
                        .trace;
        cache_->noteTraceExecution();
    }

    for (size_t ci : crashing) {
        SourceLoc site = outcomes_[ci].result.crashSite();
        for (size_t k = 0; k < silent.size(); k++) {
            DiscrepancyVerdict v;
            v.crashingIdx = ci;
            v.nonCrashingIdx = silent[k];
            v.isBug = crashSiteMapping(site, traces[k]);
            result.verdicts.push_back(v);
        }
    }
    result.outcomes = std::move(outcomes_);
    return result;
}

DifferentialResult
runDifferential(compiler::CompilationCache &cache, vm::Machine &machine,
                const std::vector<compiler::CompilerConfig> &configs,
                uint64_t stepLimit)
{
    return ExecutionPlan::compile(cache, configs).run(machine, stepLimit);
}

DifferentialResult
runDifferential(compiler::CompilationCache &cache,
                const std::vector<compiler::CompilerConfig> &configs,
                uint64_t stepLimit)
{
    vm::Machine machine;
    return runDifferential(cache, machine, configs, stepLimit);
}

DifferentialResult
runDifferential(const ast::Program &program,
                const ast::PrintedProgram &printed,
                const std::vector<compiler::CompilerConfig> &configs,
                uint64_t stepLimit)
{
    compiler::CompilationCache cache(program, printed);
    return runDifferential(cache, configs, stepLimit);
}

std::vector<compiler::CompilerConfig>
testingMatrix(SanitizerKind sanitizer)
{
    std::vector<compiler::CompilerConfig> configs;
    for (Vendor v : {Vendor::GCC, Vendor::LLVM}) {
        if (!vendorSupports(v, sanitizer))
            continue;
        for (OptLevel l : kAllOptLevels) {
            compiler::CompilerConfig c;
            c.vendor = v;
            c.level = l;
            c.sanitizer = sanitizer;
            configs.push_back(c);
        }
    }
    return configs;
}

} // namespace ubfuzz::oracle
