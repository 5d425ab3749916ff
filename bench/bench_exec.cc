/**
 * @file
 * Execution-engine microbenchmark: what does per-execution setup cost,
 * and what does the batched engine save?
 *
 *   ./build/bench/bench_exec [--runs N]
 *
 * Two scenarios over the same compiled binaries:
 *  - unbatched: vm::execute per run — every run builds a machine from
 *    scratch: it reserves the stack arena and its two shadow planes,
 *    fills them (0xAA, unpoisoned, defined) as far as the run reaches,
 *    and translates the binary into a fresh machine-private cache;
 *  - batched: one vm::Machine, reset() between runs — the arena stays
 *    filled as far as earlier runs reached, each reset restores only
 *    the bytes the previous run dirtied, and the translation is
 *    cached.
 *
 * Also runs one real differential matrix through an ExecutionPlan and
 * prints the engine counters, so the dedup-skip behavior is visible
 * outside a full campaign.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>

#include "ast/printer.h"
#include "bench_util.h"
#include "compiler/compiler.h"
#include "frontend/parser.h"
#include "generator/generator.h"
#include "ir/lowering.h"
#include "oracle/oracle.h"
#include "support/parse_num.h"
#include "vm/vm.h"

using namespace ubfuzz;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    int runs = 300;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--runs") && i + 1 < argc) {
            // Strict parse: garbage, zero, and ERANGE-clamped values
            // abort instead of silently running a different count.
            auto v = support::parseInt(argv[++i], 1);
            if (!v) {
                std::fprintf(stderr, "--runs: invalid number '%s'\n",
                             argv[i]);
                return 2;
            }
            runs = *v;
        } else {
            std::fprintf(stderr, "usage: %s [--runs N]\n", argv[0]);
            return 2;
        }
    }

    // A representative binary: a generated seed program at gcc -O2.
    gen::GeneratorConfig gc;
    gc.seed = 20240427;
    gc.safeMath = true;
    auto prog = gen::generateProgram(gc);
    compiler::CompilerConfig cc;
    cc.level = OptLevel::O2;
    compiler::Binary bin = compiler::compileProgram(*prog, cc);

    bench::header("per-execution setup cost (batched vs unbatched)");
    std::printf("runs: %d\n", runs);

    auto t0 = std::chrono::steady_clock::now();
    uint64_t check = 0;
    for (int i = 0; i < runs; i++)
        check ^= vm::execute(bin.module).checksum;
    double unbatched = secondsSince(t0);

    vm::Machine machine;
    t0 = std::chrono::steady_clock::now();
    uint64_t check2 = 0;
    for (int i = 0; i < runs; i++)
        check2 ^= machine.run(bin.module).checksum;
    double batched = secondsSince(t0);

    if (check != check2) {
        std::fprintf(stderr, "FAIL: batched checksum diverged\n");
        return 1;
    }
    std::printf("unbatched:        %8.1f us/exec\n",
                unbatched * 1e6 / runs);
    std::printf("batched:          %8.1f us/exec  (%.2fx)\n",
                batched * 1e6 / runs,
                batched > 0 ? unbatched / batched : 0.0);
    std::printf("machines built:   %zu (for %zu executions, %zu "
                "resets)\n",
                machine.stats().machinesBuilt,
                machine.stats().executions, machine.stats().resets);

    bench::rule();
    bench::header("dispatch cost (struct-walking vs bytecode, silent run)");
    // The silent-run configuration is the campaign's hot loop: no
    // tracing, no profiling, no ground truth. Step-heavy programs so
    // the per-step dispatch cost dominates per-run setup; same binary,
    // same steps — only the interpreter differs. Two shapes: an
    // array-crunching loop and a call/branch-heavy workload. The first
    // bytecode run translates; the timed runs hit the machine's
    // CodeCache.
    auto measureWorkload = [&](const char *name, const char *src) {
        auto prog = frontend::parseOrDie(src);
        ast::PrintedProgram printed2 = ast::printProgram(*prog);
        ir::Module mod = ir::lowerProgram(*prog, printed2.map);
        vm::Machine refMachine;
        vm::ExecResult refRes = refMachine.runReference(mod);
        vm::Machine fastMachine;
        vm::ExecResult fastRes = fastMachine.run(mod);
        if (fastRes.checksum != refRes.checksum ||
            fastRes.steps != refRes.steps) {
            std::fprintf(stderr,
                         "FAIL: %s: bytecode run diverged from the "
                         "reference interpreter\n",
                         name);
            std::exit(1);
        }
        int dispatchRuns = std::max(10, runs / 10);
        auto t1 = std::chrono::steady_clock::now();
        for (int i = 0; i < dispatchRuns; i++)
            refMachine.runReference(mod);
        double refSecs = secondsSince(t1);
        t1 = std::chrono::steady_clock::now();
        for (int i = 0; i < dispatchRuns; i++)
            fastMachine.run(mod);
        double fastSecs = secondsSince(t1);
        double stepsTotal = static_cast<double>(refRes.steps) *
                            static_cast<double>(dispatchRuns);
        double refNs = refSecs * 1e9 / stepsTotal;
        double fastNs = fastSecs * 1e9 / stepsTotal;
        std::printf("-- workload: %s --\n", name);
        std::printf("steps/exec:       %llu\n",
                    static_cast<unsigned long long>(refRes.steps));
        std::printf("struct-walking:   %8.2f ns/step\n", refNs);
        std::printf("bytecode:         %8.2f ns/step  (%.2fx)\n", fastNs,
                    fastNs > 0 ? refNs / fastNs : 0.0);
        std::printf("translations:     %zu (hits: %zu, for %zu "
                    "bytecode executions)\n",
                    fastMachine.stats().translations,
                    fastMachine.stats().translationHits,
                    fastMachine.stats().executions);
    };
    measureWorkload("array loop", R"(int a[64];
int helper(int x) {
    return x * 3 + 1;
}
int main(void) {
    long s = 0l;
    for (int i = 0; i < 20000; i += 1) {
        int j = i % 64;
        a[j] = a[j] + helper(i);
        s += (long)(a[j] % 100);
        s += (long)((i * 7) % 13);
    }
    __checksum(s);
    return (int)(s % 256l);
}
)");
    measureWorkload("call/branch", R"(int collatz(int n) {
    int c = 0;
    while (n != 1 && c < 200) {
        if ((n % 2) == 0) {
            n = n / 2;
        } else {
            n = 3 * n + 1;
        }
        c += 1;
    }
    return c;
}
int depth2(int x) {
    return collatz(x) + 1;
}
int main(void) {
    long s = 0l;
    for (int i = 1; i < 4000; i += 1) {
        int v = (i % 97) + 2;
        if ((i % 3) == 0) {
            s += (long)collatz(v);
        } else {
            s += (long)depth2(v + 1);
        }
    }
    __checksum(s);
    return (int)(s % 256l);
}
)");

    bench::rule();
    bench::header("one differential matrix through an ExecutionPlan");
    ast::PrintedProgram printed = ast::printProgram(*prog);
    compiler::CompilationCache cache(*prog, printed);
    vm::Machine shared;
    auto configs = oracle::testingMatrix(SanitizerKind::ASan);
    t0 = std::chrono::steady_clock::now();
    oracle::DifferentialResult diff =
        oracle::runDifferential(cache, shared, configs, 1'000'000);
    double matrix = secondsSince(t0);
    std::printf("configs:          %zu\n", diff.outcomes.size());
    std::printf("elapsed:          %.3f ms\n", matrix * 1e3);
    std::printf("executions:       %zu (dedup skips: %zu)\n",
                shared.stats().executions, shared.stats().dedupSkips);
    std::printf("machines built:   %zu, resets: %zu\n",
                shared.stats().machinesBuilt, shared.stats().resets);
    std::printf("timeouts:         %zu\n", diff.timeouts);
    return 0;
}
