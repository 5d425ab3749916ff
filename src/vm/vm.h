/**
 * @file
 * The execution engine for compiled IR modules.
 *
 * The VM plays three roles from the paper's toolchain:
 *  - the *machine* that runs compiled binaries (memory, traps, exit code),
 *  - the *sanitizer runtime* (shadow memory for ASan poisoning and MSan
 *    definedness; executing the check instructions the passes inserted),
 *  - the *debugger* (LLDB in the paper): with tracing enabled it records
 *    the (line, offset) of every executed instruction, which is exactly
 *    what Algorithm 2's GetExecutedSites needs.
 *
 * Memory model: three segments (globals / stack / heap) backed by flat
 * byte arrays. Out-of-bounds accesses inside a mapped segment behave
 * like real hardware — they read or corrupt neighbouring bytes silently
 * — while accesses outside any segment (or to page zero) raise a
 * hardware trap. Uninitialized memory reads produce the deterministic
 * fill pattern 0xAA.
 */

#ifndef UBFUZZ_VM_VM_H
#define UBFUZZ_VM_VM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "support/source_loc.h"
#include "vm/profile_data.h"

namespace ubfuzz::vm {

/** What a sanitizer (or the ground-truth checker) reported. */
enum class ReportKind : uint8_t {
    None,
    StackBufferOverflow,
    GlobalBufferOverflow,
    HeapBufferOverflow,
    HeapUseAfterFree,
    StackUseAfterScope,
    NullDeref,
    SignedIntegerOverflow,
    ShiftOutOfBounds,
    DivByZero,
    ArrayIndexOOB,
    UninitValue,
    /** A hardening check (duplicate-compare / CFG signature) caught a
     *  corrupted value — only ever raised while a FaultPlan is armed. */
    HardeningFault,
};

const char *reportKindName(ReportKind k);

/** Hardware-level failure of an unchecked execution. */
enum class TrapKind : uint8_t {
    None,
    Segfault,
    DivByZero,
    StackOverflow,
    InvalidFree,
    OutOfMemory,
};

const char *trapKindName(TrapKind k);

/**
 * A deterministic single-event upset: at executed step `step` (1-based,
 * in the VM's own step counter), flip one bit in a register or frame
 * slot of the innermost live frame. `target` picks the victim — bit 0
 * selects register (0) vs frame-slot (1), the remaining bits index into
 * whatever the frame actually has (modulo-reduced, so any uint64 is a
 * valid plan). `bitIndex` picks the bit (mod 64 for registers, mod 8
 * within the chosen byte for slots). Derived from the unit RNG stream,
 * so plans are identical across --jobs values.
 */
struct FaultPlan
{
    uint64_t step = 0;
    uint64_t target = 0;
    uint8_t bitIndex = 0;
};

/** Execution options. */
struct ExecOptions
{
    /** Maximum executed instructions before Timeout. */
    uint64_t stepLimit = 4'000'000;
    /** Record executed (line, offset) sites (the "debugger"). */
    bool recordTrace = false;
    /** Collect __log_* profiling records into `profile`. */
    RawProfile *profile = nullptr;
    /**
     * Ground-truth mode: precise object-based memory checking plus
     * always-on arithmetic/shift/division/uninit checking, independent
     * of any sanitizer instrumentation. Used to decide "does this
     * program actually contain UB on this input" (Table 4) and to
     * validate UBGen's output.
     */
    bool groundTruth = false;
    /**
     * Fault-injection mode: apply this single-bit upset during the
     * run. Arms the HardenCheck instructions (they only report while a
     * plan is armed, which is what keeps hardened binaries
     * drift-free on the ordinary sanitizer matrix).
     */
    const FaultPlan *fault = nullptr;
};

/** The outcome of one execution. */
struct ExecResult
{
    enum class Kind : uint8_t { Clean, Report, Trap, Timeout };
    Kind kind = Kind::Clean;

    /** Sanitizer report details (kind == Report). */
    ReportKind report = ReportKind::None;
    SourceLoc reportLoc;

    /** Trap details (kind == Trap). */
    TrapKind trap = TrapKind::None;
    SourceLoc trapLoc;

    int64_t exitCode = 0;
    uint64_t checksum = 0;
    uint64_t steps = 0;
    /** Fault injection: the armed FaultPlan's bit flip actually landed
     *  (the run reached plan.step and the frame had a victim). */
    bool faultApplied = false;

    /** Executed sites in order (consecutive duplicates collapsed). */
    std::vector<SourceLoc> trace;

    bool crashed() const { return kind == Kind::Report; }

    /** The crash site per Definition 2 (only valid when crashed()). */
    SourceLoc
    crashSite() const
    {
        return reportLoc;
    }

    std::string str() const;
};

/**
 * Execution-engine work counters. A Machine owns one set; the campaign
 * accumulates them per unit (CampaignStats::exec) and the campaign CLI
 * prints them, exactly like compiler::CompileStats. They count work
 * *actually performed*, so a reintroduced machine-per-execution rebuild
 * shows up as `machinesBuilt` jumping from one-per-program back to
 * one-per-run.
 */
struct ExecStats
{
    /** Full Machine constructions (stack arena reservation; its
     *  planes are filled as runs reach them, not here). */
    size_t machinesBuilt = 0;
    /** Cheap re-arms between runs on an already-built machine. */
    size_t resets = 0;
    /** Executions actually interpreted by a machine. */
    size_t executions = 0;
    /**
     * Modules flattened into bytecode (CodeCache misses). Every
     * execution resolves through the cache exactly once, so the
     * translate-once invariant is `executions == translations +
     * translationHits` — CI asserts it campaign-wide.
     */
    size_t translations = 0;
    /** Executions served by an already-flattened translation (the
     *  debugger re-execution of a silent binary is the common hit). */
    size_t translationHits = 0;
    /**
     * Executions skipped because a byte-identical binary (equal
     * ir::executionKey) already ran in the same batch; its result was
     * copied instead.
     */
    size_t dedupSkips = 0;
    /**
     * Whole testing matrices replayed from the campaign's corpus memo
     * because an identical UB program was already tested (cross-seed
     * corpus dedup). Counted by the fuzzer, not the machine.
     */
    size_t corpusSkips = 0;
    /**
     * Corpus-memo insertions refused because the memo had stopped
     * admitting at its entry cap (fuzzer::CorpusMemo never evicts; a
     * full memo recomputes duplicates instead). Counted by the fuzzer.
     * Like every other work counter here, caps change only this — the
     * cap-independence of all logical results is asserted by
     * test_orchestrator's TinyCapsAreBitIdentical.
     */
    size_t corpusCapRejects = 0;
    /**
     * Translations the CodeCache's window dropped (CodeCache::
     * capRejects: evictions of its least recent entry, or every
     * translation at a window of 0); a later run of a dropped binary
     * re-flattens instead of hitting. The name predates the window;
     * campaignbench's traced replica reads it.
     */
    size_t translationCapRejects = 0;
    /** Always 0 since the fused tier was removed; still merged and
     *  serialized so the journal and worker-frame layouts do not
     *  change. */
    size_t quickenedTranslations = 0;
    /** Always 0 since the fused tier was removed (see
     *  quickenedTranslations). */
    size_t fusedRecords = 0;
    /** Bit flips actually applied by armed FaultPlans (one per fault
     *  run that reached its step with a live victim). */
    size_t faultInjections = 0;

    /** Every counter once, in wire order: merge and the serializer
     *  (support/serialize.h) both walk this list. */
    static constexpr size_t ExecStats::*kCounters[] = {
        &ExecStats::machinesBuilt,         &ExecStats::resets,
        &ExecStats::executions,            &ExecStats::translations,
        &ExecStats::translationHits,       &ExecStats::dedupSkips,
        &ExecStats::corpusSkips,           &ExecStats::corpusCapRejects,
        &ExecStats::translationCapRejects, &ExecStats::quickenedTranslations,
        &ExecStats::fusedRecords,          &ExecStats::faultInjections,
    };

    void
    merge(const ExecStats &o)
    {
        for (auto counter : kCounters)
            this->*counter += o.*counter;
    }

    friend bool operator==(const ExecStats &, const ExecStats &) =
        default;
};

/**
 * A reusable execution engine: the machine (memory segments, shadow
 * arena), sanitizer runtime, and debugger of the paper's toolchain,
 * hoisted out of the per-execution path.
 *
 * Construction reserves the 1 MiB stack arena and its two shadow
 * planes once but fills none of it: the planes are filled (0xAA,
 * unpoisoned, defined) on first touch, by doubling from 16 KiB, so a
 * run that reaches a few KiB of stack pays for a few KiB. An access
 * anywhere inside the arena's logical bound sees exactly what a fully
 * filled arena would hold. `run()` then executes any module, and
 * between runs a cheap `reset()` re-arms the machine by restoring only
 * the bytes the previous execution actually dirtied (tracked by a
 * write watermark) instead of rebuilding everything. The differential
 * runner constructs one Machine per UB program and pushes the whole
 * config matrix — including the lazy debugger re-executions — through
 * it.
 *
 * Guarantee: `Machine m; m.run(mod, opts)` is bit-identical to
 * `vm::execute(mod, opts)` for every preceding sequence of runs on
 * `m`, across all result fields (exit code, checksum, report, trap,
 * steps, trace). test_vm's MachineReuse suite enforces this.
 *
 * Execution goes through flattened bytecode (vm/bytecode.h): run()
 * resolves the module to a translation — via the CodeCache passed at
 * construction, or a machine-private one — and interprets it with a
 * dispatch loop specialized for the run's mode (silent / MSan-shadow /
 * ground-truth), falling back to a generic loop when tracing or
 * profiling. runReference() keeps the original struct-walking
 * interpreter alive as the semantic baseline: the test_bytecode parity
 * suite and bench_exec's ns/step microbenchmark compare against it.
 */
class CodeCache;

class Machine
{
  public:
    /** @p cache, when given, must outlive the machine; machines of one
     *  campaign unit share it. Defaults to a machine-private cache. */
    explicit Machine(CodeCache *cache = nullptr);
    ~Machine();
    Machine(Machine &&) noexcept;
    Machine &operator=(Machine &&) noexcept;
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Execute @p module from its main function. Resets first when a
     *  previous run left state behind. @p key, when given, must equal
     *  ir::binaryKey(module) — batch runners pass the key they already
     *  computed for execution dedup instead of re-serializing. */
    ExecResult run(const ir::Module &module, const ExecOptions &opts = {},
                   const ir::BinaryKey *key = nullptr);

    /** Execute through the reference struct-walking interpreter
     *  (bit-identical by definition; kept for parity tests and the
     *  dispatch microbenchmark, not a hot path). */
    ExecResult runReference(const ir::Module &module,
                            const ExecOptions &opts = {});

    /** Re-arm explicitly (run() does this on demand); idempotent. */
    void reset();

    /** Work counters since construction (machinesBuilt counts this
     *  machine's own construction). */
    const ExecStats &stats() const;

    /** Account one execution skipped by a batch runner because an
     *  identical binary already ran (see ir::executionKey). */
    void noteDedupSkip();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Execute @p module (from its main function) on a throwaway Machine.
 *  One-off convenience; batch callers construct a Machine and reuse it. */
ExecResult execute(const ir::Module &module, const ExecOptions &opts = {});

} // namespace ubfuzz::vm

#endif // UBFUZZ_VM_VM_H
