#include "passes/registry.h"

#include <array>

#include "harden/harden.h"
#include "opt/pass.h"
#include "sanitizer/sanitizer.h"
#include "support/diagnostics.h"

namespace ubfuzz::ir {

void
PassContext::noteInstrumented(Module &m, SanitizerKind kind)
{
    UBF_ASSERT(m.instrumentedWith == SanitizerKind::None,
               "module already instrumented with ",
               sanitizerName(m.instrumentedWith),
               " (missing ir::cloneModule before specialize?)");
    m.instrumentedWith = kind;
}

void
PassContext::noteHardened(Module &m, uint32_t familyBit)
{
    UBF_ASSERT((m.hardenedWith & familyBit) == 0,
               "module already hardened with ",
               harden::familyName(familyBit),
               " (missing ir::cloneModule before specialize?)");
    m.hardenedWith |= familyBit;
}

} // namespace ubfuzz::ir

namespace ubfuzz::passes {

namespace {

uint64_t
idOf(std::string_view name)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name)
        h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
    return h;
}

/** Wraps one opt::Pass. Standalone run() executes its own one-pass
 *  fixpoint group; the pipeline runner normally batches consecutive
 *  adapters instead (see runModulePipeline). */
class FunctionPassAdapter : public ir::ModulePass
{
  public:
    FunctionPassAdapter(std::unique_ptr<opt::Pass> inner, uint64_t id)
        : inner_(std::move(inner)), id_(id)
    {
    }

    const char *name() const override { return inner_->name(); }
    uint64_t pipelineId() const override { return id_; }

    void
    run(ir::Module &m, ir::PassContext &ctx) override
    {
        for (int iter = 0; iter < ctx.iterations; iter++) {
            bool changed = false;
            for (ir::Function &f : m.functions)
                changed |= inner_->run(m, f);
            if (!changed)
                break;
        }
    }

    opt::Pass *asFunctionPass() override { return inner_.get(); }

  private:
    std::unique_ptr<opt::Pass> inner_;
    uint64_t id_;
};

/** One sanitizer family (ASan/UBSan/MSan) as a registered pass. */
class SanitizerPass : public ir::ModulePass
{
  public:
    SanitizerPass(SanitizerKind kind, const char *name, uint64_t id)
        : kind_(kind), name_(name), id_(id)
    {
    }

    const char *name() const override { return name_; }
    uint64_t pipelineId() const override { return id_; }

    void
    run(ir::Module &m, ir::PassContext &ctx) override
    {
        UBF_ASSERT(ctx.san && ctx.san->kind == kind_,
                   "sanitizer pass run without its SanitizerContext");
        ir::PassContext::noteInstrumented(m, kind_);
        switch (kind_) {
          case SanitizerKind::None:
            break;
          case SanitizerKind::ASan:
            san::runAsanPass(m, *ctx.san);
            break;
          case SanitizerKind::UBSan:
            san::runUbsanPass(m, *ctx.san);
            break;
          case SanitizerKind::MSan:
            san::runMsanPass(m, *ctx.san);
            break;
        }
    }

  private:
    SanitizerKind kind_;
    const char *name_;
    uint64_t id_;
};

/** The sanitizer-check optimizer as a registered pass. */
class SanOptPass : public ir::ModulePass
{
  public:
    const char *name() const override { return "sanopt"; }
    uint64_t pipelineId() const override { return idOf("sanopt"); }

    void
    run(ir::Module &m, ir::PassContext &ctx) override
    {
        UBF_ASSERT(ctx.san, "sanopt run without a SanitizerContext");
        san::runSanOpt(m, *ctx.san);
    }
};

/** One hardening family as a registered pass. */
class HardenPass : public ir::ModulePass
{
  public:
    HardenPass(uint32_t bit, const char *name, uint64_t id)
        : bit_(bit), name_(name), id_(id)
    {
    }

    const char *name() const override { return name_; }
    uint64_t pipelineId() const override { return id_; }

    void
    run(ir::Module &m, ir::PassContext &ctx) override
    {
        (void)ctx;
        ir::PassContext::noteHardened(m, bit_);
        if (bit_ == harden::kDuplicateCompare)
            harden::runDuplicateComparePass(m);
        else
            harden::runCfgSignaturePass(m);
    }

  private:
    uint32_t bit_;
    const char *name_;
    uint64_t id_;
};

void
registerBuiltins(PassRegistry &r)
{
    auto fn = [&r](const char *name, auto create) {
        uint64_t id = idOf(name);
        r.add(name, id, [create, id] {
            return std::make_unique<FunctionPassAdapter>(create(), id);
        });
    };
    fn("constfold", [] { return opt::createConstFold(); });
    fn("peephole.gcc", [] { return opt::createPeephole(Vendor::GCC); });
    fn("peephole.llvm",
       [] { return opt::createPeephole(Vendor::LLVM); });
    fn("cse", [] { return opt::createCSE(); });
    fn("storefwd", [] { return opt::createStoreForward(); });
    fn("dse", [] { return opt::createDSE(); });
    fn("dce", [] { return opt::createDCE(); });
    fn("simplifycfg", [] { return opt::createSimplifyCFG(); });
    fn("lifetimehoist", [] { return opt::createLifetimeHoist(); });

    auto sanPass = [&r](const char *name, SanitizerKind kind) {
        uint64_t id = idOf(name);
        r.add(name, id, [kind, name, id] {
            return std::make_unique<SanitizerPass>(kind, name, id);
        });
    };
    sanPass("asan", SanitizerKind::ASan);
    sanPass("ubsan", SanitizerKind::UBSan);
    sanPass("msan", SanitizerKind::MSan);
    r.add("sanopt", idOf("sanopt"),
          [] { return std::make_unique<SanOptPass>(); });

    auto hardenPass = [&r](const char *name, uint32_t bit) {
        uint64_t id = idOf(name);
        r.add(name, id, [bit, name, id] {
            return std::make_unique<HardenPass>(bit, name, id);
        });
    };
    hardenPass("harden.dup", harden::kDuplicateCompare);
    hardenPass("harden.sig", harden::kCfgSignature);
}

} // namespace

PassRegistry &
PassRegistry::instance()
{
    static PassRegistry *reg = [] {
        auto *r = new PassRegistry();
        registerBuiltins(*r);
        return r;
    }();
    return *reg;
}

void
PassRegistry::add(const std::string &name, uint64_t pipelineId,
                  Factory f)
{
    for (const auto &[n, e] : entries_) {
        UBF_ASSERT(n != name, "pass '", name, "' registered twice");
        UBF_ASSERT(e.id != pipelineId, "pass '", name,
                   "' collides with '", n, "' on pipelineId ",
                   pipelineId);
    }
    entries_.emplace_back(name, Entry{pipelineId, std::move(f)});
}

std::unique_ptr<ir::ModulePass>
PassRegistry::create(const std::string &name) const
{
    for (const auto &[n, e] : entries_)
        if (n == name)
            return e.factory();
    UBF_PANIC("unknown pass '", name, "'");
}

bool
PassRegistry::has(const std::string &name) const
{
    for (const auto &[n, e] : entries_)
        if (n == name)
            return true;
    return false;
}

Pipeline
buildEarlyPipeline(Vendor vendor, OptLevel level)
{
    const PassRegistry &r = PassRegistry::instance();
    auto add = [&](Pipeline &p, const char *name) {
        p.push_back(r.create(name));
    };
    const char *peephole =
        vendor == Vendor::GCC ? "peephole.gcc" : "peephole.llvm";

    // Even -O0 performs local constant folding (§1: "even with -O0,
    // some basic optimizations, such as constant folding, may still
    // optimize away the UB").
    Pipeline p;
    add(p, "constfold");
    if (level == OptLevel::O0)
        return p;
    add(p, peephole);
    if (vendor == Vendor::GCC) {
        // GCC: CSE and DSE arrive at -Os/-O2; store forwarding and
        // lifetime hoisting are -O2/-O3 features.
        add(p, "dce");
        add(p, "simplifycfg");
        if (optAtLeast(level, OptLevel::Os)) {
            add(p, "cse");
            add(p, "dse");
        }
        if (optAtLeast(level, OptLevel::O2)) {
            add(p, "storefwd");
            add(p, "constfold");
            add(p, "dce");
        }
        if (level == OptLevel::O3)
            add(p, "lifetimehoist");
    } else {
        // LLVM: more eager at -O1 (store forwarding, DSE), with an
        // extra combine round at -O2 and above.
        add(p, "cse");
        add(p, "storefwd");
        add(p, "constfold");
        add(p, "dse");
        add(p, "dce");
        add(p, "simplifycfg");
        if (optAtLeast(level, OptLevel::O2)) {
            add(p, peephole);
            add(p, "constfold");
            add(p, "dce");
        }
    }
    return p;
}

Pipeline
buildSpecializePipeline(Vendor vendor, OptLevel level,
                        SanitizerKind sanitizer, uint32_t hardenMask)
{
    (void)vendor; // the late round is vendor-independent today

    const PassRegistry &r = PassRegistry::instance();
    auto add = [&](Pipeline &p, const char *name) {
        p.push_back(r.create(name));
    };

    Pipeline p;
    // Sanitizer family + check optimizer (exactly san::instrument's
    // dispatch: nothing at all for a plain build).
    switch (sanitizer) {
      case SanitizerKind::None:
        break;
      case SanitizerKind::ASan:
        add(p, "asan");
        break;
      case SanitizerKind::UBSan:
        add(p, "ubsan");
        break;
      case SanitizerKind::MSan:
        add(p, "msan");
        break;
    }
    if (sanitizer != SanitizerKind::None)
        add(p, "sanopt");

    // Late cleanup round: lighter than the early pipeline. Sanitizer
    // checks are opaque side-effecting instructions here, exactly like
    // __asan_report calls in real compilers.
    if (level != OptLevel::O0) {
        add(p, "constfold");
        add(p, "cse");
        add(p, "dce");
        add(p, "simplifycfg");
        if (optAtLeast(level, OptLevel::O2))
            add(p, "dse");
    }

    // Hardening last: the optimizers must never see the redundancy.
    if (hardenMask & harden::kDuplicateCompare)
        add(p, "harden.dup");
    if (hardenMask & harden::kCfgSignature)
        add(p, "harden.sig");
    return p;
}

uint64_t
pipelineFingerprint(const Pipeline &pipeline)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &pass : pipeline) {
        uint64_t id = pass->pipelineId();
        for (int i = 0; i < 8; i++) {
            h = (h ^ static_cast<uint8_t>(id >> (i * 8))) *
                0x100000001b3ULL;
        }
    }
    return h;
}

uint64_t
earlyPipelineFingerprint(Vendor vendor, OptLevel level)
{
    // 2 vendors x 5 levels, computed once (magic static): the hot path
    // queries this per compile and must not rebuild pipelines.
    static const auto table = [] {
        std::array<std::array<uint64_t, 5>, 2> t{};
        for (int v = 0; v < 2; v++) {
            for (int l = 0; l < 5; l++) {
                t[v][l] = pipelineFingerprint(buildEarlyPipeline(
                    static_cast<Vendor>(v), static_cast<OptLevel>(l)));
            }
        }
        return t;
    }();
    return table[static_cast<size_t>(vendor)][static_cast<size_t>(level)];
}

void
runModulePipeline(ir::Module &m, const Pipeline &pipeline,
                  ir::PassContext &ctx)
{
    size_t i = 0;
    while (i < pipeline.size()) {
        opt::Pass *fp = pipeline[i]->asFunctionPass();
        if (!fp) {
            pipeline[i]->run(m, ctx);
            i++;
            continue;
        }
        // Batch the maximal adapter run into one fixpoint group:
        // for iteration { for function { for pass } }.
        std::vector<opt::Pass *> group;
        while (i < pipeline.size() &&
               (fp = pipeline[i]->asFunctionPass()) != nullptr) {
            group.push_back(fp);
            i++;
        }
        for (int iter = 0; iter < ctx.iterations; iter++) {
            bool changed = false;
            for (ir::Function &f : m.functions) {
                for (opt::Pass *pass : group)
                    changed |= pass->run(m, f);
            }
            if (!changed)
                break;
        }
    }
}

} // namespace ubfuzz::passes
