#include "ir/ir.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace ubfuzz::ir {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::Const: return "const";
      case Opcode::Bin: return "bin";
      case Opcode::Cast: return "cast";
      case Opcode::Select: return "select";
      case Opcode::FrameAddr: return "frameaddr";
      case Opcode::GlobalAddr: return "globaladdr";
      case Opcode::Gep: return "gep";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::MemCopy: return "memcopy";
      case Opcode::Br: return "br";
      case Opcode::CondBr: return "condbr";
      case Opcode::Ret: return "ret";
      case Opcode::Call: return "call";
      case Opcode::Malloc: return "malloc";
      case Opcode::Free: return "free";
      case Opcode::Checksum: return "checksum";
      case Opcode::LogVal: return "log_val";
      case Opcode::LogPtr: return "log_ptr";
      case Opcode::LogBuf: return "log_buf";
      case Opcode::LogScopeEnter: return "log_scope_enter";
      case Opcode::LogScopeExit: return "log_scope_exit";
      case Opcode::LifetimeStart: return "lifetime_start";
      case Opcode::LifetimeEnd: return "lifetime_end";
      case Opcode::AsanCheck: return "asan_check";
      case Opcode::UbsanArith: return "ubsan_arith";
      case Opcode::UbsanShift: return "ubsan_shift";
      case Opcode::UbsanDiv: return "ubsan_div";
      case Opcode::UbsanNull: return "ubsan_null";
      case Opcode::UbsanBounds: return "ubsan_bounds";
      case Opcode::MsanCheck: return "msan_check";
      case Opcode::HardenCheck: return "harden_check";
    }
    return "?";
}

Module
cloneModule(const Module &m)
{
    // Module owns all of its state by value, so the copy constructor
    // performs the deep clone; see the declaration for why the
    // operation still deserves a name.
    return m;
}

Module
cloneModuleWithoutBodies(const Module &m)
{
    Module out;
    out.globals = m.globals;
    out.mainIndex = m.mainIndex;
    out.asanGlobals = m.asanGlobals;
    out.asanHeap = m.asanHeap;
    out.msan = m.msan;
    out.instrumentedWith = m.instrumentedWith;
    out.hardenedWith = m.hardenedWith;
    out.functions.reserve(m.functions.size());
    for (const Function &f : m.functions) {
        Function &g = out.functions.emplace_back();
        g.name = f.name;
        g.retKind = f.retKind;
        g.numParams = f.numParams;
        g.frame = f.frame;
        g.blocks = f.blocks;
        g.numRegs = f.numRegs;
        g.callArgs = f.callArgs;
    }
    return out;
}

uint64_t
canonicalValue(uint64_t raw, ScalarKind k)
{
    int bits = ast::scalarBits(k);
    if (bits >= 64 || bits == 0)
        return raw;
    uint64_t mask = (1ULL << bits) - 1;
    raw &= mask;
    if (ast::scalarSigned(k) && (raw & (1ULL << (bits - 1))))
        raw |= ~mask;
    return raw;
}

uint64_t
evalBinary(BinOp op, ScalarKind k, uint64_t a, uint64_t b, bool &trapped)
{
    trapped = false;
    a = canonicalValue(a, k);
    b = canonicalValue(b, k);
    bool sgn = ast::scalarSigned(k);
    int bits = ast::scalarBits(k);
    uint64_t mask = bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
    uint64_t r = 0;
    switch (op) {
      case BinOp::Add: r = a + b; break;
      case BinOp::Sub: r = a - b; break;
      case BinOp::Mul: r = a * b; break;
      case BinOp::Div:
      case BinOp::Rem: {
        if (canonicalValue(b, k) == 0) {
            trapped = true;
            return 0;
        }
        if (sgn) {
            int64_t sa = static_cast<int64_t>(a);
            int64_t sb = static_cast<int64_t>(b);
            int64_t minv = bits >= 64 ? INT64_MIN : -(1LL << (bits - 1));
            if (sa == minv && sb == -1) {
                trapped = true;
                return 0;
            }
            r = static_cast<uint64_t>(op == BinOp::Div ? sa / sb
                                                       : sa % sb);
        } else {
            uint64_t ua = a & mask, ub = b & mask;
            r = op == BinOp::Div ? ua / ub : ua % ub;
        }
        break;
      }
      case BinOp::Shl:
      case BinOp::Shr: {
        uint64_t count = b & (bits == 64 ? 63 : 31);
        if (op == BinOp::Shl)
            r = a << count;
        else if (sgn)
            r = static_cast<uint64_t>(static_cast<int64_t>(a) >> count);
        else
            r = (a & mask) >> count;
        break;
      }
      case BinOp::BitAnd: r = a & b; break;
      case BinOp::BitOr: r = a | b; break;
      case BinOp::BitXor: r = a ^ b; break;
      case BinOp::Lt:
        return sgn ? static_cast<int64_t>(a) < static_cast<int64_t>(b)
                   : (a & mask) < (b & mask);
      case BinOp::Le:
        return sgn ? static_cast<int64_t>(a) <= static_cast<int64_t>(b)
                   : (a & mask) <= (b & mask);
      case BinOp::Gt:
        return sgn ? static_cast<int64_t>(a) > static_cast<int64_t>(b)
                   : (a & mask) > (b & mask);
      case BinOp::Ge:
        return sgn ? static_cast<int64_t>(a) >= static_cast<int64_t>(b)
                   : (a & mask) >= (b & mask);
      case BinOp::Eq:
        return a == b;
      case BinOp::Ne:
        return a != b;
      case BinOp::LAnd:
      case BinOp::LOr:
        UBF_PANIC("logical ops never reach evalBinary");
    }
    return canonicalValue(r, k);
}

namespace {

std::string
valueText(const Value &v)
{
    if (v.isReg()) {
        std::string s = "%";
        s += std::to_string(v.reg);
        return s;
    }
    if (v.isImm())
        return std::to_string(static_cast<int64_t>(v.imm));
    return "_";
}

/** Does call @p i's argument slice lie inside @p f's pool? */
bool
argsInPool(const Function &f, const Inst &i)
{
    return uint64_t{i.argBegin} + i.argCount <= f.callArgs.size();
}

void
printInst(std::ostringstream &os, const Function &f, const Inst &i)
{
    os << "    ";
    if (i.dst)
        os << "%" << i.dst << " = ";
    os << opcodeName(i.op);
    if (i.op == Opcode::Bin)
        os << "." << ast::binaryOpSpelling(i.binOp);
    os << "." << ast::scalarName(i.kind);
    if (!i.a.isNone())
        os << " " << valueText(i.a);
    if (!i.b.isNone())
        os << ", " << valueText(i.b);
    if (!i.c.isNone())
        os << ", " << valueText(i.c);
    if (argsInPool(f, i)) {
        for (const Value &arg : f.argsOf(i))
            os << ", " << valueText(arg);
    } else {
        os << ", args out of range";
    }
    if (i.op == Opcode::Br)
        os << " -> bb" << i.targets[0];
    if (i.op == Opcode::CondBr)
        os << " -> bb" << i.targets[0] << ", bb" << i.targets[1];
    if (i.op == Opcode::Call)
        os << " fn#" << i.callee;
    if (i.op == Opcode::FrameAddr || i.op == Opcode::GlobalAddr ||
        i.op == Opcode::LifetimeStart || i.op == Opcode::LifetimeEnd)
        os << " obj#" << i.object;
    if (i.imm)
        os << " imm=" << i.imm;
    if (i.bound)
        os << " bound=" << i.bound;
    if (i.loc.isValid())
        os << "  #" << i.loc.line << "," << i.loc.offset;
    os << "\n";
}

} // namespace

std::string
printModule(const Module &m)
{
    std::ostringstream os;
    for (size_t gi = 0; gi < m.globals.size(); gi++) {
        const GlobalObject &g = m.globals[gi];
        os << "global #" << gi << " " << g.name << " size=" << g.size;
        if (g.redzone)
            os << " redzone=" << g.redzone;
        os << "\n";
    }
    for (size_t fi = 0; fi < m.functions.size(); fi++) {
        const Function &f = m.functions[fi];
        os << "fn #" << fi << " " << f.name << " (params "
           << f.numParams << ")\n";
        for (size_t oi = 0; oi < f.frame.size(); oi++) {
            const FrameObject &o = f.frame[oi];
            os << "  obj#" << oi << " " << o.name << " size=" << o.size;
            if (o.scoped)
                os << " scoped";
            if (o.redzone)
                os << " redzone=" << o.redzone;
            os << "\n";
        }
        for (size_t b = 0; b < f.blocks.size(); b++) {
            const BasicBlock &bb = f.blocks[b];
            os << "  bb" << b << ":\n";
            if (uint64_t{bb.begin} + bb.count > f.insts.size()) {
                os << "    range out of the body\n";
                continue;
            }
            for (const Inst &inst : f.instsOf(bb))
                printInst(os, f, inst);
        }
    }
    return os.str();
}

namespace {

/**
 * The one serializer behind executionKey and binaryKey: every field
 * the VM reads, in a fixed order, written to @p sink as 64-bit words
 * (`sink.word(v)`) and, for global initializers, raw bytes
 * (`sink.bytes(p, n)`, always preceded by the word n). The stream is
 * self-delimiting, so two modules produce the same sequence of sink
 * calls exactly when they produce the same bytes.
 */
template <typename Sink>
void
serializeExecutionKey(const Module &m, Sink &sink)
{
    auto u64 = [&sink](uint64_t v) { sink.word(v); };
    auto val = [&u64](const Value &v) {
        u64(static_cast<uint64_t>(v.tag));
        u64(v.reg);
        u64(v.imm);
    };
    u64(static_cast<uint64_t>(m.mainIndex));
    u64(m.asanGlobals);
    u64(m.asanHeap);
    u64(m.msan.enabled);
    u64(m.msan.bugSubConstDefined);
    u64(m.msan.bugAndDefined);
    u64(m.hardenedWith);
    u64(m.globals.size());
    for (const GlobalObject &g : m.globals) {
        u64(g.size);
        u64(g.align);
        u64(g.redzone);
        u64(g.poisonSkip);
        u64(g.declId);
        u64(g.init.size());
        sink.bytes(g.init.data(), g.init.size());
        u64(g.relocs.size());
        for (const GlobalObject::Reloc &r : g.relocs) {
            u64(r.offset);
            u64(r.targetIndex);
            u64(static_cast<uint64_t>(r.addend));
        }
    }
    u64(m.functions.size());
    for (const Function &f : m.functions) {
        u64(static_cast<uint64_t>(f.retKind));
        u64(f.numParams);
        u64(f.numRegs);
        u64(f.frame.size());
        for (const FrameObject &o : f.frame) {
            u64(o.size);
            u64(o.align);
            u64(o.scoped);
            u64(o.redzone);
            u64(o.declId);
        }
        u64(f.blocks.size());
        for (size_t b = 0; b < f.blocks.size(); b++) {
            const BasicBlock &bb = f.blocks[b];
            u64(b);
            u64(bb.count);
            for (const Inst &i : f.instsOf(bb)) {
                u64(static_cast<uint64_t>(i.op));
                u64(static_cast<uint64_t>(i.kind));
                u64(i.dst);
                u64(static_cast<uint64_t>(i.binOp));
                val(i.a);
                val(i.b);
                val(i.c);
                u64(i.imm);
                u64(i.targets[0]);
                u64(i.targets[1]);
                u64(i.callee);
                u64(i.object);
                u64(i.flag);
                u64(i.bound);
                u64(i.argCount);
                for (const Value &a : f.argsOf(i))
                    val(a);
                u64(static_cast<uint64_t>(
                    static_cast<uint32_t>(i.loc.line)));
                u64(static_cast<uint64_t>(
                    static_cast<uint32_t>(i.loc.offset)));
            }
        }
    }
}

/** executionKey's sink: appends each word's 8 native-order bytes and
 *  the raw bytes verbatim. */
struct StringSink
{
    std::string out;

    void
    word(uint64_t v)
    {
        out.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void
    bytes(const void *p, size_t n)
    {
        out.append(static_cast<const char *>(p), n);
    }
};

/** Fold the 128-bit product of @p a and @p b into 64 bits (hi ^ lo). */
inline uint64_t
mulFold(uint64_t a, uint64_t b)
{
    unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
    return static_cast<uint64_t>(r) ^ static_cast<uint64_t>(r >> 64);
}

/** MurmurHash3's 64-bit finalizer. */
inline uint64_t
fmix64(uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

/**
 * binaryKey's sink: hashes the serialization without materializing
 * it. Word i of the stream is mixed into lane i mod 4 as
 * lane = mulFold(lane ^ word, kLaneMul); the four lanes are independent
 * chains, so their multiplies overlap. The lanes rotate through a_..d_
 * (a_ always takes the next word), which keeps the whole state in
 * registers once the serializer is inlined. Raw bytes are read 8 at a
 * time; a partial tail word carries its byte count in its top byte,
 * above the at most 7 data bytes. The key's length counts serialized
 * bytes exactly as executionKey(m).size() does.
 */
class HashSink
{
  public:
    void
    word(uint64_t v)
    {
        len_ += sizeof(v);
        mix(v);
    }

    void
    bytes(const void *p, size_t n)
    {
        len_ += n;
        const unsigned char *b = static_cast<const unsigned char *>(p);
        for (; n >= sizeof(uint64_t); b += sizeof(uint64_t),
                                      n -= sizeof(uint64_t)) {
            uint64_t w;
            std::memcpy(&w, b, sizeof(w));
            mix(w);
        }
        if (n) {
            uint64_t w = 0;
            std::memcpy(&w, b, n);
            mix(w | static_cast<uint64_t>(n) << 56);
        }
    }

    BinaryKey
    finish() const
    {
        uint64_t h = len_;
        h = mulFold(h ^ a_, 0xa0761d6478bd642fULL);
        h = mulFold(h ^ b_, 0xe7037ed1a0b428dbULL);
        h = mulFold(h ^ c_, 0x8ebc6af09c88c6e3ULL);
        h = mulFold(h ^ d_, 0x589965cc75374cc3ULL);
        BinaryKey key;
        key.hash = fmix64(h);
        key.len = len_;
        return key;
    }

  private:
    static constexpr uint64_t kLaneMul = 0x9e3779b97f4a7c15ULL;

    void
    mix(uint64_t w)
    {
        uint64_t lane = mulFold(a_ ^ w, kLaneMul);
        a_ = b_;
        b_ = c_;
        c_ = d_;
        d_ = lane;
    }

    /** Lane seeds: the first hex digits of pi. */
    uint64_t a_ = 0x243f6a8885a308d3ULL;
    uint64_t b_ = 0x13198a2e03707344ULL;
    uint64_t c_ = 0xa4093822299f31d0ULL;
    uint64_t d_ = 0x082efa98ec4e6c89ULL;
    uint64_t len_ = 0;
};

} // namespace

std::string
executionKey(const Module &m)
{
    StringSink sink;
    sink.out.reserve(4096);
    serializeExecutionKey(m, sink);
    return std::move(sink.out);
}

BinaryKey
binaryKey(const Module &m)
{
    HashSink sink;
    serializeExecutionKey(m, sink);
    return sink.finish();
}

const std::vector<uint8_t> &
CycleFinder::cyclicBlocks(const Function &f)
{
    // One iterative Tarjan walk over the CFG, from every block not yet
    // visited, so blocks unreachable from the entry are covered too. A
    // block is on a loop iff its strongly connected component has two
    // or more blocks, or it branches to itself.
    const uint32_t n = static_cast<uint32_t>(f.blocks.size());
    // A block whose component is complete gets the largest order, so
    // an edge into it never lowers a low-link.
    constexpr uint32_t kDone = UINT32_MAX;
    cyclic_.assign(n, 0);
    order_.assign(n, 0);
    low_.resize(n);
    stack_.clear();
    frames_.clear();
    uint32_t visited = 0;
    auto enter = [&](uint32_t b) {
        order_[b] = low_[b] = ++visited;
        stack_.push_back(b);
        const Inst &term = f.instsOf(f.blocks[b]).back();
        const uint32_t succs = term.op == Opcode::Br       ? 1
                               : term.op == Opcode::CondBr ? 2
                                                           : 0;
        frames_.push_back({b, 0, succs, {term.targets[0], term.targets[1]}});
    };
    for (uint32_t root = 0; root < n; root++) {
        if (order_[root])
            continue;
        enter(root);
        while (!frames_.empty()) {
            Frame &top = frames_.back();
            const uint32_t b = top.block;
            if (top.edge < top.succs) {
                const uint32_t t = top.targets[top.edge++];
                if (t == b)
                    cyclic_[b] = 1;
                if (!order_[t])
                    enter(t);
                else
                    low_[b] = std::min(low_[b], order_[t]);
                continue;
            }
            frames_.pop_back();
            if (!frames_.empty()) {
                const uint32_t parent = frames_.back().block;
                low_[parent] = std::min(low_[parent], low_[b]);
            }
            if (low_[b] != order_[b])
                continue;
            // b roots a component: everything above it on the stack.
            const bool loop = stack_.back() != b;
            uint32_t m;
            do {
                m = stack_.back();
                stack_.pop_back();
                order_[m] = kDone;
                if (loop)
                    cyclic_[m] = 1;
            } while (m != b);
        }
    }
    return cyclic_;
}

std::string
verifyModule(const Module &m)
{
    // Which registers of the current function have a definition.
    std::vector<uint8_t> defined;
    for (size_t fi = 0; fi < m.functions.size(); fi++) {
        const Function &f = m.functions[fi];
        auto fail = [&](const std::string &why, const Inst *inst) {
            std::string msg = "fn " + f.name + ": " + why;
            if (inst)
                msg += " (in " + std::string(opcodeName(inst->op)) + ")";
            return msg;
        };
        if (f.blocks.empty())
            return fail("no blocks", nullptr);
        // translate and the VM read the body through the block ranges
        // unchecked, so the ranges must tile it, in block order, before
        // any rule below reads an instruction.
        uint64_t next = 0;
        for (size_t b = 0; b < f.blocks.size(); b++) {
            const BasicBlock &bb = f.blocks[b];
            if (bb.begin != next) {
                if (b == 0)
                    return fail("first block not at 0", nullptr);
                return fail(std::string(bb.begin > next ? "gap before bb"
                                                        : "overlap at bb") +
                                std::to_string(b),
                            nullptr);
            }
            if (bb.count == 0)
                return fail("empty block bb" + std::to_string(b), nullptr);
            next = uint64_t{bb.begin} + bb.count;
            if (next > f.insts.size())
                return fail("bb" + std::to_string(b) +
                                " range past the end of the body",
                            nullptr);
        }
        if (next != f.insts.size())
            return fail("instructions after the last block", nullptr);
        defined.assign(f.numRegs, 0);
        for (size_t b = 0; b < f.blocks.size(); b++) {
            const std::span<const Inst> body = f.instsOf(f.blocks[b]);
            for (size_t k = 0; k < body.size(); k++) {
                const Inst &inst = body[k];
                bool last = k + 1 == body.size();
                if (inst.isTerminator() != last) {
                    return fail("terminator placement in bb" +
                                    std::to_string(b),
                                &inst);
                }
                for (int t = 0; t < 2; t++) {
                    bool uses_target =
                        (inst.op == Opcode::Br && t == 0) ||
                        inst.op == Opcode::CondBr;
                    if (uses_target &&
                        inst.targets[t] >= f.blocks.size()) {
                        return fail("branch target out of range", &inst);
                    }
                }
                // The VM indexes its register file with every one of
                // these unchecked, the destination included.
                auto in_range = [&](const Value &v) {
                    return !v.isReg() || v.reg < f.numRegs;
                };
                // translate and the VM index the pool unchecked too.
                if (!argsInPool(f, inst))
                    return fail("call arguments out of range", &inst);
                const std::span<const Value> args = f.argsOf(inst);
                if (inst.dst >= f.numRegs || !in_range(inst.a) ||
                    !in_range(inst.b) || !in_range(inst.c) ||
                    !std::all_of(args.begin(), args.end(), in_range))
                    return fail("register out of range", &inst);
                if (inst.op == Opcode::Call &&
                    inst.callee >= m.functions.size())
                    return fail("callee out of range", &inst);
                if ((inst.op == Opcode::FrameAddr ||
                     inst.op == Opcode::LifetimeStart ||
                     inst.op == Opcode::LifetimeEnd) &&
                    inst.object >= f.frame.size())
                    return fail("frame object out of range", &inst);
                if (inst.op == Opcode::GlobalAddr &&
                    inst.object >= m.globals.size())
                    return fail("global out of range", &inst);
                if (inst.dst)
                    defined[inst.dst] = 1;
            }
        }
        // Every used register must have a definition somewhere in the
        // function. (Values may flow across blocks when an expression
        // contains short-circuit or ternary sub-expressions, so the
        // check is function-scoped, not block-scoped.)
        for (size_t b = 0; b < f.blocks.size(); b++) {
            for (const Inst &inst : f.instsOf(f.blocks[b])) {
                auto check_use = [&](const Value &v) {
                    return !v.isReg() || defined[v.reg];
                };
                if (!check_use(inst.a) || !check_use(inst.b) ||
                    !check_use(inst.c))
                    return fail("use of undefined register in bb" +
                                    std::to_string(b),
                                &inst);
                for (const Value &arg : f.argsOf(inst))
                    if (!check_use(arg))
                        return fail("use of undefined arg register",
                                    &inst);
            }
        }
    }
    return {};
}

} // namespace ubfuzz::ir
