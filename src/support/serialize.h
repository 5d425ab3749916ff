/**
 * @file
 * Versioned, endian-fixed binary serialization for campaign state.
 *
 * The campaign service journals one record per completed unit to disk
 * and replays it on resume — across processes, machines, and PRs — so
 * the byte format must be pinned, not "whatever the host ABI does".
 * The codec here is explicit little-endian with fixed-width fields,
 * written byte by byte (shifts, never memcpy of host integers), so the
 * same struct serializes to the same bytes on every platform. The
 * format carries a version (kSerializeFormatVersion, embedded in the
 * journal manifest) and test_serialize pins the exact bytes of a known
 * CampaignStats with a golden test: any accidental format change
 * breaks a test before it breaks a stored campaign.
 *
 * Every wire type lists its fields once, in a walk:
 *
 *   template <class IO, MaybeConst<T> S>
 *   void walk(IO &io, S &v) { io(v.a, v.b, v.c); }
 *
 * A ByteWriter runs the walk to write (S = const T) and a ByteReader
 * runs the same walk to read (S = T), so the two directions cannot
 * drift apart. Each field's bytes follow from its C++ type:
 *
 *   bool                  u8, 0 or 1
 *   enum                  u8, below the type's enumEnd()
 *   4- / 8-byte integer   u32 / u64 (signed ones as two's complement)
 *   T[N]                  u32 N | N × T
 *   map, set, vector      u32 count | elements (map: key, value)
 *   shared_ptr<const T>   T
 *   struct                its own walk
 *
 * serialize.cc walks CampaignStats, FindingRecord, CompilerConfig,
 * SourceLoc, CorpusKey and the unit record below; the three counter
 * structs (compiler::CompileStats, vm::ExecStats, fuzzer::HardenStats)
 * are walked through their `kCounters` lists, which their `merge`
 * folds too; campaign/store.cc walks the journal Manifest. Adding a
 * field is one line in its type's walk or counter list, plus a bump of
 * kSerializeFormatVersion (campaign::kJournalFormatVersion for the
 * Manifest).
 *
 * Decoding is total: a short read, a bool byte above 1, an enum byte
 * at or past its type's end, a wrong array length or a repeated map or
 * set key flips the reader's sticky fail flag instead of producing a
 * value the program would misread. That is what the journal's torn-
 * tail recovery and the worker-frame check are built on: neither
 * trusts a checksum alone.
 */

#ifndef UBFUZZ_SUPPORT_SERIALIZE_H
#define UBFUZZ_SUPPORT_SERIALIZE_H

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/toolchain.h"

namespace ubfuzz {

namespace fuzzer {
struct CampaignStats;
struct FindingRecord;
struct CorpusKey;
namespace detail {
struct UnitOutput;
} // namespace detail
} // namespace fuzzer

namespace campaign {
struct UnitRecord;
} // namespace campaign

namespace support {

/**
 * Bump on any change to the byte layout of the serializers below. The
 * campaign store writes it into every journal manifest and refuses to
 * replay a journal from a different format version.
 */
inline constexpr uint32_t kSerializeFormatVersion = 4;

/** A walk's subject: T when a ByteReader runs it, const T when a
 *  ByteWriter does. */
template <class S, class T>
concept MaybeConst = std::same_as<std::remove_const_t<S>, T>;

/** One past the last value of each enum on the wire; the reader fails
 *  on any byte at or past it. */
template <class E>
constexpr unsigned
enumEnd()
{
    if constexpr (std::is_same_v<E, Vendor>)
        return static_cast<unsigned>(E::LLVM) + 1;
    else if constexpr (std::is_same_v<E, OptLevel>)
        return static_cast<unsigned>(E::O3) + 1;
    else if constexpr (std::is_same_v<E, SanitizerKind>)
        return static_cast<unsigned>(E::MSan) + 1;
    else // san::BugId, ubgen::UBKind
        return static_cast<unsigned>(E::kCount);
}

/** Append-only little-endian byte sink. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; i++)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }

    /** u32 length prefix + raw bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf_.append(s.data(), s.size());
    }

    /** Write @p fields in order, each by its type (file comment). */
    template <class... F>
    void operator()(const F &...fields) { (put(fields), ...); }

    const std::string &data() const { return buf_; }
    size_t size() const { return buf_.size(); }

  private:
    template <class T>
    void
    put(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>)
            b(v);
        else if constexpr (std::is_enum_v<T>)
            u8(static_cast<uint8_t>(v));
        else if constexpr (std::is_integral_v<T> && sizeof(T) == 8)
            u64(static_cast<uint64_t>(v));
        else if constexpr (std::is_integral_v<T> && sizeof(T) == 4)
            u32(static_cast<uint32_t>(v));
        else
            walk(*this, v);
    }

    /** Arrays and containers: count, then elements. */
    template <class C>
        requires requires(const C &c) { std::size(c); }
    void
    put(const C &c)
    {
        u32(static_cast<uint32_t>(std::size(c)));
        for (const auto &x : c)
            put(x);
    }

    template <class A, class B>
    void put(const std::pair<A, B> &p) { put(p.first); put(p.second); }
    template <class T>
    void put(const std::shared_ptr<const T> &p) { put(*p); }

    std::string buf_;
};

/**
 * Bounds-checked little-endian reader over a byte view. A read past
 * the end (or a failed expectation) sets the sticky fail flag and
 * returns a zero value; callers check ok() once at the end instead of
 * after every field.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view data) : data_(data) {}

    bool ok() const { return ok_; }
    size_t remaining() const { return data_.size() - pos_; }
    size_t pos() const { return pos_; }

    uint8_t
    u8()
    {
        if (pos_ + 1 > data_.size()) {
            ok_ = false;
            return 0;
        }
        return static_cast<uint8_t>(data_[pos_++]);
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; i++)
            v |= static_cast<uint32_t>(u8()) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        for (int i = 0; i < 8; i++)
            v |= static_cast<uint64_t>(u8()) << (8 * i);
        return v;
    }

    bool
    b()
    {
        uint8_t v = u8();
        if (v > 1)
            ok_ = false;
        return v == 1;
    }

    std::string
    str()
    {
        uint32_t n = u32();
        if (pos_ + n > data_.size()) {
            ok_ = false;
            return {};
        }
        std::string s(data_.substr(pos_, n));
        pos_ += n;
        return s;
    }

    /** Fail unless the next bytes equal @p expected (consumed either way). */
    void
    expectU64(uint64_t expected)
    {
        if (u64() != expected)
            ok_ = false;
    }

    /** Read @p fields in order, each by its type (file comment). */
    template <class... F>
    void operator()(F &...fields) { (get(fields), ...); }

  private:
    template <class T>
    void
    get(T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            v = b();
        } else if constexpr (std::is_enum_v<T>) {
            uint8_t raw = u8();
            if (raw < enumEnd<T>())
                v = static_cast<T>(raw);
            else
                ok_ = false;
        } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
            v = static_cast<T>(u64());
        } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
            v = static_cast<T>(u32());
        } else if constexpr (std::is_array_v<T>) {
            if (u32() != std::size(v))
                ok_ = false;
            for (auto &x : v)
                get(x);
        } else {
            walk(*this, v);
        }
    }

    template <class T>
    void
    get(std::vector<T> &v)
    {
        v.clear();
        for (uint32_t n = u32(); n > 0 && ok_; n--)
            get(v.emplace_back());
    }

    template <class K, class V>
    void get(std::map<K, V> &m) { getUnique<std::pair<K, V>>(m); }
    template <class K>
    void get(std::set<K> &s) { getUnique<K>(s); }

    /** Map and set elements. A repeated key fails the read, so every
     *  accepted input is exactly what the writer writes. */
    template <class E, class C>
    void
    getUnique(C &c)
    {
        c.clear();
        for (uint32_t n = u32(); n > 0 && ok_; n--) {
            E e{};
            get(e);
            if (!c.insert(std::move(e)).second)
                ok_ = false;
        }
    }

    template <class A, class B>
    void get(std::pair<A, B> &p) { get(p.first); get(p.second); }

    template <class T>
    void
    get(std::shared_ptr<const T> &p)
    {
        auto v = std::make_shared<T>();
        get(*v);
        p = std::move(v);
    }

    std::string_view data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** FNV-1a over @p bytes — the journal's record checksum. */
uint64_t fnv1a(std::string_view bytes);

/** @{ Campaign-state serializers. Deserializers return the reader's
 *  ok(): false means torn/corrupt input, and the output value must
 *  not be used. */
void serialize(ByteWriter &w, const fuzzer::CorpusKey &key);
bool deserialize(ByteReader &r, fuzzer::CorpusKey &key);

void serialize(ByteWriter &w, const fuzzer::FindingRecord &rec);
bool deserialize(ByteReader &r, fuzzer::FindingRecord &rec);

void serialize(ByteWriter &w, const fuzzer::CampaignStats &stats);
bool deserialize(ByteReader &r, fuzzer::CampaignStats &stats);
/** @} */

/**
 * @{ The unit record: the one wire form of a unit's result, written by
 * the campaign journal (campaign/store.h) and by an isolated worker
 * onto its result pipe (fuzzer/supervisor.h):
 *
 *   record:  payload length u32 | FNV-1a(payload) u64 | payload
 *   payload: unit index u32 | kind u8 | CampaignStats delta
 *            | memo-add count u32 | (CorpusKey, CampaignStats)*
 *
 * Kind 0 is a completed unit (the delta is its full stats), kind 1 a
 * quarantined one (the delta carries only supervision counters and
 * there are no memo adds); any other kind fails the record. A worker's
 * fuzzer::detail::UnitOutput encodes as the completed record of its
 * unit, byte for byte what the journal appends for it, and decoding
 * into one fails on a quarantine record. A payload decodes only if it
 * is consumed exactly.
 */
std::string encodeRecord(const campaign::UnitRecord &rec);
std::string encodeRecord(int unit, const fuzzer::detail::UnitOutput &out);
bool decodeRecord(std::string_view payload, campaign::UnitRecord &rec);
bool decodeRecord(std::string_view payload, int &unit,
                  fuzzer::detail::UnitOutput &out);

/** The one record reader: the payload of the record at @p pos, with
 *  @p pos advanced past it, or nullopt (@p pos unchanged) when the
 *  bytes there are short or fail their checksum. */
std::optional<std::string_view> readRecord(std::string_view bytes,
                                           size_t &pos);
/** @} */

} // namespace support
} // namespace ubfuzz

#endif // UBFUZZ_SUPPORT_SERIALIZE_H
