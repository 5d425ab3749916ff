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
 * On top of the codec sit serialize/deserialize pairs for the campaign
 * state that crosses process boundaries: fuzzer::CampaignStats
 * (including compiler::CompileStats and vm::ExecStats), findings
 * (fuzzer::FindingRecord), and corpus-memo entries — all keyed by the
 * existing (textHash, length, kind, site) identity (fuzzer::CorpusKey).
 * Deserialization is bounds-checked and total: torn or corrupt input
 * flips the reader's fail flag instead of reading out of bounds, which
 * is what the store's truncated-tail recovery is built on.
 */

#ifndef UBFUZZ_SUPPORT_SERIALIZE_H
#define UBFUZZ_SUPPORT_SERIALIZE_H

#include <cstdint>
#include <string>
#include <string_view>

namespace ubfuzz {

namespace fuzzer {
struct CampaignStats;
struct FindingRecord;
struct CorpusKey;
} // namespace fuzzer

namespace support {

/**
 * Bump on any change to the byte layout of the serializers below. The
 * campaign store writes it into every journal manifest and refuses to
 * replay a journal from a different format version.
 */
inline constexpr uint32_t kSerializeFormatVersion = 4;

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
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }

    /** u32 length prefix + raw bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf_.append(s.data(), s.size());
    }

    const std::string &data() const { return buf_; }
    size_t size() const { return buf_.size(); }

  private:
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

    int32_t i32() { return static_cast<int32_t>(u32()); }
    int64_t i64() { return static_cast<int64_t>(u64()); }

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

  private:
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

} // namespace support
} // namespace ubfuzz

#endif // UBFUZZ_SUPPORT_SERIALIZE_H
