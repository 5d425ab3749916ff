#include "support/serialize.h"

#include "campaign/store.h"
#include "fuzzer/fuzzer.h"

namespace ubfuzz::support {

uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : bytes)
        h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
    return h;
}

// The walks live in namespace support, not an anonymous one: the
// ByteWriter and ByteReader find them by argument-dependent lookup.

template <class IO, MaybeConst<SourceLoc> S>
void
walk(IO &io, S &loc)
{
    io(loc.line, loc.offset);
}

template <class IO, MaybeConst<compiler::CompilerConfig> S>
void
walk(IO &io, S &c)
{
    io(c.vendor, c.version, c.level, c.sanitizer, c.harden);
}

template <class IO, MaybeConst<fuzzer::CorpusKey> S>
void
walk(IO &io, S &key)
{
    io(key.textHash, key.textLen, key.kind, key.ubLoc);
}

template <class IO, MaybeConst<fuzzer::FindingRecord> S>
void
walk(IO &io, S &rec)
{
    io(rec.kind, rec.crashing, rec.missing, rec.ubLoc, rec.groundTruthBug,
       rec.attributedBug);
}

/** compiler::CompileStats, vm::ExecStats, fuzzer::HardenStats. */
template <class IO, class S>
    requires requires { std::remove_const_t<S>::kCounters; }
void
walk(IO &io, S &counters)
{
    for (auto counter : std::remove_const_t<S>::kCounters)
        io(counters.*counter);
}

template <class IO, MaybeConst<fuzzer::CampaignStats> S>
void
walk(IO &io, S &s)
{
    io(s.seeds, s.unprofiledSeeds, s.ubPrograms, s.perKind,
       s.nonTriggering, s.noUB, s.discrepantPrograms,
       s.oracleSelectedPrograms, s.verdictPairs, s.selectedPairs,
       s.selectedTrueBug, s.selectedOptimization, s.droppedPairs,
       s.droppedTrueBug, s.bugFindingCounts, s.bugFirstKind, s.bugLevels,
       s.wrongReports, s.wrongReportBugs, s.invalidFindings, s.findings,
       s.compile, s.exec, s.execTimeouts, s.timeoutExcluded, s.corpusSeen,
       s.corpusDuplicates, s.harden, s.workerCrashes, s.workerTimeouts,
       s.retried, s.quarantined);
}

void
serialize(ByteWriter &w, const fuzzer::CorpusKey &key)
{
    w(key);
}

bool
deserialize(ByteReader &r, fuzzer::CorpusKey &key)
{
    r(key);
    return r.ok();
}

void
serialize(ByteWriter &w, const fuzzer::FindingRecord &rec)
{
    w(rec);
}

bool
deserialize(ByteReader &r, fuzzer::FindingRecord &rec)
{
    r(rec);
    return r.ok();
}

void
serialize(ByteWriter &w, const fuzzer::CampaignStats &stats)
{
    w(stats);
}

bool
deserialize(ByteReader &r, fuzzer::CampaignStats &stats)
{
    r(stats);
    return r.ok();
}

namespace {

/** Frame header: payload length (u32) + FNV-1a checksum (u64). */
constexpr size_t kRecordHeaderSize = 12;

/**
 * A unit record's payload, whichever struct holds the result: a
 * journal UnitRecord or a worker's UnitOutput. The memo adds of the two
 * differ only in holding each delta by value or by shared_ptr, which
 * the wire does not see.
 */
template <class IO, class Unit, class Quarantined, class Out>
void
walkRecord(IO &io, Unit &unit, Quarantined &quarantined, Out &out)
{
    io(unit, quarantined, out.stats, out.memoAdds);
}

template <class Out>
std::string
encode(int unit, bool quarantined, const Out &out)
{
    ByteWriter payload;
    walkRecord(payload, unit, quarantined, out);
    ByteWriter record;
    record.u32(static_cast<uint32_t>(payload.size()));
    record.u64(fnv1a(payload.data()));
    return record.data() + payload.data();
}

template <class Out>
bool
decode(std::string_view payload, int &unit, bool &quarantined, Out &out)
{
    ByteReader r(payload);
    walkRecord(r, unit, quarantined, out);
    // Trailing bytes mean a framing bug, not a tear, but both are
    // grounds to stop.
    return r.ok() && r.remaining() == 0;
}

} // namespace

std::string
encodeRecord(const campaign::UnitRecord &rec)
{
    return encode(rec.unit, rec.quarantined, rec);
}

std::string
encodeRecord(int unit, const fuzzer::detail::UnitOutput &out)
{
    return encode(unit, false, out);
}

bool
decodeRecord(std::string_view payload, campaign::UnitRecord &rec)
{
    return decode(payload, rec.unit, rec.quarantined, rec);
}

bool
decodeRecord(std::string_view payload, int &unit,
             fuzzer::detail::UnitOutput &out)
{
    bool quarantined = false;
    return decode(payload, unit, quarantined, out) && !quarantined;
}

std::optional<std::string_view>
readRecord(std::string_view bytes, size_t &pos)
{
    ByteReader header(bytes.substr(pos));
    uint32_t len = header.u32();
    uint64_t sum = header.u64();
    if (!header.ok() || header.remaining() < len)
        return std::nullopt;
    std::string_view payload = bytes.substr(pos + kRecordHeaderSize, len);
    if (fnv1a(payload) != sum)
        return std::nullopt;
    pos += kRecordHeaderSize + len;
    return payload;
}

} // namespace ubfuzz::support
