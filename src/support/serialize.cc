#include "support/serialize.h"

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

namespace {

void
putLoc(ByteWriter &w, const SourceLoc &loc)
{
    w.i32(loc.line);
    w.i32(loc.offset);
}

void
getLoc(ByteReader &r, SourceLoc &loc)
{
    loc.line = r.i32();
    loc.offset = r.i32();
}

void
putConfig(ByteWriter &w, const compiler::CompilerConfig &c)
{
    w.u8(static_cast<uint8_t>(c.vendor));
    w.i32(c.version);
    w.u8(static_cast<uint8_t>(c.level));
    w.u8(static_cast<uint8_t>(c.sanitizer));
    w.u32(c.harden);
}

void
getConfig(ByteReader &r, compiler::CompilerConfig &c)
{
    c.vendor = static_cast<Vendor>(r.u8());
    c.version = r.i32();
    c.level = static_cast<OptLevel>(r.u8());
    c.sanitizer = static_cast<SanitizerKind>(r.u8());
    c.harden = r.u32();
}

} // namespace

void
serialize(ByteWriter &w, const fuzzer::CorpusKey &key)
{
    w.u64(key.textHash);
    w.u64(key.textLen);
    w.u8(static_cast<uint8_t>(key.kind));
    putLoc(w, key.ubLoc);
}

bool
deserialize(ByteReader &r, fuzzer::CorpusKey &key)
{
    key.textHash = r.u64();
    key.textLen = r.u64();
    key.kind = static_cast<ubgen::UBKind>(r.u8());
    getLoc(r, key.ubLoc);
    return r.ok();
}

void
serialize(ByteWriter &w, const fuzzer::FindingRecord &rec)
{
    w.u8(static_cast<uint8_t>(rec.kind));
    putConfig(w, rec.crashing);
    putConfig(w, rec.missing);
    putLoc(w, rec.ubLoc);
    w.b(rec.groundTruthBug);
    w.i32(rec.attributedBug);
}

bool
deserialize(ByteReader &r, fuzzer::FindingRecord &rec)
{
    rec.kind = static_cast<ubgen::UBKind>(r.u8());
    getConfig(r, rec.crashing);
    getConfig(r, rec.missing);
    getLoc(r, rec.ubLoc);
    rec.groundTruthBug = r.b();
    rec.attributedBug = r.i32();
    return r.ok();
}

void
serialize(ByteWriter &w, const fuzzer::CampaignStats &s)
{
    w.u64(s.seeds);
    w.u64(s.unprofiledSeeds);
    w.u64(s.ubPrograms);
    w.u32(static_cast<uint32_t>(ubgen::kNumUBKinds));
    for (size_t k = 0; k < ubgen::kNumUBKinds; k++)
        w.u64(s.perKind[k]);
    w.u64(s.nonTriggering);
    w.u64(s.noUB);
    w.u64(s.discrepantPrograms);
    w.u64(s.oracleSelectedPrograms);
    w.u64(s.verdictPairs);
    w.u64(s.selectedPairs);
    w.u64(s.selectedTrueBug);
    w.u64(s.selectedOptimization);
    w.u64(s.droppedPairs);
    w.u64(s.droppedTrueBug);

    w.u32(static_cast<uint32_t>(s.bugFindingCounts.size()));
    for (const auto &[id, n] : s.bugFindingCounts) {
        w.u8(static_cast<uint8_t>(id));
        w.u64(n);
    }
    w.u32(static_cast<uint32_t>(s.bugFirstKind.size()));
    for (const auto &[id, kind] : s.bugFirstKind) {
        w.u8(static_cast<uint8_t>(id));
        w.u8(static_cast<uint8_t>(kind));
    }
    w.u32(static_cast<uint32_t>(s.bugLevels.size()));
    for (const auto &[id, levels] : s.bugLevels) {
        w.u8(static_cast<uint8_t>(id));
        w.u32(static_cast<uint32_t>(levels.size()));
        for (OptLevel l : levels)
            w.u8(static_cast<uint8_t>(l));
    }

    w.u64(s.wrongReports);
    w.u32(static_cast<uint32_t>(s.wrongReportBugs.size()));
    for (san::BugId id : s.wrongReportBugs)
        w.u8(static_cast<uint8_t>(id));
    w.u64(s.invalidFindings);

    w.u32(static_cast<uint32_t>(s.findings.size()));
    for (const auto &rec : s.findings)
        serialize(w, rec);

    w.u64(s.compile.lowerings);
    w.u64(s.compile.deltaLowerings);
    w.u64(s.compile.deltaFallbacks);
    w.u64(s.compile.earlyOptRuns);
    w.u64(s.compile.earlyOptCacheHits);
    w.u64(s.compile.specializations);
    w.u64(s.compile.traceExecutions);

    w.u64(s.exec.machinesBuilt);
    w.u64(s.exec.resets);
    w.u64(s.exec.executions);
    w.u64(s.exec.translations);
    w.u64(s.exec.translationHits);
    w.u64(s.exec.dedupSkips);
    w.u64(s.exec.corpusSkips);
    w.u64(s.exec.corpusCapRejects);
    w.u64(s.exec.translationCapRejects);
    w.u64(s.exec.quickenedTranslations);
    w.u64(s.exec.fusedRecords);
    w.u64(s.exec.faultInjections);

    w.u64(s.execTimeouts);
    w.u64(s.timeoutExcluded);

    w.u32(static_cast<uint32_t>(s.corpusSeen.size()));
    for (const auto &[key, n] : s.corpusSeen) {
        serialize(w, key);
        w.u64(n);
    }
    w.u64(s.corpusDuplicates);

    w.u64(s.harden.programs);
    w.u64(s.harden.faultsInjected);
    w.u64(s.harden.faultsDetected);
    w.u64(s.harden.faultsMasked);
    w.u64(s.harden.faultsSdc);
    w.u64(s.harden.driftComparisons);
    w.u64(s.harden.driftReports);

    w.u64(s.workerCrashes);
    w.u64(s.workerTimeouts);
    w.u64(s.retried);
    w.u64(s.quarantined);
}

bool
deserialize(ByteReader &r, fuzzer::CampaignStats &s)
{
    s = fuzzer::CampaignStats{};
    s.seeds = r.u64();
    s.unprofiledSeeds = r.u64();
    s.ubPrograms = r.u64();
    uint32_t kinds = r.u32();
    if (kinds != ubgen::kNumUBKinds)
        return false;
    for (size_t k = 0; k < ubgen::kNumUBKinds; k++)
        s.perKind[k] = r.u64();
    s.nonTriggering = r.u64();
    s.noUB = r.u64();
    s.discrepantPrograms = r.u64();
    s.oracleSelectedPrograms = r.u64();
    s.verdictPairs = r.u64();
    s.selectedPairs = r.u64();
    s.selectedTrueBug = r.u64();
    s.selectedOptimization = r.u64();
    s.droppedPairs = r.u64();
    s.droppedTrueBug = r.u64();

    for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); i++) {
        san::BugId id = static_cast<san::BugId>(r.u8());
        s.bugFindingCounts[id] = r.u64();
    }
    for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); i++) {
        san::BugId id = static_cast<san::BugId>(r.u8());
        s.bugFirstKind[id] = static_cast<ubgen::UBKind>(r.u8());
    }
    for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); i++) {
        san::BugId id = static_cast<san::BugId>(r.u8());
        auto &levels = s.bugLevels[id];
        for (uint32_t j = 0, m = r.u32(); j < m && r.ok(); j++)
            levels.insert(static_cast<OptLevel>(r.u8()));
    }

    s.wrongReports = r.u64();
    for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); i++)
        s.wrongReportBugs.insert(static_cast<san::BugId>(r.u8()));
    s.invalidFindings = r.u64();

    for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); i++) {
        fuzzer::FindingRecord rec;
        if (!deserialize(r, rec))
            return false;
        s.findings.push_back(rec);
    }

    s.compile.lowerings = r.u64();
    s.compile.deltaLowerings = r.u64();
    s.compile.deltaFallbacks = r.u64();
    s.compile.earlyOptRuns = r.u64();
    s.compile.earlyOptCacheHits = r.u64();
    s.compile.specializations = r.u64();
    s.compile.traceExecutions = r.u64();

    s.exec.machinesBuilt = r.u64();
    s.exec.resets = r.u64();
    s.exec.executions = r.u64();
    s.exec.translations = r.u64();
    s.exec.translationHits = r.u64();
    s.exec.dedupSkips = r.u64();
    s.exec.corpusSkips = r.u64();
    s.exec.corpusCapRejects = r.u64();
    s.exec.translationCapRejects = r.u64();
    s.exec.quickenedTranslations = r.u64();
    s.exec.fusedRecords = r.u64();
    s.exec.faultInjections = r.u64();

    s.execTimeouts = r.u64();
    s.timeoutExcluded = r.u64();

    for (uint32_t i = 0, n = r.u32(); i < n && r.ok(); i++) {
        fuzzer::CorpusKey key;
        if (!deserialize(r, key))
            return false;
        s.corpusSeen[key] = r.u64();
    }
    s.corpusDuplicates = r.u64();

    s.harden.programs = r.u64();
    s.harden.faultsInjected = r.u64();
    s.harden.faultsDetected = r.u64();
    s.harden.faultsMasked = r.u64();
    s.harden.faultsSdc = r.u64();
    s.harden.driftComparisons = r.u64();
    s.harden.driftReports = r.u64();

    s.workerCrashes = r.u64();
    s.workerTimeouts = r.u64();
    s.retried = r.u64();
    s.quarantined = r.u64();
    return r.ok();
}

} // namespace ubfuzz::support
