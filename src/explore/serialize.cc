/**
 * @file
 * Explorer-state serialization implementation.
 */

#include "src/explore/serialize.hh"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/core/config.hh"
#include "src/coverage/pathcov.hh"
#include "src/explore/explorer.hh"
#include "src/isa/instruction.hh"
#include "src/support/faultinject.hh"
#include "src/support/fnv.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::explore
{

namespace
{

/** State-file header: this magic, the version, then the kind word. */
constexpr char kStateMagic[8] = {'P', 'E', 'S', 'T', 'A', 'T', 'E', '\0'};

/**
 * Version 4: one container for both checkpoint kinds, the session
 * identity record in its header and the shared corpus section.  It
 * replaces the explorer's `PEXCKP2` v3 and the fleet's `PEFCKP1` v2
 * files, which the magic check refuses.
 */
constexpr uint32_t kStateVersion = 4;

const char *
stateKindName(uint32_t kind)
{
    switch (static_cast<StateKind>(kind)) {
    case StateKind::Explorer:
        return "explorer checkpoint";
    case StateKind::Fleet:
        return "fleet checkpoint";
    }
    return "unknown state file";
}

} // namespace

void
checkSize(const char *field, size_t expected, size_t found)
{
    if (expected != found) {
        throw wire::WireError(
            wire::WireErrorKind::Mismatch,
            detail::concat(field, " size mismatch: expected ", expected,
                           ", found ", found),
            expected, found);
    }
}

uint64_t
programFingerprint(const isa::Program &program)
{
    uint64_t h = fnvMixBytes(kFnvOffset, program.name);
    h = fnvMix(h, program.code.size());
    for (const auto &inst : program.code)
        h = fnvMix(h, isa::encode(inst));
    return h;
}

uint32_t
policyWord(const ExploreOptions &opts)
{
    return static_cast<uint32_t>(opts.policy) |
           (opts.useStaticPriors ? 0x100u : 0u) |
           (opts.pathObjective ? 0x200u : 0u);
}

uint64_t
sessionWord(const ExploreOptions &opts)
{
    uint64_t h = fnvMix(kFleetFnvOffset, policyWord(opts));
    h = fnvMix(h, opts.batchSize);
    // The percentile is a double; its bit pattern is what two
    // sessions must agree on, not some rounded rendering.
    uint64_t pct;
    static_assert(sizeof(pct) == sizeof(opts.rarePercentile));
    std::memcpy(&pct, &opts.rarePercentile, sizeof(pct));
    return fnvMix(h, pct);
}

uint64_t
seedsDigest(const std::vector<std::vector<int32_t>> &seeds)
{
    uint64_t h = fnvMix(kFleetFnvOffset, seeds.size());
    for (const auto &seed : seeds) {
        h = fnvMix(h, seed.size());
        for (int32_t v : seed)
            h = fnvMix(h, static_cast<uint32_t>(v));
    }
    return h;
}

uint64_t
coverageDigest(const coverage::BranchCoverage &cov)
{
    uint64_t h = fnvMix(kFnvOffset, cov.takenWords().size());
    for (uint64_t w : cov.takenWords())
        h = fnvMix(h, w);
    h = fnvMix(h, cov.ntWords().size());
    for (uint64_t w : cov.ntWords())
        h = fnvMix(h, w);
    return h;
}

SessionIdentity
sessionIdentity(const isa::Program &program, const ExploreOptions &opts,
                const std::vector<std::vector<int32_t>> &seeds)
{
    SessionIdentity id;
    id.configHash = core::configHash(opts.config);
    id.masterSeed = opts.seed;
    id.programFp = programFingerprint(program);
    id.sessionWord = sessionWord(opts);
    id.seedsDigest = seedsDigest(seeds);
    return id;
}

void
encodeIdentity(wire::Encoder &enc, const SessionIdentity &id)
{
    enc.u64(id.configHash);
    enc.u64(id.masterSeed);
    enc.u64(id.programFp);
    enc.u64(id.sessionWord);
    enc.u64(id.seedsDigest);
    enc.u32(id.shards);
    enc.u64(id.planDigest);
}

SessionIdentity
decodeIdentity(wire::Decoder &dec)
{
    SessionIdentity id;
    id.configHash = dec.u64("config hash");
    id.masterSeed = dec.u64("master seed");
    id.programFp = dec.u64("program fingerprint");
    id.sessionWord = dec.u64("session word");
    id.seedsDigest = dec.u64("seeds digest");
    id.shards = dec.u32("shard count");
    id.planDigest = dec.u64("plan digest");
    return id;
}

void
checkIdentity(const SessionIdentity &expected,
              const SessionIdentity &found)
{
    auto check = [](const char *field, uint64_t want, uint64_t got) {
        if (want == got)
            return;
        throw wire::WireError(
            wire::WireErrorKind::Mismatch,
            detail::concat(field, " mismatch: expected ", fmtHex(want),
                           ", found ", fmtHex(got)),
            want, got);
    };
    check("config hash", expected.configHash, found.configHash);
    check("master seed", expected.masterSeed, found.masterSeed);
    check("program fingerprint", expected.programFp, found.programFp);
    check("session word", expected.sessionWord, found.sessionWord);
    check("seeds digest", expected.seedsDigest, found.seedsDigest);
    check("shard count", expected.shards, found.shards);
    check("plan digest", expected.planDigest, found.planDigest);
}

void
encodeEntry(wire::Encoder &enc, const CorpusEntry &entry)
{
    enc.i32vec(entry.input);
    enc.u64vec(entry.coverage.takenWords());
    enc.u64vec(entry.coverage.ntWords());
    enc.u64(entry.newEdges);
    enc.u64(entry.rareEdges);
    enc.u64(entry.ntEarlyStops);
    enc.u64(entry.ntSpawned);
    enc.u64(entry.batchAdmitted);
    enc.u64(entry.timesScheduled);
    enc.u8(entry.foreign ? 1 : 0);
}

CorpusEntry
decodeEntry(wire::Decoder &dec, const isa::Program &program)
{
    std::vector<int32_t> input = dec.i32vec("entry input");
    auto taken = dec.u64vec("entry taken words");
    auto nt = dec.u64vec("entry nt words");
    coverage::BranchCoverage cov(program);
    // restoreWords() treats a size mismatch as a caller bug (abort);
    // wire data is unvalidated, so refuse it as a structured error.
    checkSize("entry taken words", cov.takenWords().size(), taken.size());
    checkSize("entry nt words", cov.ntWords().size(), nt.size());
    cov.restoreWords(taken, nt);
    CorpusEntry entry(std::move(input), std::move(cov));
    entry.newEdges = dec.u64("entry newEdges");
    entry.rareEdges = dec.u64("entry rareEdges");
    entry.ntEarlyStops = dec.u64("entry ntEarlyStops");
    entry.ntSpawned = dec.u64("entry ntSpawned");
    entry.batchAdmitted = dec.u64("entry batchAdmitted");
    entry.timesScheduled = dec.u64("entry timesScheduled");
    entry.foreign = dec.u8("entry foreign") != 0;
    return entry;
}

void
encodeEntries(wire::Encoder &enc, const std::vector<CorpusEntry> &entries)
{
    enc.u32(static_cast<uint32_t>(entries.size()));
    for (const CorpusEntry &e : entries)
        encodeEntry(enc, e);
}

std::vector<CorpusEntry>
decodeEntries(wire::Decoder &dec, const isa::Program &program)
{
    // No reserve: the count is not trusted until the entries decode.
    uint32_t n = dec.count("corpus entries");
    std::vector<CorpusEntry> entries;
    for (uint32_t i = 0; i < n; ++i)
        entries.push_back(decodeEntry(dec, program));
    return entries;
}

void
encodeBatchStats(wire::Encoder &enc, const ExploreBatchStats &stats)
{
    enc.u64(stats.batch);
    enc.u64(stats.batchRuns);
    enc.u64(stats.totalRuns);
    enc.u64(stats.admitted);
    enc.u64(stats.corpusSize);
    enc.u64(stats.takenEdges);
    enc.u64(stats.combinedEdges);
    enc.u64(stats.newEdges);
    enc.u64(stats.ntSpawned);
    enc.u64(stats.ntEarlyStops);
    enc.u64(stats.failedJobs);
    enc.u64(stats.pathsCompleted);
    enc.u64(stats.coverCompleted);
}

ExploreBatchStats
decodeBatchStats(wire::Decoder &dec)
{
    ExploreBatchStats s;
    s.batch = dec.u64("stats batch");
    s.batchRuns = dec.u64("stats batchRuns");
    s.totalRuns = dec.u64("stats totalRuns");
    s.admitted = dec.u64("stats admitted");
    s.corpusSize = dec.u64("stats corpusSize");
    s.takenEdges = dec.u64("stats takenEdges");
    s.combinedEdges = dec.u64("stats combinedEdges");
    s.newEdges = dec.u64("stats newEdges");
    s.ntSpawned = dec.u64("stats ntSpawned");
    s.ntEarlyStops = dec.u64("stats ntEarlyStops");
    s.failedJobs = dec.u64("stats failedJobs");
    s.pathsCompleted = dec.u64("stats pathsCompleted");
    s.coverCompleted = dec.u64("stats coverCompleted");
    return s;
}

CorpusState
CorpusState::of(const Corpus &corpus, const coverage::PathCoverage *paths)
{
    CorpusState s;
    s.frontierTaken = corpus.frontier().takenWords();
    s.frontierNt = corpus.frontier().ntWords();
    s.exerciseCounts = corpus.exercise().rawCounts();
    s.exerciseRuns = corpus.exercise().runsAccumulated();
    s.entries = corpus.entries();
    if (paths) {
        wire::Encoder enc;
        paths->encodeState(enc);
        s.pathState = enc.take();
    }
    return s;
}

void
CorpusState::restoreInto(Corpus &corpus, coverage::PathCoverage *paths) &&
{
    if (pathState.empty() != (paths == nullptr)) {
        // Unreachable through the public API — recordEdgeTrace is part
        // of the config hash the identity check judged — but cheap.
        throw wire::WireError(wire::WireErrorKind::Mismatch,
                              "path tracker presence mismatch",
                              paths != nullptr, !pathState.empty());
    }
    if (paths) {
        wire::Decoder dec(pathState);
        paths->decodeState(dec);
        dec.expectEnd("path tracker state");
    }
    corpus.restore(std::move(entries), frontierTaken, frontierNt,
                   exerciseCounts, exerciseRuns);
}

void
encodeCorpusState(wire::Encoder &enc, const CorpusState &state)
{
    enc.u64vec(state.frontierTaken);
    enc.u64vec(state.frontierNt);
    enc.u32vec(state.exerciseCounts);
    enc.u64(state.exerciseRuns);
    encodeEntries(enc, state.entries);
    enc.str(state.pathState);
}

CorpusState
decodeCorpusState(wire::Decoder &dec, const isa::Program &program)
{
    const Corpus blank(program);
    CorpusState s;
    s.frontierTaken = dec.u64vec("frontier taken words");
    checkSize("frontier taken words",
               blank.frontier().takenWords().size(),
               s.frontierTaken.size());
    s.frontierNt = dec.u64vec("frontier nt words");
    checkSize("frontier nt words", blank.frontier().ntWords().size(),
               s.frontierNt.size());
    s.exerciseCounts = dec.u32vec("exercise counts");
    checkSize("exercise counts", blank.exercise().rawCounts().size(),
               s.exerciseCounts.size());
    s.exerciseRuns = dec.u64("exercise runs");
    s.entries = decodeEntries(dec, program);
    s.pathState = dec.str("path tracker state");
    return s;
}

void
writeStateFile(const std::string &path, StateKind kind,
               const char *faultSite,
               const std::function<void(wire::Encoder &)> &body)
{
    fault::site(faultSite);

    wire::Encoder enc;
    enc.bytes(kStateMagic, sizeof(kStateMagic));
    enc.u32(kStateVersion);
    enc.u32(static_cast<uint32_t>(kind));
    body(enc);

    const char *what = stateKindName(static_cast<uint32_t>(kind));
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            pe_fatal("cannot write ", what, " '", tmp, "'");
        os.write(enc.buffer().data(),
                 static_cast<std::streamsize>(enc.size()));
        os.flush();
        if (!os)
            pe_fatal("write to ", what, " '", tmp, "' failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        pe_fatal("cannot rename ", what, " '", tmp, "' to '", path, "'");
}

void
readStateFile(const std::string &path, StateKind kind,
              const std::function<void(wire::Decoder &)> &body)
{
    const uint32_t want = static_cast<uint32_t>(kind);
    std::ifstream is(path, std::ios::binary);
    if (!is)
        pe_fatal("cannot open ", stateKindName(want), " '", path, "'");
    std::ostringstream raw;
    raw << is.rdbuf();
    const std::string bytes = raw.str();

    try {
        wire::Decoder dec(bytes);
        std::string magic(sizeof(kStateMagic), '\0');
        for (char &c : magic)
            c = static_cast<char>(dec.u8("state file magic"));
        if (magic != std::string(kStateMagic, sizeof(kStateMagic))) {
            auto shown = [](std::string s) {
                for (char &c : s)
                    c = std::isprint(static_cast<unsigned char>(c)) ? c
                                                                    : '.';
                return s;
            };
            throw wire::WireError(
                wire::WireErrorKind::BadMagic,
                detail::concat("not a state file: expected magic \"",
                               shown(std::string(kStateMagic, 8)),
                               "\", found \"", shown(magic), "\""));
        }
        uint32_t version = dec.u32("state file version");
        if (version != kStateVersion) {
            throw wire::WireError(
                wire::WireErrorKind::BadVersion,
                detail::concat("version mismatch: expected ",
                               kStateVersion, ", found ", version),
                kStateVersion, version);
        }
        uint32_t found = dec.u32("state file kind");
        if (found != want) {
            throw wire::WireError(
                wire::WireErrorKind::Mismatch,
                detail::concat("kind mismatch: expected ",
                               stateKindName(want), ", found ",
                               stateKindName(found)),
                want, found);
        }
        body(dec);
    } catch (const wire::WireError &err) {
        refuseStateFile(kind, path, err);
    }
}

void
refuseStateFile(StateKind kind, const std::string &path,
                const wire::WireError &err)
{
    pe_fatal(stateKindName(static_cast<uint32_t>(kind)), " '", path,
             "' refused (", wire::wireErrorKindName(err.kind()),
             "): ", err.what());
}

} // namespace pe::explore
