/**
 * @file
 * Explorer-state serialization: the one vocabulary of explorer
 * checkpoints, fleet checkpoints and fleet IPC frames.
 *
 * Three layers, each defined once on wire::Encoder / wire::Decoder:
 *
 *  - **Nouns**: corpus entries with their coverage bitmaps, batch
 *    stats, the program fingerprint and the scheduling-policy word —
 *    shared by checkpoints and the fleet's RoundStart / RoundDelta
 *    payloads, so a worker's view of an entry is bit-identical to what
 *    a checkpoint of that worker would hold.
 *
 *  - **The session identity** (SessionIdentity): everything two
 *    processes, or a process and a checkpoint, must agree on before
 *    one may continue the other's work.  One record, one encoding and
 *    one comparison serve a fleet worker's Join, `--fleet-resume` and
 *    the explorer's `--resume`.
 *
 *  - **State files**: one header (magic, version, kind), one temp +
 *    atomic-rename writer, one whole-file reader that turns every
 *    WireError into a FatalError naming the file, and one corpus
 *    section (CorpusState: frontier, exercise counts, entries, path
 *    tracker).  An explorer checkpoint is identity + loop counters +
 *    RNG streams + corpus section + batch history; a fleet checkpoint
 *    (src/fleet/checkpoint.hh) is identity + fleet counters + corpus
 *    section + entry origins + shard cursors.  The layouts are fixed:
 *    no reader skips a section, so there are no section tags.
 */

#ifndef PE_EXPLORE_SERIALIZE_HH
#define PE_EXPLORE_SERIALIZE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/explore/corpus.hh"
#include "src/fleet/wire.hh"
#include "src/isa/program.hh"

namespace pe::coverage
{
class PathCoverage;
}

namespace pe::explore
{

struct ExploreBatchStats;
struct ExploreOptions;

/**
 * Identity of the program image this session explores: FNV-1a over
 * the workload name, the code size and every encoded instruction.
 * Data/locs changes that leave the code identical are deliberately
 * ignored — they cannot change control flow or the edge universe.
 */
uint64_t programFingerprint(const isa::Program &program);

/**
 * The scheduling contract: the SchedulePolicy enum in the low byte,
 * bit 8 for useStaticPriors, bit 9 for pathObjective.  Prior seeding
 * and the path objective change every energy, so a checkpoint taken
 * under one setting must not silently continue another.
 */
uint32_t policyWord(const ExploreOptions &opts);

/**
 * Everything about the exploration contract that configHash does
 * *not* cover but that changes the loop's behavior: the policy word,
 * the batch size and the rarity percentile's bit pattern.
 */
uint64_t sessionWord(const ExploreOptions &opts);

/**
 * FNV-1a over a session's seed inputs (count, lengths, values): the
 * mutator alphabet and the fleet's shard plan both read them, so two
 * sessions with different seed bytes are different sessions.
 */
uint64_t seedsDigest(const std::vector<std::vector<int32_t>> &seeds);

/**
 * Order-sensitive FNV-1a digest over a coverage tracker's taken + NT
 * words — the fleet's bit-reproducibility witness.  Two runs with the
 * same shard plan must produce the same digest; CI gates on it.
 */
uint64_t coverageDigest(const coverage::BranchCoverage &cov);

/** Who a session is (see file comment). */
struct SessionIdentity
{
    uint64_t configHash = 0;    //!< core::configHash of every run
    uint64_t masterSeed = 0;
    uint64_t programFp = 0;     //!< programFingerprint
    uint64_t sessionWord = 0;   //!< sessionWord of the options
    uint64_t seedsDigest = 0;   //!< seedsDigest of the seed inputs
    uint32_t shards = 0;        //!< fleet width; 0 = one explorer
    uint64_t planDigest = 0;    //!< fleet ShardPlan digest; 0 = none
};

/** The identity of an explorer over @p seeds with @p opts. */
SessionIdentity sessionIdentity(
    const isa::Program &program, const ExploreOptions &opts,
    const std::vector<std::vector<int32_t>> &seeds);

void encodeIdentity(wire::Encoder &enc, const SessionIdentity &id);
SessionIdentity decodeIdentity(wire::Decoder &dec);

/**
 * Compare @p found against @p expected.  Throws WireError{Mismatch}
 * naming the first disagreeing field, with both values in the message
 * and in expected()/found().
 */
void checkIdentity(const SessionIdentity &expected,
                   const SessionIdentity &found);

/**
 * Throw WireError{Mismatch} naming @p field, with both sizes, unless
 * a decoded size is the @p expected one.
 */
void checkSize(const char *field, size_t expected, size_t found);

/** Everything a CorpusEntry carries, input and signals included. */
void encodeEntry(wire::Encoder &enc, const CorpusEntry &entry);

/**
 * Decode one entry against @p program's edge universe.  priorEnergy
 * is *not* on the wire: it is a pure function of (program, config,
 * coverage) and is recomputed by whoever admits the entry.
 */
CorpusEntry decodeEntry(wire::Decoder &dec,
                        const isa::Program &program);

/** A u32 count, then every entry. */
void encodeEntries(wire::Encoder &enc,
                   const std::vector<CorpusEntry> &entries);
std::vector<CorpusEntry> decodeEntries(wire::Decoder &dec,
                                       const isa::Program &program);

void encodeBatchStats(wire::Encoder &enc,
                      const ExploreBatchStats &stats);
ExploreBatchStats decodeBatchStats(wire::Decoder &dec);

/** The corpus section of every checkpoint. */
struct CorpusState
{
    std::vector<uint64_t> frontierTaken;
    std::vector<uint64_t> frontierNt;
    std::vector<uint32_t> exerciseCounts;
    uint64_t exerciseRuns = 0;
    std::vector<CorpusEntry> entries;
    /** PathCoverage::encodeState bytes; empty = tracker off. */
    std::string pathState;

    /** Snapshot @p corpus and @p paths (null when the tracker is off). */
    static CorpusState of(const Corpus &corpus,
                          const coverage::PathCoverage *paths);

    /**
     * Move this state into @p corpus and @p paths.  The path state
     * goes first and is the one part that can still be refused
     * (WireError{Mismatch}: tracker presence or word count); nothing
     * is overwritten before it is accepted.
     */
    void restoreInto(Corpus &corpus, coverage::PathCoverage *paths) &&;
};

void encodeCorpusState(wire::Encoder &enc, const CorpusState &state);

/**
 * Decode a corpus section and check every size against @p program
 * (frontier words, exercise counts, entry bitmaps) before returning
 * it; a wrong size throws WireError{Mismatch} naming the field with
 * the expected and found sizes.
 */
CorpusState decodeCorpusState(wire::Decoder &dec,
                              const isa::Program &program);

/** What a state file holds (the header's kind word). */
enum class StateKind : uint32_t
{
    Explorer = 1,
    Fleet = 2,
};

/**
 * Persist @p body's bytes under the state-file header to @p path:
 * temp file, then one atomic rename, so a crash at any moment leaves
 * either the previous file or the new one.  Hits fault site
 * @p faultSite first; throws FatalError on any write failure.
 */
void writeStateFile(const std::string &path, StateKind kind,
                    const char *faultSite,
                    const std::function<void(wire::Encoder &)> &body);

/**
 * Read @p path whole, check its magic, version and kind, and hand the
 * rest to @p body, which must end with Decoder::expectEnd.  A missing
 * file, and every WireError the header or @p body throws, becomes a
 * FatalError (refuseStateFile).
 */
void readStateFile(const std::string &path, StateKind kind,
                   const std::function<void(wire::Decoder &)> &body);

/** Throw the FatalError that refuses state file @p path over @p err. */
[[noreturn]] void refuseStateFile(StateKind kind,
                                  const std::string &path,
                                  const wire::WireError &err);

} // namespace pe::explore

#endif // PE_EXPLORE_SERIALIZE_HH
