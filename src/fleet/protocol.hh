/**
 * @file
 * Fleet IPC payloads: what actually crosses a coordinator–worker
 * channel, and in which direction.
 *
 * Every (re)attach of every worker, forked or dialing, runs one
 * exchange: the worker opens with Join (wire version, the session
 * identity it derived from its own options, desired shard, last acked
 * round); the coordinator validates it (readJoin / validateJoin) and
 * answers Hello — the assigned shard, no identity — or an Error
 * frame; the worker builds its explorer on the first attach and
 * answers HelloReply, the ready signal the coordinator waits for
 * before it dispatches to that shard.
 *
 * After that each round is one RoundStart (budget + merged-frontier
 * delta + newly admitted foreign corpus entries) answered by one
 * RoundDelta (runs executed + local frontier delta + locally admitted
 * entries).  Frontier deltas are sparse (wordIndex, takenWord,
 * ntWord) triples over the dense coverage bitmaps:
 * `BranchCoverage::mergeFrom` is a word-wise OR, so shipping only the
 * words that changed since the last exchange is lossless and keeps
 * steady-state frames tiny.
 */

#ifndef PE_FLEET_PROTOCOL_HH
#define PE_FLEET_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/explore/corpus.hh"
#include "src/explore/serialize.hh"
#include "src/fleet/wire.hh"
#include "src/isa/program.hh"

namespace pe::fleet
{

/**
 * What every peer and every checkpoint of a fleet must agree on: the
 * explorer's session identity plus the fleet width and plan digest.
 */
using FleetIdentity = explore::SessionIdentity;
using explore::seedsDigest;
using explore::sessionWord;

/** Join::desiredShard wildcard: "assign me any free shard". */
constexpr uint32_t kAnyShard = 0xffffffffu;

/**
 * Bound on each wait of the attach exchange: for a fresh channel's
 * Join, and for the ready HelloReply after the coordinator's Hello.
 */
constexpr int kAttachTimeoutMs = 10000;

/**
 * Worker -> coordinator, the first frame on every channel.  A forked
 * worker pins desiredShard to the slot whose socketpair it inherited;
 * a dialing worker sends kAnyShard until it holds a shard, then that
 * shard, with lastAckedRound naming the last round it sent a delta for
 * so the coordinator can replay the RoundStart it missed.
 */
struct Join
{
    uint32_t wireVersion = wire::kWireVersion;
    uint32_t desiredShard = kAnyShard;
    uint64_t lastAckedRound = 0;
    FleetIdentity id;
};

/** Coordinator -> worker: the Join was accepted. */
struct Hello
{
    uint32_t shard = 0;         //!< the shard this channel serves
};

/** Worker -> coordinator: the shard's explorer is built; dispatch. */
struct HelloReply
{
    uint32_t shard = 0;
};

/**
 * Sparse frontier delta: for each listed word index, the sender's
 * full taken/NT bitmap words.  The receiver ORs them in; resending a
 * word is harmless, omitting an unchanged word is free.
 */
struct SparseWords
{
    std::vector<uint32_t> index;
    std::vector<uint64_t> taken;
    std::vector<uint64_t> nt;

    bool empty() const { return index.empty(); }
    size_t size() const { return index.size(); }
};

/** Coordinator -> worker, one per round. */
struct RoundStart
{
    uint64_t round = 0;
    uint64_t budgetRuns = 0;    //!< runs this shard may execute now
    SparseWords frontier;       //!< global frontier growth

    /**
     * Merged prime-path completion words; empty when the tracker is
     * off.  Shipped dense — the capped path-id space is at most 64
     * words — so no per-word diffing is needed.
     */
    std::vector<uint64_t> pathWords;

    std::vector<explore::CorpusEntry> entries;  //!< foreign admits
};

/** Worker -> coordinator, answering one RoundStart. */
struct RoundDelta
{
    uint64_t round = 0;
    uint64_t runs = 0;          //!< executed this round
    uint64_t failedJobs = 0;
    uint64_t instructions = 0;
    uint64_t ntSpawned = 0;
    uint64_t admittedLocal = 0;
    bool exhausted = false;     //!< cannot make further progress
    SparseWords frontier;       //!< local frontier growth

    /** Local prime-path completion words (empty when off). */
    std::vector<uint64_t> pathWords;

    std::vector<explore::CorpusEntry> entries;  //!< local admits
};

/** Worker -> coordinator on Stop: final summary for the logs. */
struct Goodbye
{
    uint64_t runs = 0;
    uint64_t batches = 0;
    uint64_t corpusSize = 0;
    uint64_t edgesCombined = 0;
};

void encodeHello(wire::Encoder &enc, const Hello &h);
Hello decodeHello(wire::Decoder &dec);

void encodeHelloReply(wire::Encoder &enc, const HelloReply &r);
HelloReply decodeHelloReply(wire::Decoder &dec);

void encodeRoundStart(wire::Encoder &enc, const RoundStart &r);
RoundStart decodeRoundStart(wire::Decoder &dec,
                            const isa::Program &program);

void encodeRoundDelta(wire::Encoder &enc, const RoundDelta &r);
RoundDelta decodeRoundDelta(wire::Decoder &dec,
                            const isa::Program &program);

void encodeGoodbye(wire::Encoder &enc, const Goodbye &g);
Goodbye decodeGoodbye(wire::Decoder &dec);

void encodeJoin(wire::Encoder &enc, const Join &j);

/**
 * Decode a Join.  A frame of another wire version stops after the
 * version word (its layout may differ), so validateJoin refuses it by
 * version rather than by a confusing decode error.
 */
Join decodeJoin(wire::Decoder &dec);

/**
 * Compare a peer's Join against this fleet's (desiredShard and
 * lastAckedRound are negotiation, not identity, and are judged by the
 * transport and coordinator instead).  Throws wire::WireError —
 * BadVersion, or Mismatch from explore::checkIdentity — naming the
 * disagreeing field with expected and found values.
 */
void validateJoin(const Join &got, const Join &want);

/**
 * The coordinator's first leg of the attach exchange, for every
 * transport: read the Join a fresh channel must open with (bounded by
 * kAttachTimeoutMs), decode it and validate it against @p id.  Throws
 * wire::WireError; the caller refuses the peer.
 */
Join readJoin(int fd, const FleetIdentity &id);

/** Send an Error frame if the peer is still there; never throws. */
void sendErrorBestEffort(int fd, const std::string &message);

/**
 * Words of @p cov (taken or NT) that differ from the @p prevTaken /
 * @p prevNt snapshot.  The snapshot vectors are updated to match
 * @p cov so the next diff starts from here.
 */
SparseWords diffFrontier(const coverage::BranchCoverage &cov,
                         std::vector<uint64_t> &prevTaken,
                         std::vector<uint64_t> &prevNt);

/**
 * OR a sparse delta into full-size word vectors (the receiving
 * side's staging buffers for Corpus::mergeFrontierWords).  Indices
 * beyond the vectors are a protocol violation (WireError{Mismatch}).
 */
void applyFrontier(const SparseWords &delta,
                   std::vector<uint64_t> &taken,
                   std::vector<uint64_t> &nt);

} // namespace pe::fleet

#endif // PE_FLEET_PROTOCOL_HH
