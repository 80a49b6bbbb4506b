/**
 * @file
 * Fleet payload codec implementation.
 */

#include "src/fleet/protocol.hh"

#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::fleet
{

namespace
{

void
encodeSparse(wire::Encoder &enc, const SparseWords &w)
{
    pe_assert(w.index.size() == w.taken.size() &&
                  w.index.size() == w.nt.size(),
              "ragged sparse frontier");
    enc.u32vec(w.index);
    for (size_t i = 0; i < w.index.size(); ++i) {
        enc.u64(w.taken[i]);
        enc.u64(w.nt[i]);
    }
}

SparseWords
decodeSparse(wire::Decoder &dec)
{
    SparseWords w;
    w.index = dec.u32vec("sparse frontier indices");
    w.taken.reserve(w.index.size());
    w.nt.reserve(w.index.size());
    for (size_t i = 0; i < w.index.size(); ++i) {
        w.taken.push_back(dec.u64("sparse taken word"));
        w.nt.push_back(dec.u64("sparse nt word"));
    }
    return w;
}

} // namespace

void
encodeHello(wire::Encoder &enc, const Hello &h)
{
    enc.u32(h.shard);
}

Hello
decodeHello(wire::Decoder &dec)
{
    Hello h;
    h.shard = dec.u32("hello shard");
    return h;
}

void
encodeHelloReply(wire::Encoder &enc, const HelloReply &r)
{
    enc.u32(r.shard);
}

HelloReply
decodeHelloReply(wire::Decoder &dec)
{
    HelloReply r;
    r.shard = dec.u32("hello-reply shard");
    return r;
}

void
encodeRoundStart(wire::Encoder &enc, const RoundStart &r)
{
    enc.u64(r.round);
    enc.u64(r.budgetRuns);
    encodeSparse(enc, r.frontier);
    enc.u64vec(r.pathWords);
    explore::encodeEntries(enc, r.entries);
}

RoundStart
decodeRoundStart(wire::Decoder &dec, const isa::Program &program)
{
    RoundStart r;
    r.round = dec.u64("round-start round");
    r.budgetRuns = dec.u64("round-start budget");
    r.frontier = decodeSparse(dec);
    r.pathWords = dec.u64vec("round-start path words");
    r.entries = explore::decodeEntries(dec, program);
    return r;
}

void
encodeRoundDelta(wire::Encoder &enc, const RoundDelta &r)
{
    enc.u64(r.round);
    enc.u64(r.runs);
    enc.u64(r.failedJobs);
    enc.u64(r.instructions);
    enc.u64(r.ntSpawned);
    enc.u64(r.admittedLocal);
    enc.u8(r.exhausted ? 1 : 0);
    encodeSparse(enc, r.frontier);
    enc.u64vec(r.pathWords);
    explore::encodeEntries(enc, r.entries);
}

RoundDelta
decodeRoundDelta(wire::Decoder &dec, const isa::Program &program)
{
    RoundDelta r;
    r.round = dec.u64("round-delta round");
    r.runs = dec.u64("round-delta runs");
    r.failedJobs = dec.u64("round-delta failed jobs");
    r.instructions = dec.u64("round-delta instructions");
    r.ntSpawned = dec.u64("round-delta nt spawned");
    r.admittedLocal = dec.u64("round-delta admitted");
    r.exhausted = dec.u8("round-delta exhausted") != 0;
    r.frontier = decodeSparse(dec);
    r.pathWords = dec.u64vec("round-delta path words");
    r.entries = explore::decodeEntries(dec, program);
    return r;
}

void
encodeGoodbye(wire::Encoder &enc, const Goodbye &g)
{
    enc.u64(g.runs);
    enc.u64(g.batches);
    enc.u64(g.corpusSize);
    enc.u64(g.edgesCombined);
}

Goodbye
decodeGoodbye(wire::Decoder &dec)
{
    Goodbye g;
    g.runs = dec.u64("goodbye runs");
    g.batches = dec.u64("goodbye batches");
    g.corpusSize = dec.u64("goodbye corpus");
    g.edgesCombined = dec.u64("goodbye edges");
    return g;
}

void
encodeJoin(wire::Encoder &enc, const Join &j)
{
    enc.u32(j.wireVersion);
    enc.u32(j.desiredShard);
    enc.u64(j.lastAckedRound);
    explore::encodeIdentity(enc, j.id);
}

Join
decodeJoin(wire::Decoder &dec)
{
    Join j;
    j.wireVersion = dec.u32("join wire version");
    if (j.wireVersion != wire::kWireVersion)
        return j;
    j.desiredShard = dec.u32("join desired shard");
    j.lastAckedRound = dec.u64("join last acked round");
    j.id = explore::decodeIdentity(dec);
    return j;
}

void
validateJoin(const Join &got, const Join &want)
{
    if (got.wireVersion != want.wireVersion) {
        throw wire::WireError(
            wire::WireErrorKind::BadVersion,
            detail::concat("wire version mismatch: expected ",
                           want.wireVersion, ", found ",
                           got.wireVersion),
            want.wireVersion, got.wireVersion);
    }
    explore::checkIdentity(want.id, got.id);
}

Join
readJoin(int fd, const FleetIdentity &id)
{
    auto frame = wire::readFrameTimeout(fd, kAttachTimeoutMs);
    if (!frame || frame->type != wire::FrameType::Join) {
        throw wire::WireError(
            wire::WireErrorKind::BadFrame,
            detail::concat("expected join frame, got ",
                           frame ? wire::frameTypeName(frame->type)
                                 : "eof"));
    }
    wire::Decoder dec(frame->payload);
    Join got = decodeJoin(dec);
    Join want;
    want.id = id;
    validateJoin(got, want);
    dec.expectEnd("join");
    return got;
}

void
sendErrorBestEffort(int fd, const std::string &message)
{
    try {
        wire::Encoder enc;
        enc.str(message);
        wire::writeFrame(fd, wire::FrameType::Error, enc.buffer());
    } catch (const wire::WireError &) {
        // The peer is already gone; nothing to tell it.
    }
}

SparseWords
diffFrontier(const coverage::BranchCoverage &cov,
             std::vector<uint64_t> &prevTaken,
             std::vector<uint64_t> &prevNt)
{
    const auto &taken = cov.takenWords();
    const auto &nt = cov.ntWords();
    pe_assert(prevTaken.size() == taken.size() &&
                  prevNt.size() == nt.size(),
              "frontier snapshot sized for a different program");
    SparseWords delta;
    for (size_t i = 0; i < taken.size(); ++i) {
        if (taken[i] != prevTaken[i] || nt[i] != prevNt[i]) {
            delta.index.push_back(static_cast<uint32_t>(i));
            delta.taken.push_back(taken[i]);
            delta.nt.push_back(nt[i]);
            prevTaken[i] = taken[i];
            prevNt[i] = nt[i];
        }
    }
    return delta;
}

void
applyFrontier(const SparseWords &delta, std::vector<uint64_t> &taken,
              std::vector<uint64_t> &nt)
{
    for (size_t i = 0; i < delta.index.size(); ++i) {
        size_t w = delta.index[i];
        if (w >= taken.size() || w >= nt.size()) {
            throw wire::WireError(
                wire::WireErrorKind::Mismatch,
                detail::concat("sparse frontier word index ", w,
                               " beyond this program's ",
                               taken.size(), "-word bitmap"),
                taken.size(), w);
        }
        taken[w] |= delta.taken[i];
        nt[w] |= delta.nt[i];
    }
}

} // namespace pe::fleet
