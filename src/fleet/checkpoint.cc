/**
 * @file
 * Fleet checkpoint layout (see checkpoint.hh for the why).
 */

#include "src/fleet/checkpoint.hh"

#include "src/support/status.hh"

namespace pe::fleet
{

void
saveFleetCheckpoint(const std::string &path, const FleetCheckpoint &ckpt)
{
    explore::writeStateFile(
        path, explore::StateKind::Fleet, "fleet.checkpoint_write",
        [&](wire::Encoder &enc) {
            explore::encodeIdentity(enc, ckpt.id);
            enc.u64(ckpt.rounds);
            enc.u64(ckpt.runs);
            enc.u64(ckpt.instructions);
            enc.u64(ckpt.ntSpawned);
            enc.u64(ckpt.failedJobs);
            enc.u64(ckpt.stolenRuns);
            enc.u32(ckpt.lostWorkers);
            enc.u32(ckpt.reconnects);
            enc.u32(ckpt.globalDryRounds);
            explore::encodeCorpusState(enc, ckpt.corpus);
            enc.u32vec(ckpt.origins);

            enc.u32(static_cast<uint32_t>(ckpt.shardStates.size()));
            for (const ShardCheckpoint &s : ckpt.shardStates) {
                enc.u32(s.summary.shard);
                enc.u64(s.summary.runs);
                enc.u64(s.summary.assigned);
                enc.u64(s.summary.admittedGlobal);
                enc.u64(s.summary.newEdges);
                enc.u32(s.summary.dryRounds);
                enc.u8(s.summary.alive ? 1 : 0);
                enc.u8(s.summary.exhausted ? 1 : 0);
                enc.u64vec(s.sentTaken);
                enc.u64vec(s.sentNt);
                enc.u64(s.entryMark);
                enc.u8(s.gotForeign ? 1 : 0);
                enc.u64(s.replayRound);
                enc.str(s.replayPayload);
            }
        });
}

FleetCheckpoint
loadFleetCheckpoint(const std::string &path, const isa::Program &program)
{
    FleetCheckpoint ckpt;
    explore::readStateFile(
        path, explore::StateKind::Fleet, [&](wire::Decoder &dec) {
            ckpt.id = explore::decodeIdentity(dec);
            ckpt.rounds = dec.u64("rounds");
            ckpt.runs = dec.u64("runs");
            ckpt.instructions = dec.u64("instructions");
            ckpt.ntSpawned = dec.u64("nt spawned");
            ckpt.failedJobs = dec.u64("failed jobs");
            ckpt.stolenRuns = dec.u64("stolen runs");
            ckpt.lostWorkers = dec.u32("lost workers");
            ckpt.reconnects = dec.u32("reconnects");
            ckpt.globalDryRounds = dec.u32("global dry rounds");
            ckpt.corpus = explore::decodeCorpusState(dec, program);
            const size_t entries = ckpt.corpus.entries.size();
            const size_t words = ckpt.corpus.frontierTaken.size();
            ckpt.origins = dec.u32vec("entry origins");
            explore::checkSize("entry origins", entries,
                               ckpt.origins.size());

            uint32_t n = dec.count("shard states");
            explore::checkSize("shard states", ckpt.id.shards, n);
            for (uint32_t i = 0; i < n; ++i) {
                ShardCheckpoint &s = ckpt.shardStates.emplace_back();
                s.summary.shard = dec.u32("shard id");
                s.summary.runs = dec.u64("shard runs");
                s.summary.assigned = dec.u64("shard assigned");
                s.summary.admittedGlobal = dec.u64("shard admitted");
                s.summary.newEdges = dec.u64("shard new edges");
                s.summary.dryRounds = dec.u32("shard dry rounds");
                s.summary.alive = dec.u8("shard alive") != 0;
                s.summary.exhausted = dec.u8("shard exhausted") != 0;
                s.sentTaken = dec.u64vec("shard sent taken words");
                explore::checkSize("shard sent taken words", words,
                                   s.sentTaken.size());
                s.sentNt = dec.u64vec("shard sent nt words");
                explore::checkSize("shard sent nt words", words,
                                   s.sentNt.size());
                s.entryMark = dec.u64("shard entry mark");
                if (s.entryMark > entries)
                    throw wire::WireError(
                        wire::WireErrorKind::Mismatch,
                        detail::concat("shard entry mark past the "
                                       "corpus: expected at most ",
                                       entries, ", found ",
                                       s.entryMark),
                        entries, s.entryMark);
                s.gotForeign = dec.u8("shard got foreign") != 0;
                s.replayRound = dec.u64("shard replay round");
                s.replayPayload = dec.str("shard replay payload");
            }
            dec.expectEnd("fleet checkpoint");
        });
    return ckpt;
}

} // namespace pe::fleet
