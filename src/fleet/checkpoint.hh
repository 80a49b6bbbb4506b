/**
 * @file
 * Durable fleet sessions: the coordinator's checkpoint.
 *
 * The fleet's bit-reproducibility contract says the merged frontier
 * and corpus after round R are pure functions of the shard plan and
 * the round count.  That makes the coordinator checkpointable with
 * the same guarantee the single-process explorer has: persist
 * everything round R's future depends on — the merged corpus section,
 * the aggregate counters, and each shard's broadcast bookkeeping — and
 * a restarted coordinator continues byte-identically while the TCP
 * workers redial through the ordinary reconnect path.
 *
 * Two shard-side fields deserve their exact-bytes treatment:
 *
 *  - `sentTaken`/`sentNt`/`entryMark` are the per-shard broadcast
 *    cursors.  sendRoundStart *consumes* them (diffFrontier advances
 *    the snapshot, entryMark moves past the entries shipped), so the
 *    next round's RoundStart payload is a function of these cursors
 *    plus the merged state.  Restoring them post-merge of round R
 *    makes the resumed coordinator's round-R+1 payload byte-equal to
 *    what the dead coordinator would have sent — which is what lets
 *    a worker that already executed R+1 answer from its stored delta
 *    instead of re-executing (re-running would draw the round's RNG
 *    twice and fork the universe).
 *
 *  - `replayPayload` is round R's RoundStart, exact encoded bytes.
 *    It cannot be re-encoded on resume: payload generation advances
 *    the cursors above, so a second encoding would diff against the
 *    *post*-R snapshot and produce different (wrong) bytes.
 *
 * The file is a serialize.hh state file of kind Fleet, on the same
 * writer, reader and corpus section as the explorer's checkpoint:
 *
 *     header | identity | fleet counters | corpus section |
 *     entry origins | shard states
 *
 * The loader checks every size against the program and the identity's
 * plan — frontier words, exercise counts, entry bitmaps, one origin
 * per entry, one state per shard, cursor widths, entry marks — before
 * anything is restored, and refuses a wrong one with a FatalError
 * naming the field.  The writer hits the `fleet.checkpoint_write`
 * fault site first, so chaos tests can pin the temp + rename
 * guarantee.
 */

#ifndef PE_FLEET_CHECKPOINT_HH
#define PE_FLEET_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/explore/serialize.hh"
#include "src/fleet/coordinator.hh"
#include "src/isa/program.hh"

namespace pe::fleet
{

/** Everything a restarted coordinator needs to continue a session. */
struct FleetCheckpoint
{
    /** A resume refuses a checkpoint of another session. */
    FleetIdentity id;

    /** Aggregate counters (FleetResult so far). */
    uint64_t rounds = 0;
    uint64_t runs = 0;
    uint64_t instructions = 0;
    uint64_t ntSpawned = 0;
    uint64_t failedJobs = 0;
    uint64_t stolenRuns = 0;
    uint32_t lostWorkers = 0;
    uint32_t reconnects = 0;
    uint32_t globalDryRounds = 0;

    /** Merged corpus, frontier, exercise counts and path tracker. */
    explore::CorpusState corpus;

    /** Origin shard per entry (echo-free rebroadcast needs it). */
    std::vector<uint32_t> origins;

    std::vector<ShardCheckpoint> shardStates;
};

/**
 * Atomically persist @p ckpt to @p path (temp + rename).  Throws
 * FatalError on any write failure — the coordinator downgrades that
 * to a warning, because a failed checkpoint must cost durability,
 * never the session.
 */
void saveFleetCheckpoint(const std::string &path,
                         const FleetCheckpoint &ckpt);

/**
 * Load a checkpoint written by saveFleetCheckpoint, decoded and
 * size-checked against @p program's edge universe (see file comment);
 * throws FatalError naming what is wrong.  The identity is returned,
 * not judged — the resuming coordinator compares it with its own.
 */
FleetCheckpoint loadFleetCheckpoint(const std::string &path,
                                    const isa::Program &program);

} // namespace pe::fleet

#endif // PE_FLEET_CHECKPOINT_HH
