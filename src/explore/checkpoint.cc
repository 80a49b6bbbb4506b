/**
 * @file
 * Explorer checkpoint/resume.
 *
 * A checkpoint is everything the exploration loop's future depends
 * on, snapshotted at a batch boundary: the progress counters, the
 * three forked RNG stream positions, the corpus section (frontier,
 * exercise counts, entries, prime-path tracker) and the per-batch
 * history.  Restoring it and continuing is bit-identical to never
 * having stopped, because the loop's only other inputs — program,
 * config, seed, seed inputs, policy, batch size and rarity percentile
 * — are the session identity, which resume checks field by field.
 *
 * The file is a serialize.hh state file of kind Explorer:
 *
 *     header | identity | batches runs instructions ntSpawned
 *     failedJobs dryBatches | mutator/scheduler/donor RNG states |
 *     corpus section | batch history
 *
 * written temp-then-atomic-rename, so a kill -9 at any moment leaves
 * either the previous checkpoint or the new one.  Every refusal — a
 * foreign session, a wrong size, torn or garbage bytes — is a
 * FatalError naming the field with the expected and found values.
 */

#include <cstdint>

#include "src/explore/explorer.hh"
#include "src/explore/serialize.hh"
#include "src/support/status.hh"

namespace pe::explore
{

void
Explorer::writeCheckpoint(const ExploreResult &res) const
{
    writeStateFile(
        opts.checkpointPath, StateKind::Explorer,
        "explore.checkpoint_write", [&](wire::Encoder &enc) {
            encodeIdentity(enc, sessionIdentity(program, opts, seeds));
            enc.u64(res.batches);
            enc.u64(res.runs);
            enc.u64(res.instructions);
            enc.u64(res.ntSpawned);
            enc.u64(res.failedJobs);
            enc.u32(dryBatches);
            enc.u64(mut.rngState());
            enc.u64(sched.rngState());
            enc.u64(donorRng.rawState());
            encodeCorpusState(enc, CorpusState::of(corp, paths.get()));
            enc.u32(static_cast<uint32_t>(res.history.size()));
            for (const ExploreBatchStats &s : res.history)
                encodeBatchStats(enc, s);
        });
}

void
Explorer::resume(ExploreResult &res)
{
    readStateFile(
        opts.resumeFrom, StateKind::Explorer, [&](wire::Decoder &dec) {
            checkIdentity(sessionIdentity(program, opts, seeds),
                          decodeIdentity(dec));
            ExploreResult loaded;
            loaded.batches = dec.u64("batches");
            loaded.runs = dec.u64("runs");
            loaded.instructions = dec.u64("instructions");
            loaded.ntSpawned = dec.u64("ntSpawned");
            loaded.failedJobs = dec.u64("failedJobs");
            const uint32_t dry = dec.u32("dryBatches");
            const uint64_t mutRng = dec.u64("mutator rng");
            const uint64_t schedRng = dec.u64("scheduler rng");
            const uint64_t donor = dec.u64("donor rng");
            CorpusState state = decodeCorpusState(dec, program);
            uint32_t nStats = dec.count("history");
            for (uint32_t i = 0; i < nStats; ++i)
                loaded.history.push_back(decodeBatchStats(dec));
            dec.expectEnd("explorer checkpoint");

            // Every field is decoded and every size checked; only the
            // path tracker's word count is judged by the restore.
            std::move(state).restoreInto(corp, paths.get());
            res = std::move(loaded);
            dryBatches = dry;
            mut.setRngState(mutRng);
            sched.setRngState(schedRng);
            donorRng.setRawState(donor);
        });

    // priorEnergy and pathEnergy are pure functions of (program,
    // config, tracker bits, entry coverage), so they are recomputed
    // here rather than serialized and cannot drift from what a fresh
    // session would compute.
    if (opts.useStaticPriors) {
        for (CorpusEntry &e : corp.entries())
            e.priorEnergy = entryPriorEnergy(e);
    }
    if (opts.pathObjective)
        refreshPathEnergies();

    inform("resumed from '", opts.resumeFrom, "': ", res.batches,
           " batches, ", res.runs, " runs, ",
           corp.frontier().combinedCovered(), " edges, corpus ",
           corp.size());
}

} // namespace pe::explore
