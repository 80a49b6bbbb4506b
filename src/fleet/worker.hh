/**
 * @file
 * Fleet worker: one shard's exploration loop, driven over a channel.
 *
 * A worker owns a full Explorer for its slice of the seed space.  It
 * never decides anything global: the coordinator tells it how many
 * runs to spend each round (RoundStart), hands it the merged frontier
 * delta and foreign corpus entries to import, and the worker answers
 * with its own delta (RoundDelta).  Everything else — work stealing,
 * plateaus, global budget — is the coordinator's problem, which keeps
 * the worker simple enough to be obviously deterministic: its only
 * inputs are the shard seed, its seed slice, and the byte-exact frame
 * sequence.
 *
 * Forked and dialing workers run the same loop and differ only in how
 * they get a channel: a forked child serves the socketpair it
 * inherited and exits when it closes; a dialing worker redials after
 * a drop.  Both derive the session identity and the shard plan from
 * their own options, open every channel with the protocol.hh attach
 * exchange (Join -> Hello -> HelloReply), and build their explorer
 * once, on the first attach.
 */

#ifndef PE_FLEET_WORKER_HH
#define PE_FLEET_WORKER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/explore/explorer.hh"
#include "src/fleet/protocol.hh"
#include "src/isa/program.hh"

namespace pe::fleet
{

/**
 * Worker-local run budget the coordinator's metering must beat: the
 * coordinator hands out runs round by round, so the worker's own
 * budget is set to a value it can never reach.
 */
constexpr uint64_t kUnboundedRuns = ~0ull / 2;

/**
 * Derive one shard's explorer options from the fleet's base options:
 * the shard seed replaces the master seed, budgets/checkpoints/output
 * streams stay with the coordinator, and the label gains a /shardN
 * suffix.  Every worker, forked or dialing, builds its options
 * through this one function — the code-level half of the determinism
 * contract (the Join's session identity is the wire-level half).
 */
explore::ExploreOptions
shardWorkerOptions(const explore::ExploreOptions &base,
                   uint64_t shardSeed, uint32_t shard,
                   unsigned workerThreads);

/** Everything a worker derives its shard from, plus its dial policy. */
struct RemoteWorkerOptions
{
    /** Coordinator address, `host:port` (dialing workers only). */
    std::string connect;

    /** Fleet width — must match the coordinator's --shards. */
    uint32_t shards = 0;

    /**
     * Fleet-level base options, exactly as the coordinator sees them
     * (seed = master seed).  The worker derives its own shard options
     * through shardWorkerOptions once the coordinator assigns it a
     * shard.
     */
    explore::ExploreOptions base;

    /** The FULL fleet seed list (the plan deals indices into it). */
    std::vector<std::vector<int32_t>> seeds;

    /** Campaign worker threads; 0 = PE_JOBS default. */
    unsigned workerThreads = 0;

    /** Consecutive dial failures before giving up (coordinator not
     *  up yet, or a dropped connection being re-established). */
    int dialAttempts = 40;

    /** Base delay between dial attempts, ms; consecutive failures
     *  back off exponentially (with seeded jitter) from here. */
    int redialDelayMs = 250;

    /** Ceiling the exponential redial backoff saturates at, ms. */
    int redialMaxMs = 5000;

    /** Human-readable status stream; may be null. */
    std::ostream *status = nullptr;
};

/** What a forked worker is spawned with besides its channel. */
struct WorkerConfig
{
    /** The shard slot whose socketpair the worker inherits. */
    uint32_t shard = 0;

    /** Exactly what a dialing worker is given (connect unused). */
    RemoteWorkerOptions options;
};

/**
 * The forked worker body: run the worker loop on the inherited
 * socketpair @p fd.  Returns the child's exit code (0 = clean
 * shutdown, or the coordinator closed the channel).
 */
int workerMain(int fd, const isa::Program &program,
               const WorkerConfig &config);

/**
 * Deterministic exponential redial backoff: attempt 0 waits ~baseMs,
 * each further consecutive failure doubles the wait until it
 * saturates at maxMs.  A seeded FNV jitter subtracts up to half the
 * raw wait — per (seedWord, attempt), so a fleet of workers sharing
 * one dead coordinator spreads its redials out instead of thundering
 * in lockstep, while any rerun of the same session reproduces the
 * same schedule byte for byte.  Pure function; always >= 1 ms.
 */
int dialBackoffMs(uint64_t seedWord, uint64_t attempt, int baseMs,
                  int maxMs);

/**
 * The dialing worker body: run the worker loop over TCP dials to
 * options.connect, joining as any free shard.  A dropped connection
 * is survivable as long as this process survives: the worker redials
 * with its pinned shard id and last acked round, and the coordinator
 * replays the RoundStart it missed; an already-executed round is
 * answered from the stored delta without re-executing, so reconnects
 * never perturb the deterministic merge.  Returns the process exit
 * code.
 */
int remoteWorkerMain(const isa::Program &program,
                     const RemoteWorkerOptions &options);

} // namespace pe::fleet

#endif // PE_FLEET_WORKER_HH
