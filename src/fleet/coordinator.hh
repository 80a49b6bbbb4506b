/**
 * @file
 * Fleet coordinator: N worker shards, one merged frontier.
 *
 * The coordinator scales the exploration loop horizontally without
 * giving up the repo's core invariant — bit-reproducibility.  The
 * shard plan (per-shard seeds derived from configHash + master seed,
 * seed inputs dealt round-robin) is a pure function of the options;
 * rounds are lockstep (every worker gets a RoundStart, every reply
 * is merged in shard-id order); and the frontier merge is a word-OR,
 * so the merged frontier and the globally-admitted corpus after
 * round R depend only on the plan, never on host scheduling.  Two
 * fleets with the same plan produce byte-identical frontier and
 * corpus digests, which is what the fleet-smoke CI job asserts.
 *
 * Work stealing re-partitions the per-round run budget: a shard that
 * stopped contributing new global edges (two dry rounds) is wound
 * down to a floor share — unless the fleet just handed it foreign
 * entries it has not chewed through yet, in which case it *steals* a
 * double share from the steady shards to work the fresh material.
 * Both triggers are integer arithmetic over merged round stats, so
 * the re-partitioning is as deterministic as everything else.
 *
 * Worker loss is survivable: a shard whose pipe breaks is marked
 * dead, its already-merged contributions stay, and its budget share
 * flows to the survivors from the next round on.
 *
 * Collection is a poll(2) reactor, not a blocking sweep: every
 * worker fd is non-blocking, frames reassemble into per-shard
 * FrameReaders as bytes arrive, and a slow shard never blocks the
 * coordinator from *reading* the others (no head-of-line blocking).
 * Merging still happens in shard-id order once every pending shard
 * has resolved — delta arrived, or shard died — because the merge
 * order, not the arrival order, is what keeps the digests pure
 * functions of the plan.  The per-round deadline is the fleet's one
 * liveness rule: it converts a stalled shard into a dead one so its
 * budget flows on.
 *
 * Channels come from a pluggable Transport (fork/socketpair or TCP;
 * see transport.hh).  On a transport with reconnect support, a
 * broken channel first *detaches* the shard: the coordinator keeps a
 * one-round replay buffer (the exact RoundStart bytes last sent), and
 * a worker redialing with its shard id + last acked round gets the
 * missed frame resent.  Only the deadline turns a detached shard
 * into a dead one.
 */

#ifndef PE_FLEET_COORDINATOR_HH
#define PE_FLEET_COORDINATOR_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/explore/explorer.hh"
#include "src/fleet/protocol.hh"

namespace pe::fleet
{

class Transport;

struct FleetOptions
{
    /**
     * Shared exploration options.  budget.maxRuns is the *global*
     * run budget across all shards; seed is the fleet master seed;
     * jsonl receives the coordinator's own round stream.  Worker
     * copies get derived seeds and neutralized budgets/checkpoints.
     */
    explore::ExploreOptions base;

    /** Worker process count (>= 1). */
    unsigned shards = 2;

    /**
     * Total runs handed out per round across the fleet; 0 derives
     * shards * base.batchSize (one classic batch per shard).
     */
    uint64_t roundRuns = 0;

    /**
     * Global stop: rounds in a row with zero new merged edges.
     * 0 disables (the run budget is then the only bound).
     */
    uint32_t plateauRounds = 0;

    /** Campaign worker threads per shard; 0 = PE_JOBS default. */
    unsigned workerThreads = 0;

    /** Human-readable status stream (CLI: stderr); may be null. */
    std::ostream *status = nullptr;

    /** Checked between rounds; true stops the fleet cleanly. */
    const std::atomic<bool> *stopFlag = nullptr;

    /**
     * Channel factory; null = fork/socketpair workers on this host.
     * Supply a TcpTransport to run the fleet across machines.
     */
    std::shared_ptr<Transport> transport;

    /**
     * Per-round collection deadline, ms: a shard whose delta has not
     * arrived (and which has not reconnected) by the deadline is
     * marked dead and its budget flows to the survivors from the
     * next round.  0 waits forever (fork workers die loudly, so the
     * deadline mainly matters for TCP fleets).
     */
    int roundDeadlineMs = 0;

    /** Longest wait for each worker's Goodbye at shutdown, ms. */
    int goodbyeTimeoutMs = 2000;

    /** Grace before SIGKILL when reaping forked workers, ms. */
    int reapTimeoutMs = 5000;

    /**
     * Durable sessions: persist the full coordinator state here
     * after every round's merge (temp + atomic rename).  A failed
     * write is a warning (fleet_warning event), never a session
     * abort.  Empty = off.
     */
    std::string checkpointPath;

    /**
     * Resume a session from a checkpoint written by a previous
     * coordinator.  Requires a reconnectable transport (TCP): the
     * session's workers redial and continue, and the final digests
     * are byte-identical to an uninterrupted run.  Empty = off.
     */
    std::string resumeFrom;
};

/** One shard's slice of the deterministic plan. */
struct ShardSpec
{
    uint32_t shard = 0;
    uint64_t shardSeed = 0;
    std::vector<uint32_t> seedIndices;
};

/**
 * The partition of seed/energy space: pure function of (configHash,
 * masterSeed, shards, seedCount).  planDigest names it — it goes
 * into the session identity and the result record, and reruns with
 * equal digests are bit-comparable.
 */
struct ShardPlan
{
    uint32_t shards = 0;
    uint64_t planDigest = 0;
    std::vector<ShardSpec> specs;
};

ShardPlan makeShardPlan(uint64_t configHash, uint64_t masterSeed,
                        uint32_t shards, size_t seedCount);

/**
 * The identity every peer and checkpoint of the fleet running @p plan
 * over @p seeds with @p base must match.  The coordinator and every
 * worker derive it through this one function.
 */
FleetIdentity fleetIdentity(
    const isa::Program &program, const explore::ExploreOptions &base,
    const ShardPlan &plan, const std::vector<std::vector<int32_t>> &seeds);

/** Why the fleet stopped. */
enum class FleetStop : uint8_t
{
    RunBudget,      //!< global maxRuns spent
    Plateau,        //!< plateauRounds dry rounds (or all exhausted)
    Interrupted,    //!< stopFlag raised
    WorkersLost,    //!< every worker died
};

const char *fleetStopName(FleetStop stop);

struct ShardSummary
{
    uint32_t shard = 0;
    uint64_t runs = 0;          //!< runs this shard executed
    uint64_t assigned = 0;      //!< budget it was handed
    uint64_t admittedGlobal = 0; //!< its entries the fleet admitted
    uint64_t newEdges = 0;      //!< global edges it contributed
    uint32_t dryRounds = 0;     //!< current plateau streak
    bool alive = false;
    bool exhausted = false;
};

/**
 * The durable half of a shard's coordinator-side state — what a fleet
 * checkpoint stores per shard (fleet/checkpoint.hh says why the
 * cursors and the replay buffer are stored exactly).
 */
struct ShardCheckpoint
{
    ShardSummary summary;
    /** Global-frontier words last broadcast to this shard. */
    std::vector<uint64_t> sentTaken;
    std::vector<uint64_t> sentNt;
    /** Global corpus entries already broadcast. */
    uint64_t entryMark = 0;
    /** Broadcast delivered fresh foreign material last round. */
    bool gotForeign = false;
    /** One-round replay buffer: last RoundStart, exact bytes. */
    uint64_t replayRound = 0;
    std::string replayPayload;
};

struct FleetResult
{
    FleetStop stop = FleetStop::RunBudget;
    uint64_t rounds = 0;
    uint64_t runs = 0;
    uint64_t instructions = 0;
    uint64_t ntSpawned = 0;
    uint64_t failedJobs = 0;
    size_t corpusSize = 0;
    size_t edgesTaken = 0;
    size_t edgesCombined = 0;
    size_t totalEdges = 0;
    uint64_t planDigest = 0;

    /** Reproducibility witnesses (explore::coverageDigest et al.). */
    uint64_t frontierDigest = 0;
    uint64_t corpusDigest = 0;

    /** Prime-path tracker totals (0 when recordEdgeTrace is off). */
    uint64_t primePaths = 0;
    uint64_t pathCoverSize = 0;
    uint64_t pathsCompleted = 0;
    uint64_t pathCoverCompleted = 0;
    uint64_t pathDigest = 0;

    /** Runs re-partitioned away from fair shares by stealing. */
    uint64_t stolenRuns = 0;
    uint32_t lostWorkers = 0;
    /**
     * Successful worker re-attachments after a dropped channel or a
     * coordinator resume (initial seating does not count).
     */
    uint32_t reconnects = 0;
    std::vector<ShardSummary> shards;
};

/** Spawns the fleet, runs rounds to a bound, reaps the workers. */
class Coordinator
{
  public:
    Coordinator(const isa::Program &program,
                std::vector<std::vector<int32_t>> seeds,
                FleetOptions opts);

    /** Run the fleet to completion; call once. */
    FleetResult run();

    const ShardPlan &plan() const { return shardPlan; }

    /** Globally admitted corpus (valid after run()). */
    const explore::Corpus &corpus() const { return global; }

  private:
    struct Shard : ShardCheckpoint
    {
        ShardSpec spec;
        /** Current channel fd; -1 = detached (awaiting rejoin). */
        int fd = -1;
        /** Per-shard reassembly buffer for the poll reactor. */
        wire::FrameReader reader;
        /** RoundStart sent this round, delta not merged yet. */
        bool pendingDelta = false;
        /** Delta arrived, parked until the in-order merge. */
        std::optional<RoundDelta> stashed;
    };

    void establishFleet(FleetResult &res);
    /** Attach exchange, coordinator side: the accept frame (Hello). */
    void sendAccept(Shard &shard);
    /** Wait for shard's ready frame (HelloReply); throws WireError. */
    void awaitReady(Shard &shard);
    /** Restore state from opts.resumeFrom; fatal on any mismatch. */
    void resumeState(FleetResult &res);
    /**
     * Bounded rejoin wait after a resume: sit in accept until every
     * live shard has redialed or the stop flag rises; past the round
     * deadline every live detached shard is marked dead.
     */
    void awaitRejoins(FleetResult &res);
    /** Persist after a merge; failure = warning, never abort. */
    void maybeCheckpoint(const FleetResult &res);
    /** Stop condition shared by the round loop and the resume path. */
    std::optional<FleetStop> checkStop(const FleetResult &res) const;
    void emitHealth(const char *event, uint32_t shard,
                    uint64_t round, const char *state,
                    const std::string &detail);
    std::vector<uint64_t> allocateBudgets(uint64_t roundTotal,
                                          FleetResult &res);
    void sendRoundStart(Shard &shard, uint64_t round,
                        uint64_t budget);
    void collectRound(FleetResult &res, uint64_t round,
                      uint64_t &roundRuns, uint64_t &roundNewEdges);
    void pumpShard(Shard &shard, FleetResult &res, uint64_t round);
    void acceptReconnects(FleetResult &res, uint64_t round);
    void mergeRoundDelta(Shard &shard, const RoundDelta &delta,
                         FleetResult &res, uint64_t &roundNewEdges);
    void disconnectShard(Shard &shard, FleetResult &res,
                         const std::string &why);
    /** Io trouble detaches (reconnectable); anything else kills. */
    void dropShard(Shard &shard, FleetResult &res,
                   const wire::WireError &err);
    void markDead(Shard &shard, FleetResult &res,
                  const std::string &why);
    void shutdownWorkers();
    void emitRound(const FleetResult &res, uint64_t round,
                   uint64_t roundRuns, uint64_t roundNewEdges);
    void emitDone(const FleetResult &res);

    const isa::Program &program;
    std::vector<std::vector<int32_t>> seeds;
    FleetOptions opts;
    std::shared_ptr<Transport> transport;
    ShardPlan shardPlan;
    FleetIdentity identity;
    explore::Corpus global;

    /**
     * Merged prime-path completion tracker, built from the program
     * alone (same enumeration every worker performs) when
     * base.config.recordEdgeTrace is on; null otherwise.  Shard
     * deltas OR into it, RoundStart broadcasts it back.
     */
    std::unique_ptr<coverage::PathCoverage> pathTracker;

    /** Origin shard of every globally admitted corpus entry. */
    std::vector<uint32_t> origins;
    std::vector<Shard> fleet;
    uint32_t globalDryRounds = 0;
};

/** One-call convenience wrapper. */
FleetResult runFleet(const isa::Program &program,
                     std::vector<std::vector<int32_t>> seeds,
                     FleetOptions opts);

} // namespace pe::fleet

#endif // PE_FLEET_COORDINATOR_HH
