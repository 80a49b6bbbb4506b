/**
 * @file
 * Fleet worker implementation: the round loop (WorkerSession) and the
 * one worker loop the forked and dialing entry points share.
 */

#include "src/fleet/worker.hh"

#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include <unistd.h>

#include "src/core/config.hh"
#include "src/fleet/coordinator.hh"
#include "src/fleet/transport.hh"
#include "src/support/faultinject.hh"
#include "src/support/fnv.hh"
#include "src/support/status.hh"

namespace pe::fleet
{

namespace
{

/**
 * Thrown (only) by the drop-simulation fault sites so a test can
 * force "the connection died here" without killing the process —
 * distinct from FatalError so real failures keep killing the worker.
 */
struct SimulatedDrop
{};

/** Hit a drop site; an armed Throw plan becomes a SimulatedDrop. */
void
dropSite(const std::string &name)
{
    if (name.empty())
        return;
    try {
        fault::site(name.c_str());
    } catch (const FatalError &) {
        throw SimulatedDrop{};
    }
}

/**
 * The round-serving loop shared by forked and dialing workers.  Owns
 * everything that must survive a reconnect: the frontier snapshot
 * last reported upstream, the last executed round number, and that
 * round's encoded delta — so a replayed RoundStart is answered from
 * storage instead of re-executed (idempotent resume).
 */
class WorkerSession
{
  public:
    /** Why serve() returned. */
    enum class Exit : uint8_t
    {
        Stopped,    //!< Stop received, Goodbye sent: clean shutdown
        Eof,        //!< coordinator closed the channel
        Dropped,    //!< connection-level failure (reconnectable)
        Protocol,   //!< the conversation itself is broken
    };

    WorkerSession(const isa::Program &program,
                  explore::Explorer &explorer, uint32_t shard,
                  bool remote)
        : program(program), explorer(explorer),
          roundSite("fleet.worker_round." + std::to_string(shard)),
          stopSite("fleet.worker_stop." + std::to_string(shard))
    {
        if (remote) {
            dropPreSite =
                "fleet.remote_drop_pre." + std::to_string(shard);
            dropPostSite =
                "fleet.remote_drop_post." + std::to_string(shard);
        }
        sentTaken.assign(
            explorer.corpus().frontier().takenWords().size(), 0);
        sentNt.assign(sentTaken.size(), 0);
    }

    /** Last round executed (and whose delta is stored). */
    uint64_t lastRound() const { return round; }

    /** Serve frames on @p fd until the conversation ends. */
    Exit serve(int fd)
    {
        for (;;) {
            std::optional<wire::Frame> frame;
            try {
                frame = wire::readFrame(fd);
            } catch (const wire::WireError &err) {
                return err.kind() == wire::WireErrorKind::Io ||
                               err.kind() ==
                                   wire::WireErrorKind::Truncated
                           ? Exit::Dropped
                           : Exit::Protocol;
            }
            if (!frame)
                return Exit::Eof;

            switch (frame->type) {
            case wire::FrameType::Stop:
                return handleStop(fd);
            case wire::FrameType::Error:
                return Exit::Protocol;
            case wire::FrameType::RoundStart:
                break;
            default:
                sendErrorBestEffort(fd, detail::concat(
                                  "expected round-start, got ",
                                  wire::frameTypeName(frame->type)));
                return Exit::Protocol;
            }

            wire::Decoder dec(frame->payload);
            RoundStart start = decodeRoundStart(dec, program);
            dec.expectEnd("round-start");

            if (start.round == round && !deltaPayload.empty()) {
                // Replay after a reconnect: the coordinator never
                // got our delta.  Resend it; re-executing would run
                // the round's RNG draws twice and fork the universe.
                try {
                    wire::writeFrame(fd, wire::FrameType::RoundDelta,
                                     deltaPayload);
                } catch (const wire::WireError &) {
                    return Exit::Dropped;
                }
                continue;
            }
            if (start.round != round + 1) {
                sendErrorBestEffort(fd, detail::concat(
                                  "round out of sequence: expected ",
                                  round + 1, ", got ", start.round));
                return Exit::Protocol;
            }

            // Deterministic chaos hook: a plan armed on this site
            // (the shard id is part of the name) kills exactly this
            // worker mid-round, which is what the fleet
            // fault-tolerance test exercises.
            fault::site(roundSite.c_str());

            try {
                dropSite(dropPreSite);
                executeRound(start);
                dropSite(dropPostSite);
                wire::writeFrame(fd, wire::FrameType::RoundDelta,
                                 deltaPayload);
            } catch (const SimulatedDrop &) {
                return Exit::Dropped;
            } catch (const wire::WireError &) {
                return Exit::Dropped;
            }
        }
    }

  private:
    Exit handleStop(int fd)
    {
        explorer.finish();
        // Chaos hook for the bounded-shutdown path: a Stall plan
        // here delays the Goodbye past the coordinator's timeout.
        fault::site(stopSite.c_str());
        Goodbye bye;
        bye.runs = explorer.progress().runs;
        bye.batches = explorer.progress().batches;
        bye.corpusSize = explorer.corpus().size();
        bye.edgesCombined =
            explorer.corpus().frontier().combinedCovered();
        wire::Encoder enc;
        encodeGoodbye(enc, bye);
        try {
            wire::writeFrame(fd, wire::FrameType::Goodbye,
                             enc.buffer());
        } catch (const wire::WireError &) {
            // The coordinator may have stopped waiting; still a
            // clean shutdown from our side.
        }
        return Exit::Stopped;
    }

    /** Import, run, and store the round's encoded delta. */
    void executeRound(RoundStart &start)
    {
        // Import before running: this round's mutations see the
        // fleet's merged knowledge.
        if (!start.frontier.empty()) {
            std::vector<uint64_t> taken =
                explorer.corpus().frontier().takenWords();
            std::vector<uint64_t> nt =
                explorer.corpus().frontier().ntWords();
            applyFrontier(start.frontier, taken, nt);
            explorer.importFrontierWords(taken, nt);
        }
        if (!start.entries.empty())
            explorer.importForeignEntries(std::move(start.entries));
        explorer.importPathWords(start.pathWords);

        uint64_t before = explorer.progress().failedJobs;
        uint64_t beforeInst = explorer.progress().instructions;
        uint64_t beforeNt = explorer.progress().ntSpawned;
        uint64_t ran = explorer.step(start.budgetRuns);

        RoundDelta delta;
        delta.round = start.round;
        delta.runs = ran;
        delta.failedJobs = explorer.progress().failedJobs - before;
        delta.instructions =
            explorer.progress().instructions - beforeInst;
        delta.ntSpawned = explorer.progress().ntSpawned - beforeNt;
        delta.exhausted = ran == 0 && start.budgetRuns > 0;
        delta.frontier = diffFrontier(explorer.corpus().frontier(),
                                      sentTaken, sentNt);
        // Dense and tiny (<= 64 words at the enumeration cap), so no
        // diffing: the coordinator's merge is an idempotent OR.
        if (const coverage::PathCoverage *pt = explorer.pathTracker())
            delta.pathWords = pt->words();
        for (const explore::CorpusEntry *e :
             explorer.drainNewLocalEntries())
            delta.entries.push_back(*e);
        delta.admittedLocal = delta.entries.size();

        wire::Encoder enc;
        encodeRoundDelta(enc, delta);
        deltaPayload = enc.buffer();
        round = start.round;
    }

    const isa::Program &program;
    explore::Explorer &explorer;
    std::string roundSite;
    std::string stopSite;
    std::string dropPreSite;
    std::string dropPostSite;
    /** Frontier words last reported upstream (survives reconnects). */
    std::vector<uint64_t> sentTaken;
    std::vector<uint64_t> sentNt;
    /** Last executed round and its encoded RoundDelta. */
    uint64_t round = 0;
    std::string deltaPayload;
};

/**
 * The one worker loop.  Forked and dialing workers differ only in
 * where a channel comes from: @p inheritedFd >= 0 is a forked child's
 * socketpair, served once (its Eof/Dropped means the coordinator is
 * gone); otherwise each channel is a TCP dial to options.connect and
 * a drop is followed by a redial.
 */
int
runWorker(const isa::Program &program, const RemoteWorkerOptions &options,
          uint32_t shard, int inheritedFd)
{
    pe_assert(options.shards >= 1, "fleet worker needs the fleet width");
    const bool forked = inheritedFd >= 0;

    // Derive the fleet identity locally: the shard plan is a pure
    // function of (configHash, masterSeed, shards, seedCount), so a
    // worker on another host computes the same plan — and the Join
    // proves it did.
    const ShardPlan plan =
        makeShardPlan(core::configHash(options.base.config),
                      options.base.seed, options.shards,
                      options.seeds.size());
    Join join;
    join.id = fleetIdentity(program, options.base, plan, options.seeds);

    std::unique_ptr<explore::Explorer> explorer;
    std::unique_ptr<WorkerSession> session;
    auto status = [&](const std::string &line) {
        if (options.status)
            *options.status << "[worker] " << line << "\n";
    };

    // Backoff is seeded off the session identity: every worker of
    // one fleet jitters differently, every rerun identically.
    const uint64_t backoffSeed = join.id.configHash ^ join.id.masterSeed;
    uint64_t failStreak = 0;
    int dialsLeft = options.dialAttempts;
    auto backOff = [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            dialBackoffMs(backoffSeed, failStreak++,
                          options.redialDelayMs, options.redialMaxMs)));
    };
    uint64_t lastDropRound = ~0ull;
    int sameRoundDrops = 0;

    for (;;) {
        int fd = inheritedFd;
        if (!forked) {
            try {
                fd = tcpDial(options.connect);
            } catch (const FatalError &err) {
                if (--dialsLeft <= 0) {
                    status(detail::concat("giving up: ", err.what()));
                    return 1;
                }
                backOff();
                continue;
            }
            dialsLeft = options.dialAttempts;
            failStreak = 0;
        }

        // The attach exchange, on every channel.  An Error answer is
        // a refusal (identity mismatch, no free slot): not retryable.
        try {
            join.desiredShard = shard;
            join.lastAckedRound = session ? session->lastRound() : 0;
            wire::Encoder enc;
            encodeJoin(enc, join);
            wire::writeFrame(fd, wire::FrameType::Join, enc.buffer());

            auto frame = wire::readFrame(fd);
            if (!frame)
                throw wire::WireError(wire::WireErrorKind::Truncated,
                                      "coordinator closed before hello");
            if (frame->type == wire::FrameType::Error) {
                wire::Decoder dec(frame->payload);
                pe_fatal("coordinator refused join: ",
                         dec.str("error message"));
            }
            if (frame->type != wire::FrameType::Hello)
                throw wire::WireError(
                    wire::WireErrorKind::BadFrame,
                    detail::concat("expected hello, got ",
                                   wire::frameTypeName(frame->type)));
            wire::Decoder dec(frame->payload);
            Hello hello = decodeHello(dec);
            dec.expectEnd("hello");
            if (hello.shard >= options.shards ||
                (shard != kAnyShard && hello.shard != shard))
                throw wire::WireError(
                    wire::WireErrorKind::Mismatch,
                    detail::concat("assigned shard ", hello.shard, " of ",
                                   options.shards, ", holding shard ",
                                   shard == kAnyShard
                                       ? std::string("none")
                                       : std::to_string(shard)),
                    shard, hello.shard);

            if (!session) {
                shard = hello.shard;
                const ShardSpec &spec = plan.specs[shard];
                std::vector<std::vector<int32_t>> slice;
                for (uint32_t idx : spec.seedIndices)
                    slice.push_back(options.seeds[idx]);
                explorer = std::make_unique<explore::Explorer>(
                    program, std::move(slice),
                    shardWorkerOptions(options.base, spec.shardSeed,
                                       shard, options.workerThreads));
                session = std::make_unique<WorkerSession>(
                    program, *explorer, shard, !forked);
                status(detail::concat("joined as shard ", shard));
            } else {
                status(detail::concat("shard ", shard,
                                      " reconnected (last round ",
                                      session->lastRound(), ")"));
            }

            HelloReply ready;
            ready.shard = shard;
            wire::Encoder readyEnc;
            encodeHelloReply(readyEnc, ready);
            wire::writeFrame(fd, wire::FrameType::HelloReply,
                             readyEnc.buffer());
        } catch (const wire::WireError &err) {
            // Attach-level connection trouble: treat like a drop and
            // redial (the coordinator may not have noticed the old
            // connection dying yet).
            ::close(fd);
            status(detail::concat("handshake retry: ", err.what()));
            if (forked || --dialsLeft <= 0)
                return 1;
            backOff();
            continue;
        }

        WorkerSession::Exit exit = session->serve(fd);
        ::close(fd);
        switch (exit) {
        case WorkerSession::Exit::Stopped:
            return 0;
        case WorkerSession::Exit::Protocol:
            return 1;
        case WorkerSession::Exit::Eof:
        case WorkerSession::Exit::Dropped:
            // A clean shutdown always ends Stop -> Goodbye (Stopped);
            // a bare EOF means the coordinator died.  A socketpair
            // cannot come back; a dialing worker redials like after a
            // drop — a resumed coordinator may take it back, and one
            // that is gone for good burns the dial attempts.
            if (forked)
                return 0;
            // Guard against a round that drops every attempt (a
            // deterministic failure would redial forever).
            if (session->lastRound() == lastDropRound) {
                if (++sameRoundDrops > 8) {
                    status(detail::concat(
                        "shard ", shard, " dropping repeatedly at round ",
                        lastDropRound, "; giving up"));
                    return 1;
                }
            } else {
                lastDropRound = session->lastRound();
                sameRoundDrops = 1;
            }
            status(detail::concat("shard ", shard,
                                  " lost connection; redialing"));
            break;
        }
    }
}

} // namespace

int
dialBackoffMs(uint64_t seedWord, uint64_t attempt, int baseMs,
              int maxMs)
{
    if (baseMs < 1)
        baseMs = 1;
    if (maxMs < baseMs)
        maxMs = baseMs;
    uint64_t shift = attempt < 20 ? attempt : 20;
    uint64_t raw = uint64_t(baseMs) << shift;
    if (raw > uint64_t(maxMs))
        raw = uint64_t(maxMs);

    // FNV-1a over (seedWord, attempt) picks the jitter: up to half
    // the raw wait is shaved off, so the delay lands in
    // [raw/2, raw] and two workers with different seeds desynchronize
    // while reruns stay byte-identical.
    uint64_t h = fnvMix(fnvMix(kFleetFnvOffset, seedWord), attempt);
    uint64_t delay = raw - h % (raw / 2 + 1);
    if (delay < 1)
        delay = 1;
    return static_cast<int>(delay);
}

explore::ExploreOptions
shardWorkerOptions(const explore::ExploreOptions &base,
                   uint64_t shardSeed, uint32_t shard,
                   unsigned workerThreads)
{
    // The worker's explorer is the fleet's base options minus
    // everything the coordinator owns: budgets are metered per
    // round, checkpoints/JSONL/stop flags stay with the coordinating
    // process, and the seed becomes the derived shard seed so
    // sibling shards explore different universes.
    explore::ExploreOptions o = base;
    o.seed = shardSeed;
    o.budget.maxRuns = kUnboundedRuns;
    o.budget.maxInstructions = 0;
    o.budget.plateauBatches = 0;
    o.jsonl = nullptr;
    o.onRun = nullptr;
    o.checkpointPath.clear();
    o.resumeFrom.clear();
    o.stopFlag = nullptr;
    o.threads = workerThreads;
    o.label = base.label + "/shard" + std::to_string(shard);
    return o;
}

int
workerMain(int fd, const isa::Program &program,
           const WorkerConfig &config)
{
    return runWorker(program, config.options, config.shard, fd);
}

int
remoteWorkerMain(const isa::Program &program,
                 const RemoteWorkerOptions &options)
{
    return runWorker(program, options, kAnyShard, -1);
}

} // namespace pe::fleet
