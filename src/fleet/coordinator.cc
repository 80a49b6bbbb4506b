/**
 * @file
 * Fleet coordinator implementation.
 */

#include "src/fleet/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ostream>
#include <utility>

#include <poll.h>

#include "src/core/config.hh"
#include "src/explore/serialize.hh"
#include "src/fleet/checkpoint.hh"
#include "src/fleet/transport.hh"
#include "src/fleet/worker.hh"
#include "src/support/fnv.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::fleet
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Dry rounds before one shard counts as plateaued. */
constexpr uint32_t kShardPlateau = 2;

/**
 * Weight, in percent of a fair share, of a plateaued shard the last
 * broadcast handed fresh foreign entries: it steals a double share
 * to work them.
 */
constexpr uint64_t kStealPct = 200;

/**
 * Weight of a plateaued shard without fresh material: wind-down, not
 * starvation, so it can revive when the next broadcast reaches it.
 */
constexpr uint64_t kIdleFloorPct = 25;

int
msUntil(Clock::time_point deadline)
{
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    if (left < 0)
        return 0;
    if (left > 1000 * 60 * 60)
        return 1000 * 60 * 60;
    return static_cast<int>(left);
}

} // namespace

ShardPlan
makeShardPlan(uint64_t configHash, uint64_t masterSeed,
              uint32_t shards, size_t seedCount)
{
    pe_assert(shards >= 1, "fleet needs at least one shard");
    ShardPlan plan;
    plan.shards = shards;

    // Derive per-shard seeds from a stream forked off (configHash,
    // masterSeed) so a config change re-seeds the whole fleet, never
    // just reshuffles it.
    Rng planRng(masterSeed ^ fnvMix(kFleetFnvOffset, configHash));
    uint64_t digest = fnvMix(kFleetFnvOffset, configHash);
    digest = fnvMix(digest, masterSeed);
    digest = fnvMix(digest, shards);
    digest = fnvMix(digest, seedCount);

    plan.specs.resize(shards);
    for (uint32_t s = 0; s < shards; ++s) {
        plan.specs[s].shard = s;
        plan.specs[s].shardSeed =
            planRng.fork(0xf1ee7000ull + s).next64();
        digest = fnvMix(digest, plan.specs[s].shardSeed);
    }

    // Deal seed inputs round-robin; when there are fewer seeds than
    // shards, wrap so every shard still starts with at least one
    // (shards exploring the same seed diverge via their shard seeds).
    if (seedCount > 0) {
        if (seedCount >= shards) {
            for (size_t i = 0; i < seedCount; ++i)
                plan.specs[i % shards].seedIndices.push_back(
                    static_cast<uint32_t>(i));
        } else {
            for (uint32_t s = 0; s < shards; ++s)
                plan.specs[s].seedIndices.push_back(
                    static_cast<uint32_t>(s % seedCount));
        }
        for (const ShardSpec &spec : plan.specs)
            for (uint32_t idx : spec.seedIndices)
                digest = fnvMix(digest, idx);
    }

    plan.planDigest = digest;
    return plan;
}

FleetIdentity
fleetIdentity(const isa::Program &program,
              const explore::ExploreOptions &base, const ShardPlan &plan,
              const std::vector<std::vector<int32_t>> &seeds)
{
    FleetIdentity id = explore::sessionIdentity(program, base, seeds);
    id.shards = plan.shards;
    id.planDigest = plan.planDigest;
    return id;
}

const char *
fleetStopName(FleetStop stop)
{
    switch (stop) {
    case FleetStop::RunBudget:
        return "run_budget";
    case FleetStop::Plateau:
        return "plateau";
    case FleetStop::Interrupted:
        return "interrupted";
    case FleetStop::WorkersLost:
        return "workers_lost";
    }
    return "unknown";
}

Coordinator::Coordinator(const isa::Program &program,
                         std::vector<std::vector<int32_t>> seeds,
                         FleetOptions opts)
    : program(program), seeds(std::move(seeds)),
      opts(std::move(opts)), global(program)
{
    pe_assert(this->opts.shards >= 1,
              "fleet needs at least one shard");
    transport = this->opts.transport
                    ? this->opts.transport
                    : std::make_shared<ForkTransport>(program);
    shardPlan = makeShardPlan(core::configHash(this->opts.base.config),
                              this->opts.base.seed, this->opts.shards,
                              this->seeds.size());
    identity = fleetIdentity(program, this->opts.base, shardPlan,
                             this->seeds);
    // Same construction path as every worker's Explorer: the tracker
    // is a pure function of the program (default enumeration caps),
    // so coordinator and shards agree on the path-id space and the
    // completion words can be OR-merged without translation.
    if (this->opts.base.config.recordEdgeTrace)
        pathTracker =
            std::make_unique<coverage::PathCoverage>(program);
}

void
Coordinator::establishFleet(FleetResult &res)
{
    size_t words = global.frontier().takenWords().size();
    std::vector<WorkerConfig> configs;
    fleet.resize(shardPlan.specs.size());
    for (size_t s = 0; s < fleet.size(); ++s) {
        Shard &shard = fleet[s];
        shard.spec = shardPlan.specs[s];
        shard.summary.shard = shard.spec.shard;
        shard.summary.alive = true;
        shard.sentTaken.assign(words, 0);
        shard.sentNt.assign(words, 0);

        WorkerConfig &cfg = configs.emplace_back();
        cfg.shard = shard.spec.shard;
        cfg.options.shards = shardPlan.shards;
        cfg.options.base = opts.base;
        cfg.options.seeds = seeds;
        cfg.options.workerThreads = opts.workerThreads;
    }

    std::vector<int> fds =
        transport->establish(identity, configs, opts.stopFlag);
    pe_assert(fds.size() == fleet.size(),
              "transport returned the wrong shard count");

    // Every accept frame goes out before any ready frame is awaited,
    // so the shards build their explorers concurrently.  The exchange
    // runs on blocking fds; the reactor flips them non-blocking after.
    for (size_t s = 0; s < fleet.size(); ++s) {
        Shard &shard = fleet[s];
        shard.fd = fds[s];
        try {
            if (shard.fd < 0)
                throw wire::WireError(wire::WireErrorKind::Mismatch,
                                      "join refused");
            sendAccept(shard);
        } catch (const wire::WireError &err) {
            markDead(shard, res,
                     detail::concat("handshake failed: ", err.what()));
        }
    }
    for (Shard &shard : fleet) {
        if (!shard.summary.alive)
            continue;
        try {
            awaitReady(shard);
            wire::setNonBlocking(shard.fd);
        } catch (const wire::WireError &err) {
            markDead(shard, res,
                     detail::concat("handshake failed: ", err.what()));
        }
    }
}

void
Coordinator::sendAccept(Shard &shard)
{
    Hello hello;
    hello.shard = shard.spec.shard;
    wire::Encoder enc;
    encodeHello(enc, hello);
    wire::writeFrame(shard.fd, wire::FrameType::Hello, enc.buffer());
}

void
Coordinator::awaitReady(Shard &shard)
{
    auto frame = wire::readFrameTimeout(shard.fd, kAttachTimeoutMs,
                                        &shard.reader);
    if (!frame)
        throw wire::WireError(wire::WireErrorKind::Io,
                              "worker closed before its ready frame");
    if (frame->type == wire::FrameType::Error) {
        wire::Decoder dec(frame->payload);
        throw wire::WireError(wire::WireErrorKind::Mismatch,
                              dec.str("worker error"));
    }
    if (frame->type != wire::FrameType::HelloReply)
        throw wire::WireError(
            wire::WireErrorKind::BadFrame,
            detail::concat("expected hello-reply, got ",
                           wire::frameTypeName(frame->type)));
    wire::Decoder dec(frame->payload);
    HelloReply ready = decodeHelloReply(dec);
    dec.expectEnd("hello-reply");
    if (ready.shard != shard.spec.shard)
        throw wire::WireError(
            wire::WireErrorKind::Mismatch,
            detail::concat("ready frame for shard ", ready.shard,
                           " on shard ", shard.spec.shard, "'s channel"),
            shard.spec.shard, ready.shard);
}

std::vector<uint64_t>
Coordinator::allocateBudgets(uint64_t roundTotal, FleetResult &res)
{
    // Weight each live shard in percent-of-fair: steady shards 100,
    // plateaued-with-fresh-material shards steal extra, plateaued-dry
    // shards wind down to the floor, exhausted shards 0.
    std::vector<uint64_t> weight(fleet.size(), 0);
    uint64_t sum = 0;
    size_t alive = 0;
    for (size_t s = 0; s < fleet.size(); ++s) {
        const Shard &shard = fleet[s];
        if (!shard.summary.alive)
            continue;
        ++alive;
        if (shard.summary.exhausted)
            continue;
        uint64_t w = 100;
        if (shard.summary.dryRounds >= kShardPlateau)
            w = shard.gotForeign ? kStealPct : kIdleFloorPct;
        weight[s] = w;
        sum += w;
    }

    std::vector<uint64_t> budget(fleet.size(), 0);
    if (alive == 0 || roundTotal == 0)
        return budget;
    if (sum == 0) {
        // Every live shard is exhausted; hand out fair shares anyway
        // so the final round confirms nothing moved (the stop check
        // ends the fleet right after).
        for (size_t s = 0; s < fleet.size(); ++s)
            if (fleet[s].summary.alive)
                weight[s] = 100;
        sum = 100 * alive;
    }

    uint64_t assigned = 0;
    for (size_t s = 0; s < fleet.size(); ++s) {
        budget[s] = roundTotal * weight[s] / sum;
        assigned += budget[s];
    }
    // Distribute the integer remainder one run at a time in shard
    // order — deterministic, and biased toward nobody in particular.
    for (size_t s = 0; assigned < roundTotal; s = (s + 1) % fleet.size()) {
        if (weight[s] == 0)
            continue;
        ++budget[s];
        ++assigned;
    }

    // Steal accounting: runs above the fair share of live shards.
    uint64_t fair = roundTotal / alive;
    for (size_t s = 0; s < fleet.size(); ++s) {
        if (fleet[s].summary.alive && budget[s] > fair &&
            fleet[s].summary.dryRounds >= kShardPlateau)
            res.stolenRuns += budget[s] - fair;
    }
    return budget;
}

void
Coordinator::sendRoundStart(Shard &shard, uint64_t round,
                            uint64_t budget)
{
    RoundStart start;
    start.round = round;
    start.budgetRuns = budget;
    start.frontier =
        diffFrontier(global.frontier(), shard.sentTaken,
                     shard.sentNt);
    // Dense and idempotent (the worker ORs them in), so no per-shard
    // cursor is needed — resending unchanged words is harmless.
    if (pathTracker)
        start.pathWords = pathTracker->words();

    // Globally-admitted entries this shard has not seen, skipping
    // the ones it contributed itself (echo-free exchange).
    shard.gotForeign = false;
    for (size_t i = shard.entryMark; i < global.size(); ++i) {
        if (origins[i] == shard.spec.shard)
            continue;
        start.entries.push_back(global.entries()[i]);
        shard.gotForeign = true;
    }
    shard.entryMark = global.size();

    // Payload generation advances sentTaken/entryMark, so a resend
    // must reuse these exact bytes: this IS the replay buffer.
    wire::Encoder enc;
    encodeRoundStart(enc, start);
    shard.replayRound = round;
    shard.replayPayload = enc.take();
    shard.summary.assigned += budget;
    shard.pendingDelta = true;

    if (shard.fd < 0)
        return;   // detached: replayed when the worker rejoins
    wire::writeFrame(shard.fd, wire::FrameType::RoundStart,
                     shard.replayPayload);
}

void
Coordinator::mergeRoundDelta(Shard &shard, const RoundDelta &delta,
                             FleetResult &res,
                             uint64_t &roundNewEdges)
{
    res.runs += delta.runs;
    res.instructions += delta.instructions;
    res.ntSpawned += delta.ntSpawned;
    res.failedJobs += delta.failedJobs;
    shard.summary.runs += delta.runs;
    shard.summary.exhausted = delta.exhausted;

    size_t before = global.frontier().combinedCovered();

    // Entries first: each one was new over its worker's frontier at
    // admission; judging it against the global frontier *before* the
    // shard's bulk delta lands is what lets it into the global corpus
    // (the bulk delta contains the entry's own edges).
    for (const explore::CorpusEntry &entry : delta.entries) {
        size_t sizeBefore = global.size();
        if (global.considerForeign(entry, res.rounds) > 0 &&
            global.size() > sizeBefore) {
            origins.push_back(shard.spec.shard);
            ++shard.summary.admittedGlobal;
        }
    }

    if (!delta.frontier.empty()) {
        std::vector<uint64_t> taken = global.frontier().takenWords();
        std::vector<uint64_t> nt = global.frontier().ntWords();
        applyFrontier(delta.frontier, taken, nt);
        global.mergeFrontierWords(taken, nt);
    }

    // Path completion is a word-OR like the frontier, so shard-order
    // merging keeps the digest a pure function of the plan.  A size
    // disagreement is impossible past the handshake (recordEdgeTrace
    // rides in configHash), which mergeWords asserts.
    if (pathTracker && !delta.pathWords.empty())
        pathTracker->mergeWords(delta.pathWords);

    size_t grown = global.frontier().combinedCovered() - before;
    shard.summary.newEdges += grown;
    roundNewEdges += grown;
    if (grown == 0)
        ++shard.summary.dryRounds;
    else
        shard.summary.dryRounds = 0;
}

void
Coordinator::disconnectShard(Shard &shard, FleetResult &res,
                             const std::string &why)
{
    if (!shard.summary.alive)
        return;
    if (!transport->supportsReconnect()) {
        markDead(shard, res, why);
        return;
    }
    if (shard.fd >= 0) {
        transport->closeChannel(shard.spec.shard);
        shard.fd = -1;
        emitHealth("fleet_degraded", shard.spec.shard, res.rounds,
                   "detached", why);
    }
    shard.reader.reset();
    if (opts.status)
        *opts.status << "[fleet] shard " << shard.spec.shard
                     << " disconnected: " << why
                     << " (awaiting rejoin)\n";
}

void
Coordinator::dropShard(Shard &shard, FleetResult &res,
                       const wire::WireError &err)
{
    // Header garbage / malformed payloads are protocol failures; only
    // honest connection trouble earns a reconnect window.
    if (err.kind() == wire::WireErrorKind::Io)
        disconnectShard(shard, res, err.what());
    else
        markDead(shard, res, err.what());
}

void
Coordinator::markDead(Shard &shard, FleetResult &res,
                      const std::string &why)
{
    if (!shard.summary.alive)
        return;
    shard.summary.alive = false;
    ++res.lostWorkers;
    emitHealth("fleet_degraded", shard.spec.shard, res.rounds,
               "dead", why);
    if (opts.status)
        *opts.status << "[fleet] shard " << shard.spec.shard
                     << " lost: " << why << "\n";
    // Closing our end wakes a child blocked in read; the reap happens
    // in the transport's shutdown so round latency is not spent on
    // waitpid.
    if (shard.fd >= 0) {
        transport->closeChannel(shard.spec.shard);
        shard.fd = -1;
    }
    shard.reader.reset();
    shard.stashed.reset();
}

void
Coordinator::pumpShard(Shard &shard, FleetResult &res,
                       uint64_t round)
{
    wire::FillStatus status = wire::FillStatus::Drained;
    try {
        status = wire::fillFromFd(shard.fd, shard.reader);
        while (shard.summary.alive) {
            auto frame = shard.reader.next();
            if (!frame)
                break;
            if (frame->type == wire::FrameType::Error) {
                wire::Decoder dec(frame->payload);
                markDead(shard, res, dec.str("worker error"));
                return;
            }
            if (frame->type != wire::FrameType::RoundDelta) {
                markDead(shard, res,
                         detail::concat(
                             "expected round-delta, got ",
                             wire::frameTypeName(frame->type)));
                return;
            }
            wire::Decoder dec(frame->payload);
            RoundDelta delta = decodeRoundDelta(dec, program);
            dec.expectEnd("round-delta");
            if (delta.round != round || shard.stashed) {
                markDead(shard, res,
                         detail::concat("unexpected delta for round ",
                                        delta.round, " during round ",
                                        round));
                return;
            }
            shard.stashed = std::move(delta);
        }
    } catch (const wire::WireError &err) {
        dropShard(shard, res, err);
        return;
    }

    if (status == wire::FillStatus::Eof && !shard.stashed) {
        disconnectShard(shard, res,
                        shard.reader.midFrame()
                            ? "connection died mid-frame"
                            : "connection closed mid-round");
    }
}

void
Coordinator::acceptReconnects(FleetResult &res, uint64_t round)
{
    auto mayJoin = [&](uint32_t shardId, bool rejoin) {
        (void)rejoin;
        if (shardId >= fleet.size())
            return false;
        const Shard &s = fleet[shardId];
        return s.summary.alive && s.fd < 0;
    };
    while (auto peer = transport->acceptPeer(mayJoin)) {
        Shard &shard = fleet[peer->shard];
        shard.fd = peer->fd;
        shard.reader.reset();
        try {
            wire::setNonBlocking(shard.fd);
            sendAccept(shard);
            awaitReady(shard);
        } catch (const wire::WireError &err) {
            dropShard(shard, res, err);
            continue;
        }
        ++res.reconnects;
        emitHealth("fleet_rejoined", shard.spec.shard, round, "live",
                   peer->rejoin ? "reconnected" : "connected");

        if (!shard.pendingDelta)
            continue;   // between rounds; nothing to replay

        // Resume: the peer is valid if it executed up to the replay
        // round (delta lost in transit) or up to the round before it
        // (RoundStart lost).  Anything else cannot resume losslessly.
        pe_assert(shard.replayRound == round,
                  "replay buffer out of step with the round loop");
        if (peer->lastAckedRound != round &&
            peer->lastAckedRound + 1 != round) {
            markDead(shard, res,
                     detail::concat("rejoined too far behind: last "
                                    "acked round ",
                                    peer->lastAckedRound,
                                    " during round ", round));
            continue;
        }
        try {
            wire::writeFrame(shard.fd, wire::FrameType::RoundStart,
                             shard.replayPayload);
        } catch (const wire::WireError &err) {
            disconnectShard(shard, res, err.what());
        }
    }
}

void
Coordinator::collectRound(FleetResult &res, uint64_t round,
                          uint64_t &roundRuns,
                          uint64_t &roundNewEdges)
{
    std::optional<Clock::time_point> deadline;
    if (opts.roundDeadlineMs > 0)
        deadline = Clock::now() +
                   std::chrono::milliseconds(opts.roundDeadlineMs);

    auto unresolved = [&] {
        size_t n = 0;
        for (const Shard &s : fleet)
            if (s.summary.alive && s.pendingDelta && !s.stashed)
                ++n;
        return n;
    };

    while (unresolved() > 0) {
        // Poll every live shard still owing a delta; the transport's
        // accept fd rides along whenever a detached shard could
        // rejoin.  Shards whose delta already arrived are *not*
        // polled — extra bytes from them surface next round.
        std::vector<struct pollfd> pfds;
        std::vector<size_t> owners;
        bool anyDetached = false;
        for (size_t s = 0; s < fleet.size(); ++s) {
            Shard &shard = fleet[s];
            if (!shard.summary.alive || !shard.pendingDelta ||
                shard.stashed)
                continue;
            if (shard.fd < 0) {
                anyDetached = true;
                continue;
            }
            pfds.push_back({shard.fd, POLLIN, 0});
            owners.push_back(s);
        }
        int acceptFd = transport->acceptFd();
        if (acceptFd >= 0 && anyDetached) {
            pfds.push_back({acceptFd, POLLIN, 0});
            owners.push_back(SIZE_MAX);
        }

        if (pfds.empty()) {
            // Every unresolved shard is detached with no way back.
            for (Shard &shard : fleet)
                if (shard.summary.alive && shard.pendingDelta &&
                    !shard.stashed)
                    markDead(shard, res, "detached with no "
                                         "reconnect path");
            break;
        }

        int timeout = -1;
        if (deadline) {
            timeout = msUntil(*deadline);
            if (timeout == 0) {
                // Deadline: everyone still owing a delta is dead;
                // already-stashed deltas still merge below, so a
                // stalled shard never drags the others down.
                for (Shard &shard : fleet)
                    if (shard.summary.alive && shard.pendingDelta &&
                        !shard.stashed)
                        markDead(shard, res, "round deadline");
                break;
            }
        }

        int rc = ::poll(pfds.data(), pfds.size(), timeout);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            pe_fatal("fleet poll failed: ", std::strerror(errno));
        }
        if (rc == 0)
            continue;   // deadline check happens on the next pass

        for (size_t i = 0; i < pfds.size(); ++i) {
            if (pfds[i].revents == 0)
                continue;
            if (owners[i] == SIZE_MAX)
                acceptReconnects(res, round);
            else
                pumpShard(fleet[owners[i]], res, round);
        }
    }

    // Merge in shard-id order — arrival order must never matter, or
    // the digests stop being pure functions of the plan.
    for (Shard &shard : fleet) {
        if (shard.summary.alive && shard.stashed) {
            roundRuns += shard.stashed->runs;
            mergeRoundDelta(shard, *shard.stashed, res,
                            roundNewEdges);
        }
        shard.stashed.reset();
        shard.pendingDelta = false;
    }
}

void
Coordinator::emitHealth(const char *event, uint32_t shard,
                        uint64_t round, const char *state,
                        const std::string &detail)
{
    if (!opts.base.jsonl)
        return;
    *opts.base.jsonl << "{\"event\":\"" << event
                     << "\",\"shard\":" << shard
                     << ",\"round\":" << round << ",\"state\":\""
                     << state << "\",\"detail\":\""
                     << jsonEscape(detail) << "\"}\n";
    opts.base.jsonl->flush();
}

std::optional<FleetStop>
Coordinator::checkStop(const FleetResult &res) const
{
    size_t alive = 0;
    bool allExhausted = true;
    for (const Shard &shard : fleet) {
        if (!shard.summary.alive)
            continue;
        ++alive;
        if (!shard.summary.exhausted)
            allExhausted = false;
    }
    if (alive == 0)
        return FleetStop::WorkersLost;
    if (opts.stopFlag &&
        opts.stopFlag->load(std::memory_order_relaxed))
        return FleetStop::Interrupted;
    if (res.runs >= opts.base.budget.maxRuns)
        return FleetStop::RunBudget;
    if (allExhausted && res.rounds > 0)
        return FleetStop::Plateau;
    if (opts.plateauRounds && globalDryRounds >= opts.plateauRounds)
        return FleetStop::Plateau;
    return std::nullopt;
}

void
Coordinator::awaitRejoins(FleetResult &res)
{
    auto detached = [&] {
        return std::any_of(fleet.begin(), fleet.end(),
                           [](const Shard &s) {
                               return s.summary.alive && s.fd < 0;
                           });
    };
    std::optional<Clock::time_point> deadline;
    if (opts.roundDeadlineMs > 0)
        deadline = Clock::now() +
                   std::chrono::milliseconds(opts.roundDeadlineMs);
    while (detached()) {
        if (opts.stopFlag &&
            opts.stopFlag->load(std::memory_order_relaxed))
            return;
        int timeout = 200;
        if (deadline) {
            int left = msUntil(*deadline);
            if (left == 0) {
                // Degradation, never a hang: the session goes on
                // without the shards that did not come back.
                for (Shard &shard : fleet)
                    if (shard.summary.alive && shard.fd < 0)
                        markDead(shard, res,
                                 "did not redial after resume");
                return;
            }
            timeout = std::min(timeout, left);
        }
        struct pollfd pfd = {transport->acceptFd(), POLLIN, 0};
        int rc = ::poll(&pfd, 1, timeout);
        if (rc < 0 && errno != EINTR)
            pe_fatal("fleet poll failed: ", std::strerror(errno));
        if (rc > 0)
            acceptReconnects(res, res.rounds);
    }
}

void
Coordinator::maybeCheckpoint(const FleetResult &res)
{
    if (opts.checkpointPath.empty())
        return;

    FleetCheckpoint ckpt;
    ckpt.id = identity;
    ckpt.rounds = res.rounds;
    ckpt.runs = res.runs;
    ckpt.instructions = res.instructions;
    ckpt.ntSpawned = res.ntSpawned;
    ckpt.failedJobs = res.failedJobs;
    ckpt.stolenRuns = res.stolenRuns;
    ckpt.lostWorkers = res.lostWorkers;
    ckpt.reconnects = res.reconnects;
    ckpt.globalDryRounds = globalDryRounds;
    ckpt.corpus = explore::CorpusState::of(global, pathTracker.get());
    ckpt.origins = origins;
    for (const Shard &shard : fleet)
        ckpt.shardStates.push_back(shard);   // its ShardCheckpoint half

    try {
        saveFleetCheckpoint(opts.checkpointPath, ckpt);
    } catch (const FatalError &err) {
        // Durability is best-effort; the session itself never dies
        // for a full disk.  The previous checkpoint (if any) is still
        // intact — the writer renames atomically.
        if (opts.status)
            *opts.status << "[fleet] warning: checkpoint write "
                            "failed: "
                         << err.what() << "\n";
        if (opts.base.jsonl) {
            *opts.base.jsonl
                << "{\"event\":\"fleet_warning\",\"warning\":"
                   "\"checkpoint_write_failed\",\"round\":"
                << res.rounds << ",\"error\":\""
                << jsonEscape(err.what()) << "\"}\n";
            opts.base.jsonl->flush();
        }
    }
}

void
Coordinator::resumeState(FleetResult &res)
{
    // The loader checked every size against the program and the
    // checkpoint's own plan; the identity check ties that plan to
    // ours.  Only then is anything restored.
    FleetCheckpoint ckpt =
        loadFleetCheckpoint(opts.resumeFrom, program);
    try {
        explore::checkIdentity(identity, ckpt.id);
        std::move(ckpt.corpus).restoreInto(global, pathTracker.get());
    } catch (const wire::WireError &err) {
        explore::refuseStateFile(explore::StateKind::Fleet,
                                 opts.resumeFrom, err);
    }
    origins = std::move(ckpt.origins);

    res.rounds = ckpt.rounds;
    res.runs = ckpt.runs;
    res.instructions = ckpt.instructions;
    res.ntSpawned = ckpt.ntSpawned;
    res.failedJobs = ckpt.failedJobs;
    res.stolenRuns = ckpt.stolenRuns;
    res.lostWorkers = ckpt.lostWorkers;
    res.reconnects = ckpt.reconnects;
    globalDryRounds = ckpt.globalDryRounds;

    fleet.clear();
    fleet.resize(shardPlan.specs.size());
    for (size_t s = 0; s < fleet.size(); ++s) {
        Shard &shard = fleet[s];
        static_cast<ShardCheckpoint &>(shard) =
            std::move(ckpt.shardStates[s]);
        shard.spec = shardPlan.specs[s];
    }

    if (opts.status)
        *opts.status << "[fleet] resumed session from '"
                     << opts.resumeFrom << "': round " << res.rounds
                     << ", " << res.runs << " runs, corpus "
                     << global.size() << ", edges "
                     << global.frontier().combinedCovered() << "/"
                     << global.frontier().totalEdges() << "\n";
    if (opts.base.jsonl) {
        *opts.base.jsonl << "{\"event\":\"fleet_resumed\",\"round\":"
                         << res.rounds << ",\"runs\":" << res.runs
                         << ",\"corpus\":" << global.size()
                         << ",\"edges_combined\":"
                         << global.frontier().combinedCovered()
                         << "}\n";
        opts.base.jsonl->flush();
    }
}

void
Coordinator::shutdownWorkers()
{
    // Bounded: a worker that never answers Stop with Goodbye cannot
    // hang the fleet — after goodbyeTimeoutMs we fall through to the
    // transport's reap (which escalates to SIGKILL for fork).
    for (Shard &shard : fleet) {
        if (!shard.summary.alive || shard.fd < 0)
            continue;
        try {
            wire::writeFrame(shard.fd, wire::FrameType::Stop, {});
            auto frame = wire::readFrameTimeout(
                shard.fd, opts.goodbyeTimeoutMs, &shard.reader);
            if (frame && frame->type == wire::FrameType::Goodbye) {
                wire::Decoder dec(frame->payload);
                Goodbye bye = decodeGoodbye(dec);
                dec.expectEnd("goodbye");
                if (opts.status)
                    *opts.status
                        << "[fleet] shard " << shard.spec.shard
                        << " done: " << bye.runs << " runs, "
                        << bye.corpusSize << " corpus entries, "
                        << bye.edgesCombined << " edges\n";
            }
        } catch (const wire::WireError &err) {
            // Already exiting, or wedged past the goodbye timeout;
            // either way the transport shutdown reaps it.
            if (opts.status)
                *opts.status << "[fleet] shard " << shard.spec.shard
                             << " sent no goodbye (" << err.what()
                             << "); reaping\n";
        }
        transport->closeChannel(shard.spec.shard);
        shard.fd = -1;
    }
    transport->shutdown(opts.reapTimeoutMs);
}

void
Coordinator::emitRound(const FleetResult &res, uint64_t round,
                       uint64_t roundRuns, uint64_t roundNewEdges)
{
    size_t alive = 0;
    for (const Shard &shard : fleet)
        if (shard.summary.alive)
            ++alive;
    if (opts.base.jsonl) {
        *opts.base.jsonl
            << "{\"event\":\"fleet_round\",\"round\":" << round
            << ",\"runs\":" << roundRuns
            << ",\"total_runs\":" << res.runs
            << ",\"new_edges\":" << roundNewEdges
            << ",\"edges_combined\":"
            << global.frontier().combinedCovered()
            << ",\"corpus\":" << global.size()
            << ",\"stolen_runs\":" << res.stolenRuns
            << ",\"alive\":" << alive;
        if (pathTracker) {
            *opts.base.jsonl
                << ",\"paths_completed\":"
                << pathTracker->completedCount()
                << ",\"cover_completed\":"
                << pathTracker->coverCompleted();
        }
        *opts.base.jsonl << "}\n";
        opts.base.jsonl->flush();
    }
    if (opts.status) {
        *opts.status << "[fleet] round " << round << ": " << roundRuns
                     << " runs, +" << roundNewEdges << " edges, "
                     << global.frontier().combinedCovered() << "/"
                     << global.frontier().totalEdges()
                     << " covered, corpus " << global.size() << ", "
                     << alive << "/" << fleet.size() << " alive\n";
    }
}

void
Coordinator::emitDone(const FleetResult &res)
{
    if (!opts.base.jsonl)
        return;
    *opts.base.jsonl
        << "{\"event\":\"fleet_done\",\"stop\":\""
        << fleetStopName(res.stop) << "\",\"rounds\":" << res.rounds
        << ",\"runs\":" << res.runs
        << ",\"failed\":" << res.failedJobs
        << ",\"instructions\":" << res.instructions
        << ",\"nt_spawned\":" << res.ntSpawned
        << ",\"corpus\":" << res.corpusSize
        << ",\"edges_taken\":" << res.edgesTaken
        << ",\"edges_combined\":" << res.edgesCombined
        << ",\"total_edges\":" << res.totalEdges
        << ",\"shards\":" << shardPlan.shards
        << ",\"transport\":\"" << transport->name()
        << "\",\"lost_workers\":" << res.lostWorkers
        << ",\"reconnects\":" << res.reconnects
        << ",\"stolen_runs\":" << res.stolenRuns
        << ",\"plan_digest\":\"" << fmtHex(res.planDigest)
        << "\",\"frontier_digest\":\"" << fmtHex(res.frontierDigest)
        << "\",\"corpus_digest\":\"" << fmtHex(res.corpusDigest)
        << "\"";
    if (pathTracker) {
        *opts.base.jsonl
            << ",\"prime_paths\":" << res.primePaths
            << ",\"path_cover_size\":" << res.pathCoverSize
            << ",\"paths_completed\":" << res.pathsCompleted
            << ",\"path_cover_completed\":" << res.pathCoverCompleted
            << ",\"path_digest\":\"" << fmtHex(res.pathDigest)
            << "\"";
    }
    *opts.base.jsonl << "}\n";
    opts.base.jsonl->flush();
}

FleetResult
Coordinator::run()
{
    FleetResult res;
    res.planDigest = shardPlan.planDigest;
    res.totalEdges = global.frontier().totalEdges();

    if (opts.base.jsonl) {
        *opts.base.jsonl
            << "{\"event\":\"fleet_start\",\"workload\":\""
            << opts.base.label << "\",\"shards\":" << shardPlan.shards
            << ",\"seed\":" << opts.base.seed
            << ",\"max_runs\":" << opts.base.budget.maxRuns
            << ",\"round_runs\":"
            << (opts.roundRuns
                    ? opts.roundRuns
                    : uint64_t(opts.shards) * opts.base.batchSize)
            << ",\"transport\":\"" << transport->name()
            << "\",\"total_edges\":" << res.totalEdges
            << ",\"config_hash\":\""
            << fmtHex(core::configHash(opts.base.config))
            << "\",\"plan_digest\":\"" << fmtHex(shardPlan.planDigest)
            << "\"}\n";
        opts.base.jsonl->flush();
    }

    if (!opts.resumeFrom.empty()) {
        // Durable-session restart: restore the merged state and let
        // the session's workers redial through the reconnect path —
        // unless the checkpoint already satisfies a stop condition,
        // in which case there is nothing left to reattach for.
        resumeState(res);
        if (!checkStop(res)) {
            transport->prepareResume(identity);
            awaitRejoins(res);
        }
    } else {
        establishFleet(res);
    }

    uint64_t roundTotal =
        opts.roundRuns ? opts.roundRuns
                       : uint64_t(opts.shards) * opts.base.batchSize;
    pe_assert(roundTotal > 0, "fleet round budget must be positive");

    for (;;) {
        if (auto stop = checkStop(res)) {
            res.stop = *stop;
            break;
        }

        uint64_t round = ++res.rounds;
        uint64_t thisRound = std::min<uint64_t>(
            roundTotal, opts.base.budget.maxRuns - res.runs);
        std::vector<uint64_t> budgets =
            allocateBudgets(thisRound, res);

        for (Shard &shard : fleet) {
            if (!shard.summary.alive)
                continue;
            try {
                sendRoundStart(shard, round,
                               budgets[shard.spec.shard]);
            } catch (const wire::WireError &err) {
                // The payload is stored; a reconnecting worker can
                // still pick the round up within the deadline.
                disconnectShard(shard, res, err.what());
            }
        }

        uint64_t roundRuns = 0;
        uint64_t roundNewEdges = 0;
        collectRound(res, round, roundRuns, roundNewEdges);

        if (roundNewEdges == 0)
            ++globalDryRounds;
        else
            globalDryRounds = 0;

        // Post-merge is the one durable instant: every worker is at
        // most one round ahead of this state, which is exactly what
        // the replay buffer covers on resume.
        maybeCheckpoint(res);

        emitRound(res, round, roundRuns, roundNewEdges);
    }

    shutdownWorkers();

    res.corpusSize = global.size();
    res.edgesTaken = global.frontier().takenCovered();
    res.edgesCombined = global.frontier().combinedCovered();
    res.frontierDigest = explore::coverageDigest(global.frontier());
    if (pathTracker) {
        res.primePaths = pathTracker->numPaths();
        res.pathCoverSize = pathTracker->coverSize();
        res.pathsCompleted = pathTracker->completedCount();
        res.pathCoverCompleted = pathTracker->coverCompleted();
        res.pathDigest = pathTracker->digest();
    }

    // Corpus digest: FNV over every admitted entry's serialized
    // bytes, in admission order — the second reproducibility witness
    // next to the frontier digest.
    {
        wire::Encoder enc;
        for (const explore::CorpusEntry &entry : global.entries())
            explore::encodeEntry(enc, entry);
        res.corpusDigest = fnvMixBytes(
            fnvMix(kFleetFnvOffset, global.size()), enc.buffer());
    }

    for (const Shard &shard : fleet)
        res.shards.push_back(shard.summary);

    emitDone(res);
    if (opts.status) {
        *opts.status << "[fleet] stopped (" << fleetStopName(res.stop)
                     << "): " << res.runs << " runs over "
                     << res.rounds << " rounds, corpus "
                     << res.corpusSize << ", edges "
                     << res.edgesCombined << "/" << res.totalEdges
                     << ", frontier digest "
                     << fmtHex(res.frontierDigest) << "\n";
    }
    return res;
}

FleetResult
runFleet(const isa::Program &program,
         std::vector<std::vector<int32_t>> seeds, FleetOptions opts)
{
    Coordinator coordinator(program, std::move(seeds),
                            std::move(opts));
    return coordinator.run();
}

} // namespace pe::fleet
