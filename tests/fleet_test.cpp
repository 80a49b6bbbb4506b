/**
 * @file
 * Fleet tests: deterministic sharding, bit-reproducible merges,
 * worker-loss tolerance, TCP transports and durable sessions.
 *
 * The fleet's contract mirrors the single-process explorer's: same
 * options, same result — except "result" is now a merged frontier
 * and corpus assembled from N worker processes over IPC.  The tests
 * pin the shard plan (a pure function of config hash + seed), the
 * reproducibility witnesses (frontier/corpus digests across repeated
 * runs), the chaos story (kill one worker mid-round via an armed
 * fault plan; the fleet converges and reports the loss), and the
 * coordinator kill-and-resume round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <thread>

#include <unistd.h>

#include "src/fleet/checkpoint.hh"
#include "src/fleet/coordinator.hh"
#include "src/fleet/transport.hh"
#include "src/fleet/worker.hh"
#include "src/minic/compiler.hh"
#include "src/support/faultinject.hh"
#include "src/support/status.hh"
#include "src/support/subprocess.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;
namespace fs = std::filesystem;

const workloads::Workload &
scheduleWorkload()
{
    return workloads::getWorkload("schedule");
}

const isa::Program &
scheduleProgram()
{
    static const isa::Program program =
        minic::compile(scheduleWorkload().source, "schedule");
    return program;
}

fleet::FleetOptions
fleetOptions(unsigned shards, uint64_t maxRuns, uint64_t seed)
{
    fleet::FleetOptions opts;
    // PE off keeps each monitored run cheap; the fleet machinery
    // under test is identical in every mode.
    opts.base.config = core::PeConfig::forMode(core::PeMode::Off);
    opts.base.budget.maxRuns = maxRuns;
    opts.base.batchSize = 8;
    opts.base.seed = seed;
    opts.base.label = "schedule";
    opts.shards = shards;
    opts.workerThreads = 1;
    return opts;
}

TEST(ShardPlan, IsAPureFunctionOfItsInputs)
{
    auto a = fleet::makeShardPlan(0xc0de, 0x5eed, 4, 10);
    auto b = fleet::makeShardPlan(0xc0de, 0x5eed, 4, 10);
    EXPECT_EQ(a.planDigest, b.planDigest);
    ASSERT_EQ(a.specs.size(), b.specs.size());
    for (size_t i = 0; i < a.specs.size(); ++i) {
        EXPECT_EQ(a.specs[i].shardSeed, b.specs[i].shardSeed);
        EXPECT_EQ(a.specs[i].seedIndices, b.specs[i].seedIndices);
    }

    // Any identity knob moving re-plans the fleet.
    EXPECT_NE(fleet::makeShardPlan(0xc0de, 0x5eed, 4, 10).planDigest,
              fleet::makeShardPlan(0xc0df, 0x5eed, 4, 10).planDigest);
    EXPECT_NE(fleet::makeShardPlan(0xc0de, 0x5eed, 4, 10).planDigest,
              fleet::makeShardPlan(0xc0de, 0x5eee, 4, 10).planDigest);
    EXPECT_NE(fleet::makeShardPlan(0xc0de, 0x5eed, 4, 10).planDigest,
              fleet::makeShardPlan(0xc0de, 0x5eed, 3, 10).planDigest);
}

TEST(ShardPlan, DealsSeedsRoundRobinAndWrapsSmallSeedSets)
{
    auto plan = fleet::makeShardPlan(1, 2, 3, 8);
    // 8 seeds over 3 shards: 0,3,6 / 1,4,7 / 2,5.
    EXPECT_EQ(plan.specs[0].seedIndices,
              (std::vector<uint32_t>{0, 3, 6}));
    EXPECT_EQ(plan.specs[1].seedIndices,
              (std::vector<uint32_t>{1, 4, 7}));
    EXPECT_EQ(plan.specs[2].seedIndices,
              (std::vector<uint32_t>{2, 5}));

    // Fewer seeds than shards: every shard still starts with one.
    auto small = fleet::makeShardPlan(1, 2, 4, 2);
    for (const auto &spec : small.specs)
        EXPECT_FALSE(spec.seedIndices.empty());
    EXPECT_EQ(small.specs[2].seedIndices,
              (std::vector<uint32_t>{0}));
    EXPECT_EQ(small.specs[3].seedIndices,
              (std::vector<uint32_t>{1}));

    // Distinct shard seeds, so wrapped shards still diverge.
    EXPECT_NE(small.specs[2].shardSeed, small.specs[0].shardSeed);
}

TEST(Fleet, MergedDigestsAreBitReproducible)
{
    auto runOnce = [&] {
        return fleet::runFleet(scheduleProgram(),
                               scheduleWorkload().benignInputs,
                               fleetOptions(3, 120, 0x42));
    };
    fleet::FleetResult first = runOnce();
    fleet::FleetResult second = runOnce();

    EXPECT_EQ(first.planDigest, second.planDigest);
    EXPECT_EQ(first.frontierDigest, second.frontierDigest);
    EXPECT_EQ(first.corpusDigest, second.corpusDigest);
    EXPECT_EQ(first.runs, second.runs);
    EXPECT_EQ(first.rounds, second.rounds);
    EXPECT_EQ(first.corpusSize, second.corpusSize);
    EXPECT_EQ(first.edgesCombined, second.edgesCombined);

    // And the fleet actually explored: corpus beyond the seeds'
    // admissions, a real share of the edge universe covered.
    EXPECT_EQ(first.runs, 120u);
    EXPECT_GT(first.corpusSize, 0u);
    EXPECT_GT(first.edgesCombined, first.totalEdges / 2);
    EXPECT_EQ(first.lostWorkers, 0u);
}

TEST(Fleet, DifferentSeedsDiverge)
{
    fleet::FleetResult a =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs,
                        fleetOptions(2, 80, 0x42));
    fleet::FleetResult b =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs,
                        fleetOptions(2, 80, 0x43));
    EXPECT_NE(a.planDigest, b.planDigest);
    // The corpora virtually never coincide; digests catch it if the
    // seed failed to propagate into the workers.
    EXPECT_NE(a.corpusDigest, b.corpusDigest);
}

TEST(Fleet, SurvivesAWorkerKilledMidRound)
{
    // Shard 1's second round throws inside the forked worker; the
    // exception escapes workerMain, the child exits nonzero, and the
    // coordinator sees a dead pipe mid-round.  The fault site name
    // carries the shard id, so exactly one worker dies.
    fault::FaultPlan plan;
    plan.site = "fleet.worker_round.1";
    plan.hit = 2;
    plan.message = "injected worker death";
    fault::ScopedFaultPlan armed(plan);

    fleet::FleetResult res =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs,
                        fleetOptions(3, 120, 0x42));

    EXPECT_EQ(res.lostWorkers, 1u);
    ASSERT_EQ(res.shards.size(), 3u);
    EXPECT_FALSE(res.shards[1].alive);
    EXPECT_TRUE(res.shards[0].alive);
    EXPECT_TRUE(res.shards[2].alive);

    // The fleet still converged on the survivors.
    EXPECT_EQ(res.stop, fleet::FleetStop::RunBudget);
    EXPECT_EQ(res.runs, 120u);
    EXPECT_GT(res.edgesCombined, res.totalEdges / 2);
}

TEST(Fleet, SingleShardMatchesItsOwnRerun)
{
    // Degenerate fleet: one worker.  Still reproducible, still
    // terminates on the budget.
    fleet::FleetResult a =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs,
                        fleetOptions(1, 60, 0x99));
    fleet::FleetResult b =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs,
                        fleetOptions(1, 60, 0x99));
    EXPECT_EQ(a.frontierDigest, b.frontierDigest);
    EXPECT_EQ(a.corpusDigest, b.corpusDigest);
    EXPECT_GE(a.runs, 60u);
}

TEST(Fleet, PlateauStopsBeforeTheRunBudget)
{
    fleet::FleetOptions opts = fleetOptions(2, 100000, 0x42);
    opts.plateauRounds = 4;
    fleet::FleetResult res =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, opts);
    EXPECT_EQ(res.stop, fleet::FleetStop::Plateau);
    EXPECT_LT(res.runs, 100000u);
}

// --- Round deadline and bounded shutdown ----------------------------

TEST(Fleet, RoundDeadlineTurnsAStallIntoALostWorkerNotAHang)
{
    // Shard 1 stalls 2 s inside its second round.  The 400 ms round
    // deadline marks it dead instead of waiting the stall out: the
    // survivors' deltas (which arrived long before the deadline)
    // still merge, the dead shard's budget flows on, and the fleet
    // spends the full run budget.
    fault::FaultPlan plan;
    plan.site = "fleet.worker_round.1";
    plan.hit = 2;
    plan.kind = fault::FaultKind::Stall;
    plan.stallMs = 2000;
    fault::ScopedFaultPlan armed(plan);

    fleet::FleetOptions opts = fleetOptions(3, 120, 0x42);
    opts.roundDeadlineMs = 400;
    fleet::FleetResult res =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, opts);

    EXPECT_EQ(res.lostWorkers, 1u);
    ASSERT_EQ(res.shards.size(), 3u);
    EXPECT_FALSE(res.shards[1].alive);
    EXPECT_TRUE(res.shards[0].alive);
    EXPECT_TRUE(res.shards[2].alive);
    EXPECT_EQ(res.stop, fleet::FleetStop::RunBudget);
    EXPECT_EQ(res.runs, 120u);
}

TEST(Fleet, ShutdownIsBoundedWhenAWorkerSitsOnItsGoodbye)
{
    // Shard 0 stalls 10 s between receiving Stop and answering with
    // Goodbye.  The goodbye timeout gives up on the frame and the
    // reap timeout escalates to SIGKILL, so the whole run returns
    // long before the stall would have ended on its own.
    fault::FaultPlan plan;
    plan.site = "fleet.worker_stop.0";
    plan.kind = fault::FaultKind::Stall;
    plan.stallMs = 10000;
    fault::ScopedFaultPlan armed(plan);

    fleet::FleetOptions opts = fleetOptions(2, 48, 0x42);
    opts.goodbyeTimeoutMs = 200;
    opts.reapTimeoutMs = 200;

    auto start = std::chrono::steady_clock::now();
    fleet::FleetResult res =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, opts);
    auto elapsedMs = std::chrono::duration_cast<
                         std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    // The rounds themselves completed normally before the stall
    // (round-remainder allocation may overshoot the budget slightly).
    EXPECT_EQ(res.stop, fleet::FleetStop::RunBudget);
    EXPECT_GE(res.runs, 48u);
    EXPECT_EQ(res.lostWorkers, 0u);
    EXPECT_LT(elapsedMs, 8000)
        << "shutdown must not wait out a wedged worker";
}

TEST(FleetBackoff, RedialDelayIsDeterministicBoundedAndGrows)
{
    // The redial schedule is a pure function: a crashed-and-restarted
    // worker reproduces its own backoff, and distinct shards (distinct
    // seed words) jitter apart instead of thundering in lockstep.
    const uint64_t seed = 0xfeedface;
    for (uint64_t attempt = 0; attempt < 12; ++attempt) {
        int a = fleet::dialBackoffMs(seed, attempt, 100, 5000);
        EXPECT_EQ(a, fleet::dialBackoffMs(seed, attempt, 100, 5000));

        // Exponential envelope: jitter shaves at most half the raw
        // doubling curve, so delay stays in [raw/2, raw].
        int raw = static_cast<int>(std::min<uint64_t>(
            5000, 100ull << std::min<uint64_t>(attempt, 20)));
        EXPECT_GE(a, std::max(1, raw / 2)) << "attempt " << attempt;
        EXPECT_LE(a, raw) << "attempt " << attempt;
    }

    // Saturation: arbitrarily late attempts sit in [max/2, max] with
    // no overflow.
    int late = fleet::dialBackoffMs(seed, 4000, 100, 5000);
    EXPECT_GE(late, 2500);
    EXPECT_LE(late, 5000);

    // Degenerate parameters still yield a sane (>= 1 ms) delay.
    EXPECT_GE(fleet::dialBackoffMs(seed, 0, 0, 0), 1);

    // Different seed words de-synchronize somewhere in the schedule.
    bool differs = false;
    for (uint64_t attempt = 0; attempt < 8 && !differs; ++attempt)
        differs = fleet::dialBackoffMs(1, attempt, 100, 5000) !=
                  fleet::dialBackoffMs(2, attempt, 100, 5000);
    EXPECT_TRUE(differs);
}

// --- TCP transport: loopback fleets ---------------------------------

/**
 * Run a TCP fleet on loopback: bind an ephemeral port, fork
 * opts.shards dialing workers (each runs remoteWorkerMain exactly as
 * `explore --connect` would, deriving its own plan and options), and
 * drive the coordinator over the accepted sockets.  @p workerPlans
 * are armed inside the children only; the shard id baked into a
 * fault-site name selects which worker misbehaves.
 */
fleet::FleetResult
runTcpFleet(fleet::FleetOptions opts,
            const std::vector<fault::FaultPlan> &workerPlans = {})
{
    auto transport =
        std::make_shared<fleet::TcpTransport>("127.0.0.1:0");
    const std::string addr =
        "127.0.0.1:" + std::to_string(transport->port());
    opts.transport = transport;
    if (opts.roundDeadlineMs == 0)
        opts.roundDeadlineMs = 30000;   // hang guard, not the test

    std::vector<proc::ChildProcess> workers;
    for (unsigned i = 0; i < opts.shards; ++i) {
        workers.push_back(proc::spawnChild([&](int pairFd) {
            // The socketpair is not the channel here: dial instead.
            close(pairFd);
            fault::armPlans(workerPlans);
            fleet::RemoteWorkerOptions ro;
            ro.connect = addr;
            ro.shards = opts.shards;
            ro.base = opts.base;
            ro.seeds = scheduleWorkload().benignInputs;
            ro.workerThreads = opts.workerThreads;
            ro.redialDelayMs = 25;  // keep reconnects brisk in tests
            return fleet::remoteWorkerMain(scheduleProgram(), ro);
        }));
    }

    fleet::FleetResult res =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, opts);
    for (auto &worker : workers)
        EXPECT_EQ(worker.wait(), 0) << "worker exit status";
    return res;
}

TEST(FleetTcp, LoopbackDigestsMatchTheForkFleet)
{
    // The whole point of the transport abstraction: same options,
    // same bytes, whether the workers are forked children over
    // socketpairs or remote processes over TCP.
    fleet::FleetOptions opts = fleetOptions(3, 120, 0x42);
    fleet::FleetResult forked =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, opts);
    fleet::FleetResult tcp = runTcpFleet(opts);

    EXPECT_EQ(tcp.planDigest, forked.planDigest);
    EXPECT_EQ(tcp.frontierDigest, forked.frontierDigest);
    EXPECT_EQ(tcp.corpusDigest, forked.corpusDigest);
    EXPECT_EQ(tcp.runs, forked.runs);
    EXPECT_EQ(tcp.rounds, forked.rounds);
    EXPECT_EQ(tcp.corpusSize, forked.corpusSize);
    EXPECT_EQ(tcp.edgesCombined, forked.edgesCombined);
    EXPECT_EQ(tcp.lostWorkers, 0u);
    EXPECT_EQ(tcp.reconnects, 0u);
}

TEST(FleetTcp, PathTrackerDigestsMatchAcrossTransports)
{
    // With the prime-path tracker on, the merged completion words are
    // part of the reproducibility contract too: fork and TCP fleets
    // must land on the same path digest, and the workers' folded
    // completions must actually reach the coordinator.
    fleet::FleetOptions opts = fleetOptions(3, 120, 0x42);
    opts.base.config.recordEdgeTrace = true;
    opts.base.pathObjective = true;
    fleet::FleetResult forked =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, opts);
    fleet::FleetResult tcp = runTcpFleet(opts);

    EXPECT_GT(forked.primePaths, 0u);
    EXPECT_GT(forked.pathCoverSize, 0u);
    EXPECT_GT(forked.pathsCompleted, 0u);
    EXPECT_EQ(tcp.primePaths, forked.primePaths);
    EXPECT_EQ(tcp.pathCoverSize, forked.pathCoverSize);
    EXPECT_EQ(tcp.pathsCompleted, forked.pathsCompleted);
    EXPECT_EQ(tcp.pathCoverCompleted, forked.pathCoverCompleted);
    EXPECT_EQ(tcp.pathDigest, forked.pathDigest);
    EXPECT_EQ(tcp.frontierDigest, forked.frontierDigest);
    EXPECT_EQ(tcp.corpusDigest, forked.corpusDigest);
    EXPECT_EQ(tcp.lostWorkers, 0u);
}

TEST(FleetTcp, DroppedConnectionsResumeWithoutPerturbingDigests)
{
    fleet::FleetOptions opts = fleetOptions(3, 120, 0x42);
    fleet::FleetResult forked =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, opts);

    // Shard 0 loses its socket right *after* executing round 2: on
    // rejoin the coordinator replays the RoundStart and the worker
    // must answer from its stored delta without re-executing (a
    // re-execution would fork the RNG universe and the digests would
    // catch it).  Shard 1 loses its socket *before* executing round
    // 3: the replayed RoundStart is executed for the first time.
    fault::FaultPlan post;
    post.site = "fleet.remote_drop_post.0";
    post.hit = 2;
    fault::FaultPlan pre;
    pre.site = "fleet.remote_drop_pre.1";
    pre.hit = 3;
    fleet::FleetResult tcp = runTcpFleet(opts, {post, pre});

    EXPECT_EQ(tcp.reconnects, 2u);
    EXPECT_EQ(tcp.lostWorkers, 0u);
    EXPECT_EQ(tcp.frontierDigest, forked.frontierDigest);
    EXPECT_EQ(tcp.corpusDigest, forked.corpusDigest);
    EXPECT_EQ(tcp.runs, forked.runs);
    EXPECT_EQ(tcp.rounds, forked.rounds);
    EXPECT_EQ(tcp.corpusSize, forked.corpusSize);
}

// --- Durable sessions: kill -9 the coordinator, resume --------------

TEST(FleetTcp, CoordinatorKillNineThenResumeIsByteIdentical)
{
    // The durable-session contract end to end: a coordinator with
    // --fleet-checkpoint is SIGKILLed mid-session (no flush, no
    // goodbye — exactly what a crashed host looks like), a fresh
    // coordinator resumes from the checkpoint on the same address,
    // the TCP workers redial through the ordinary reconnect path, and
    // the merged digests come out byte-identical to a run that was
    // never interrupted.
    fleet::FleetOptions opts = fleetOptions(3, 240, 0x42);
    fleet::FleetResult baseline =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, opts);

    fs::path ckpt =
        fs::path(testing::TempDir()) / "fleet_kill9.ckpt";
    fs::remove(ckpt);

    // Pre-pick a port: bind an ephemeral one, note it, release it, so
    // both the doomed coordinator and its replacement can claim the
    // same address the workers know.
    uint16_t port = 0;
    {
        fleet::TcpTransport probe("127.0.0.1:0");
        port = probe.port();
    }
    const std::string addr = "127.0.0.1:" + std::to_string(port);

    proc::ChildProcess coord = proc::spawnChild([&](int pairFd) {
        close(pairFd);
        fleet::FleetOptions co = opts;
        co.transport = std::make_shared<fleet::TcpTransport>(addr);
        co.roundDeadlineMs = 30000;
        co.checkpointPath = ckpt.string();
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, co);
        return 0;
    });

    std::vector<proc::ChildProcess> workers;
    for (unsigned i = 0; i < opts.shards; ++i) {
        workers.push_back(proc::spawnChild([&](int pairFd) {
            close(pairFd);
            fleet::RemoteWorkerOptions ro;
            ro.connect = addr;
            ro.shards = opts.shards;
            ro.base = opts.base;
            ro.seeds = scheduleWorkload().benignInputs;
            ro.workerThreads = opts.workerThreads;
            ro.dialAttempts = 2000;  // outlive the coordinator gap
            ro.redialDelayMs = 10;
            ro.redialMaxMs = 100;
            return fleet::remoteWorkerMain(scheduleProgram(), ro);
        }));
    }

    // Wait for durable progress (a checkpoint covering >= 2 merged
    // rounds), then kill -9: mid-session, zero warning.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "coordinator made no durable progress";
        try {
            fleet::FleetCheckpoint c = fleet::loadFleetCheckpoint(
                ckpt.string(), scheduleProgram());
            if (c.rounds >= 2)
                break;
        } catch (const FatalError &) {
            // Not written yet; atomic rename means never partial.
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    coord.kill(SIGKILL);
    EXPECT_EQ(coord.wait(), -SIGKILL);

    // Resume on the same address.  The workers' bare-EOF redial loop
    // finds the new listener; identity validation accepts the
    // checkpoint; the session continues where round R left off.
    fleet::FleetOptions resumeOpts = opts;
    resumeOpts.transport =
        std::make_shared<fleet::TcpTransport>(addr);
    resumeOpts.roundDeadlineMs = 30000;
    resumeOpts.checkpointPath = ckpt.string();
    resumeOpts.resumeFrom = ckpt.string();
    fleet::FleetResult resumed =
        fleet::runFleet(scheduleProgram(),
                        scheduleWorkload().benignInputs, resumeOpts);

    for (auto &worker : workers)
        EXPECT_EQ(worker.wait(), 0) << "worker exit status";

    EXPECT_EQ(resumed.planDigest, baseline.planDigest);
    EXPECT_EQ(resumed.frontierDigest, baseline.frontierDigest);
    EXPECT_EQ(resumed.corpusDigest, baseline.corpusDigest);
    EXPECT_EQ(resumed.runs, baseline.runs);
    EXPECT_EQ(resumed.rounds, baseline.rounds);
    EXPECT_EQ(resumed.corpusSize, baseline.corpusSize);
    EXPECT_EQ(resumed.edgesCombined, baseline.edgesCombined);
    EXPECT_EQ(resumed.lostWorkers, 0u);
    // All shards came back through the reconnect path.
    EXPECT_GE(resumed.reconnects, opts.shards);

    fs::remove(ckpt);
}

} // namespace
