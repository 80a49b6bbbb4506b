/**
 * @file
 * Coverage-guided exploration CLI: grow a test corpus for a workload
 * instead of replaying its static suite.
 *
 *   $ ./examples/explore [workload] [options]
 *       --policy rare|uniform   scheduling policy (default rare)
 *       --path-objective        weight scheduling toward corpus
 *                               entries adjacent to incomplete
 *                               prime-path cover paths (enables the
 *                               per-run edge trace; identity-bearing)
 *       --mode off|standard|cmp engine mode (default standard)
 *       --runs N                total run budget (default 200)
 *       --batch N               mutants per batch (default 8)
 *       --plateau K             stop after K dry batches (default 8)
 *       --jobs N                campaign workers (default PE_JOBS)
 *       --seed S                exploration seed
 *       --jsonl PATH            write the JSONL progress stream
 *                               ("-" = stdout)
 *       --checkpoint PATH       write a resumable checkpoint file
 *       --checkpoint-every K    batches between checkpoints (default 1)
 *       --resume PATH           resume from a checkpoint file
 *       --shards N              distribute over N worker processes
 *       --round-runs N          fleet runs per round (default
 *                               shards * batch)
 *       --listen HOST:PORT      with --shards: wait for N TCP workers
 *                               instead of forking (port 0 = pick)
 *       --connect HOST:PORT     worker mode: dial a --listen
 *                               coordinator and serve one shard
 *                               (requires matching --shards and
 *                               identical exploration flags)
 *       --round-deadline-ms N   coordinator: mark a shard dead when
 *                               its round delta is N ms late
 *                               (default 30000 with --listen, off
 *                               otherwise; 0 = wait forever)
 *       --dial-attempts N       worker: dial/redial retries before
 *                               giving up (default 40; consecutive
 *                               failures back off exponentially)
 *       --fleet-checkpoint PATH coordinator: persist the session
 *                               after every round (atomic rename)
 *       --fleet-resume PATH     coordinator: resume a session from a
 *                               fleet checkpoint (requires --listen;
 *                               the workers redial and continue)
 *       --print-worker-cmd      with --listen + --shards: print the
 *                               worker command line for each shard
 *                               and exit (consumed by
 *                               scripts/fleet-ssh.sh)
 *       --verbose               print a dot per finished run
 *
 * Human-readable status goes to stderr; stdout carries only
 * machine-parseable output (the JSONL stream under `--jsonl -`), so
 * `explore --jsonl - | jq .` just works.
 *
 * SIGINT/SIGTERM raise the cooperative stop flag: the session (or
 * fleet) finishes its current batch/round, writes a final checkpoint
 * (when --checkpoint is set) and exits cleanly.  A second signal
 * kills the process the default way.
 */

#include <algorithm>
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "src/explore/explorer.hh"
#include "src/fleet/coordinator.hh"
#include "src/fleet/transport.hh"
#include "src/fleet/worker.hh"
#include "src/minic/compiler.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"
#include "src/workloads/workload.hh"

using namespace pe;

namespace
{

int
usage(const char *msg)
{
    std::cerr << "explore: " << msg << "\n"
              << "usage: explore [workload] [--policy rare|uniform] "
                 "[--mode off|standard|cmp]\n"
              << "               [--runs N] [--batch N] [--plateau K] "
                 "[--jobs N] [--seed S]\n"
              << "               [--jsonl PATH|-] [--checkpoint PATH] "
                 "[--checkpoint-every K]\n"
              << "               [--resume PATH] [--shards N] "
                 "[--round-runs N]\n"
              << "               [--listen HOST:PORT] "
                 "[--connect HOST:PORT]\n"
              << "               [--round-deadline-ms N] "
                 "[--dial-attempts N]\n"
              << "               [--fleet-checkpoint PATH] "
                 "[--fleet-resume PATH]\n"
              << "               [--print-worker-cmd] [--verbose]\n";
    return 2;
}

std::atomic<bool> stopRequested{false};

extern "C" void
onStopSignal(int)
{
    // First signal: cooperative shutdown at the next batch boundary.
    // Second signal: restore the default disposition so it kills.
    stopRequested.store(true);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = "schedule";
    std::string jsonlPath;
    explore::ExploreOptions opts;
    opts.budget.maxRuns = 200;
    opts.budget.plateauBatches = 8;
    unsigned shards = 1;
    uint64_t roundRuns = 0;
    std::string listenSpec;
    std::string connectSpec;
    int roundDeadlineMs = -1;   // -1 = pick a default per transport
    int dialAttempts = 40;
    std::string fleetCheckpoint;
    std::string fleetResume;
    bool printWorkerCmd = false;
    // The raw --policy/--mode tokens, re-emitted by
    // --print-worker-cmd so the worker command round-trips exactly.
    std::string policyArg = "rare";
    std::string modeArg = "standard";
    bool pathObjective = false;
    bool verbose = false;

    // A malformed or out-of-range number is a usage error.
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> const char * {
                if (i + 1 >= argc)
                    return nullptr;
                return argv[++i];
            };
            if (arg == "--policy") {
                const char *v = next();
                if (!v)
                    return usage("--policy needs a value");
                if (std::string(v) == "uniform")
                    opts.policy = explore::SchedulePolicy::UniformRandom;
                else if (std::string(v) == "rare")
                    opts.policy = explore::SchedulePolicy::RareEdgeWeighted;
                else
                    return usage("unknown policy");
                policyArg = v;
            } else if (arg == "--path-objective") {
                pathObjective = true;
            } else if (arg == "--mode") {
                const char *v = next();
                if (!v)
                    return usage("--mode needs a value");
                std::string m = v;
                if (m == "off")
                    opts.config = core::PeConfig::forMode(core::PeMode::Off);
                else if (m == "standard")
                    opts.config =
                        core::PeConfig::forMode(core::PeMode::Standard);
                else if (m == "cmp")
                    opts.config = core::PeConfig::forMode(core::PeMode::Cmp);
                else
                    return usage("unknown mode");
                modeArg = m;
            } else if (arg == "--runs") {
                const char *v = next();
                if (!v)
                    return usage("--runs needs a value");
                opts.budget.maxRuns = parseUnsigned(arg, v);
            } else if (arg == "--batch") {
                const char *v = next();
                if (!v)
                    return usage("--batch needs a value");
                opts.batchSize = parseUnsigned(arg, v, SIZE_MAX);
            } else if (arg == "--plateau") {
                const char *v = next();
                if (!v)
                    return usage("--plateau needs a value");
                opts.budget.plateauBatches =
                    static_cast<uint32_t>(parseUnsigned(arg, v, UINT32_MAX));
            } else if (arg == "--jobs") {
                const char *v = next();
                if (!v)
                    return usage("--jobs needs a value");
                opts.threads =
                    static_cast<unsigned>(parseUnsigned(arg, v, UINT_MAX));
            } else if (arg == "--seed") {
                const char *v = next();
                if (!v)
                    return usage("--seed needs a value");
                opts.seed = parseUnsigned(arg, v);
            } else if (arg == "--jsonl") {
                const char *v = next();
                if (!v)
                    return usage("--jsonl needs a value");
                jsonlPath = v;
            } else if (arg == "--checkpoint") {
                const char *v = next();
                if (!v)
                    return usage("--checkpoint needs a value");
                opts.checkpointPath = v;
            } else if (arg == "--checkpoint-every") {
                const char *v = next();
                if (!v)
                    return usage("--checkpoint-every needs a value");
                opts.checkpointEvery = parseUnsigned(arg, v);
            } else if (arg == "--resume") {
                const char *v = next();
                if (!v)
                    return usage("--resume needs a value");
                opts.resumeFrom = v;
            } else if (arg == "--shards") {
                const char *v = next();
                if (!v)
                    return usage("--shards needs a value");
                shards =
                    static_cast<unsigned>(parseUnsigned(arg, v, UINT_MAX));
                if (shards < 1)
                    return usage("--shards must be >= 1");
            } else if (arg == "--round-runs") {
                const char *v = next();
                if (!v)
                    return usage("--round-runs needs a value");
                roundRuns = parseUnsigned(arg, v);
            } else if (arg == "--listen") {
                const char *v = next();
                if (!v)
                    return usage("--listen needs HOST:PORT");
                listenSpec = v;
            } else if (arg == "--connect") {
                const char *v = next();
                if (!v)
                    return usage("--connect needs HOST:PORT");
                connectSpec = v;
            } else if (arg == "--round-deadline-ms") {
                const char *v = next();
                if (!v)
                    return usage("--round-deadline-ms needs a value");
                roundDeadlineMs =
                    static_cast<int>(parseUnsigned(arg, v, INT_MAX));
            } else if (arg == "--dial-attempts") {
                const char *v = next();
                if (!v)
                    return usage("--dial-attempts needs a value");
                dialAttempts =
                    static_cast<int>(parseUnsigned(arg, v, INT_MAX));
            } else if (arg == "--fleet-checkpoint") {
                const char *v = next();
                if (!v)
                    return usage("--fleet-checkpoint needs a value");
                fleetCheckpoint = v;
            } else if (arg == "--fleet-resume") {
                const char *v = next();
                if (!v)
                    return usage("--fleet-resume needs a value");
                fleetResume = v;
            } else if (arg == "--print-worker-cmd") {
                printWorkerCmd = true;
            } else if (arg == "--verbose") {
                verbose = true;
            } else if (!arg.empty() && arg[0] == '-') {
                return usage(("unknown option " + arg).c_str());
            } else {
                name = arg;
            }
        }
    } catch (const FatalError &err) {
        return usage(err.what());
    }

    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    auto names = workloads::workloadNames();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
        std::cerr << "explore: unknown workload '" << name
                  << "'; available:";
        for (const auto &n : names)
            std::cerr << " " << n;
        std::cerr << "\n";
        return 2;
    }
    const auto &workload = workloads::getWorkload(name);
    auto program = minic::compile(workload.source, name);
    opts.label = name;
    opts.config.maxNtPathLength = workload.maxNtPathLength;
    // After --mode: forMode() rebuilt the config, and the trace flag
    // must land in the final one (it is part of the config hash).
    if (pathObjective) {
        opts.pathObjective = true;
        opts.config.recordEdgeTrace = true;
    }

    std::ofstream jsonlFile;
    if (jsonlPath == "-") {
        opts.jsonl = &std::cout;
    } else if (!jsonlPath.empty()) {
        jsonlFile.open(jsonlPath);
        if (!jsonlFile) {
            std::cerr << "explore: cannot write " << jsonlPath << "\n";
            return 1;
        }
        opts.jsonl = &jsonlFile;
    }
    if (verbose) {
        opts.onRun = [](const core::RunResult &) {
            std::cerr << "." << std::flush;
        };
    }
    opts.stopFlag = &stopRequested;

    // --- TCP worker mode: dial a coordinator, serve one shard ------
    if (!connectSpec.empty()) {
        if (!listenSpec.empty())
            return usage("--connect and --listen are exclusive");
        if (shards < 2)
            return usage("--connect needs the coordinator's --shards "
                         "value (the fleet width is part of the "
                         "identity handshake)");
        if (!opts.checkpointPath.empty() || !opts.resumeFrom.empty())
            return usage("--checkpoint/--resume do not combine with "
                         "--connect");
        if (!fleetCheckpoint.empty() || !fleetResume.empty())
            return usage("--fleet-checkpoint/--fleet-resume are "
                         "coordinator flags; workers keep no durable "
                         "state");
        fleet::RemoteWorkerOptions ro;
        ro.connect = connectSpec;
        ro.shards = shards;
        ro.base = opts;
        ro.seeds = workload.benignInputs;
        ro.workerThreads = opts.threads;
        ro.dialAttempts = dialAttempts;
        ro.status = &std::cerr;
        try {
            return fleet::remoteWorkerMain(program, ro);
        } catch (const FatalError &err) {
            std::cerr << "explore: " << err.what() << "\n";
            return 1;
        }
    }

    // --- Worker-command printer: the ssh launcher's source of truth -
    if (printWorkerCmd) {
        if (listenSpec.empty() || shards < 2)
            return usage("--print-worker-cmd needs --listen and "
                         "--shards >= 2");
        size_t colon = listenSpec.rfind(':');
        std::string host =
            colon == std::string::npos ? ""
                                       : listenSpec.substr(0, colon);
        std::string port =
            colon == std::string::npos ? ""
                                       : listenSpec.substr(colon + 1);
        if (port.empty() || port == "0")
            return usage("--print-worker-cmd needs an explicit "
                         "--listen port (workers must know where to "
                         "dial)");
        if (host.empty())
            host = "127.0.0.1";
        // One line per shard; Joins are wildcard, so the commands
        // are identical and any worker may take any shard.  Only
        // identity-bearing flags are repeated: workload, policy,
        // mode, batch, and seed all feed the Join handshake.
        for (unsigned s = 0; s < shards; ++s) {
            std::cout << argv[0] << " " << name << " --connect "
                      << host << ":" << port << " --shards " << shards
                      << " --policy " << policyArg << " --mode "
                      << modeArg
                      << (pathObjective ? " --path-objective" : "")
                      << " --batch " << opts.batchSize
                      << " --seed " << opts.seed
                      << " --dial-attempts 400\n";
        }
        return 0;
    }

    // --- Fleet mode: shard the exploration over N processes --------
    if (shards > 1 || !listenSpec.empty()) {
        if (!opts.checkpointPath.empty() || !opts.resumeFrom.empty())
            return usage("--checkpoint/--resume do not combine with "
                         "--shards (checkpointing is per-process; "
                         "use --fleet-checkpoint/--fleet-resume)");
        if (!fleetResume.empty() && listenSpec.empty())
            return usage("--fleet-resume needs --listen: only TCP "
                         "workers outlive the coordinator and can "
                         "redial");
        fleet::FleetOptions fopts;
        fopts.base = opts;
        fopts.shards = shards;
        fopts.roundRuns = roundRuns;
        fopts.plateauRounds = opts.budget.plateauBatches;
        fopts.status = &std::cerr;
        fopts.stopFlag = &stopRequested;
        fopts.checkpointPath = fleetCheckpoint;
        fopts.resumeFrom = fleetResume;
        if (!listenSpec.empty()) {
            try {
                fopts.transport = std::make_shared<fleet::TcpTransport>(
                    listenSpec, &std::cerr);
            } catch (const FatalError &err) {
                std::cerr << "explore: " << err.what() << "\n";
                return 1;
            }
        }
        // TCP workers can vanish without an EOF; a late shard must
        // not park the fleet forever, so the deadline defaults on.
        fopts.roundDeadlineMs =
            roundDeadlineMs >= 0 ? roundDeadlineMs
                                 : (listenSpec.empty() ? 0 : 30000);

        std::cerr << "exploring '" << name << "' ("
                  << program.numBranches() << " branches, "
                  << shards << " shards, policy "
                  << explore::schedulePolicyName(opts.policy)
                  << ", mode " << core::peModeName(opts.config.mode)
                  << ", budget " << opts.budget.maxRuns << " runs)\n";

        fleet::FleetResult result;
        try {
            result = fleet::runFleet(program, workload.benignInputs, fopts);
        } catch (const FatalError &err) {
            std::cerr << "explore: " << err.what() << "\n";
            return 1;
        }

        std::cerr << "\nstopped: " << fleet::fleetStopName(result.stop)
                  << " after " << result.runs << " runs / "
                  << result.rounds << " rounds\n"
                  << "corpus:  " << result.corpusSize
                  << " inputs (merged across shards)\n"
                  << "coverage: " << result.edgesCombined << "/"
                  << result.totalEdges << " edges with NT-Paths\n"
                  << "fleet:   " << result.lostWorkers
                  << " lost worker(s), " << result.reconnects
                  << " reconnect(s), " << result.stolenRuns
                  << " stolen runs\n"
                  << "plan:     " << fmtHex(result.planDigest)
                  << "\nfrontier: " << fmtHex(result.frontierDigest)
                  << "\ncorpus:   " << fmtHex(result.corpusDigest)
                  << "\n";
        return 0;
    }

    if (!fleetCheckpoint.empty() || !fleetResume.empty())
        return usage("--fleet-checkpoint/--fleet-resume need fleet "
                     "mode (--shards >= 2 or --listen)");

    std::cerr << "exploring '" << name << "' ("
              << program.numBranches() << " branches, policy "
              << explore::schedulePolicyName(opts.policy) << ", mode "
              << core::peModeName(opts.config.mode) << ", budget "
              << opts.budget.maxRuns << " runs)\n";

    explore::Explorer explorer(program, workload.benignInputs, opts);
    explore::ExploreResult result;
    try {
        result = explorer.run();
    } catch (const FatalError &err) {
        std::cerr << "explore: " << err.what() << "\n";
        return 1;
    }
    if (verbose)
        std::cerr << "\n";

    for (const auto &b : result.history) {
        std::cerr << "batch " << padLeft(std::to_string(b.batch), 3)
                  << ": runs " << padLeft(std::to_string(b.totalRuns), 5)
                  << "  corpus " << padLeft(std::to_string(b.corpusSize), 4)
                  << "  edges "
                  << padLeft(std::to_string(b.combinedEdges), 5) << "/"
                  << explorer.corpus().frontier().totalEdges()
                  << (b.newEdges ? "  (+" + std::to_string(b.newEdges) + ")"
                                 : "")
                  << "\n";
    }

    const auto &frontier = explorer.corpus().frontier();
    std::cerr << "\nstopped: " << explore::exploreStopName(result.stop)
              << " after " << result.runs << " runs / "
              << result.batches << " batches\n"
              << "corpus:  " << explorer.corpus().size()
              << " inputs (admitted by coverage delta)\n"
              << "coverage: " << fmtPercent(frontier.takenFraction())
              << " taken, " << fmtPercent(frontier.combinedFraction())
              << " with NT-Paths (" << frontier.combinedCovered()
              << "/" << frontier.totalEdges() << " edges)\n"
              << "NT-Paths: " << result.ntSpawned << " spawned over "
              << result.instructions << " simulated instructions\n";
    return 0;
}
