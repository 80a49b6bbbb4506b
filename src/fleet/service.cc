/**
 * @file
 * Fleet service implementation.
 */

#include "src/fleet/service.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "src/minic/compiler.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"
#include "src/workloads/workload.hh"

namespace pe::fleet
{

namespace fs = std::filesystem;

namespace
{

/** JSON string escaping for the few places a job name leaks in. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
    return out;
}

void
emitJobResult(std::ostream &out, const JobSpec &job,
              const FleetResult &res, uint64_t wallMs)
{
    out << "{\"event\":\"job\",\"job\":\"" << jsonEscape(job.name)
        << "\",\"workload\":\"" << jsonEscape(job.workload)
        << "\",\"shards\":" << job.shards
        << ",\"seed\":" << job.seed
        << ",\"stop\":\"" << fleetStopName(res.stop)
        << "\",\"rounds\":" << res.rounds
        << ",\"runs\":" << res.runs
        << ",\"corpus\":" << res.corpusSize
        << ",\"edges_combined\":" << res.edgesCombined
        << ",\"total_edges\":" << res.totalEdges
        << ",\"lost_workers\":" << res.lostWorkers
        << ",\"stolen_runs\":" << res.stolenRuns
        << ",\"plan_digest\":\"" << fmtHex(res.planDigest)
        << "\",\"frontier_digest\":\"" << fmtHex(res.frontierDigest)
        << "\",\"corpus_digest\":\"" << fmtHex(res.corpusDigest)
        << "\",\"wall_ms\":" << wallMs << "}\n";
    out.flush();
}

void
emitJobError(std::ostream &out, const std::string &name,
             const std::string &error)
{
    out << "{\"event\":\"job_error\",\"job\":\"" << jsonEscape(name)
        << "\",\"error\":\"" << jsonEscape(error) << "\"}\n";
    out.flush();
}

/** Run one parsed job; throws FatalError on bad specs. */
void
runJob(const JobSpec &job, const ServiceOptions &svc)
{
    auto names = workloads::workloadNames();
    if (std::find(names.begin(), names.end(), job.workload) ==
        names.end())
        pe_fatal("unknown workload '", job.workload, "'");
    const auto &workload = workloads::getWorkload(job.workload);
    auto program = minic::compile(workload.source, job.workload);

    FleetOptions opts;
    opts.base.budget.maxRuns = job.runs;
    opts.base.batchSize = job.batch;
    opts.base.seed = job.seed;
    opts.base.label = job.workload;
    if (job.policy == "uniform")
        opts.base.policy = explore::SchedulePolicy::UniformRandom;
    else if (job.policy != "rare")
        pe_fatal("unknown policy '", job.policy, "'");
    if (job.mode == "off")
        opts.base.config = core::PeConfig::forMode(core::PeMode::Off);
    else if (job.mode == "cmp")
        opts.base.config = core::PeConfig::forMode(core::PeMode::Cmp);
    else if (job.mode != "standard")
        pe_fatal("unknown mode '", job.mode, "'");
    opts.base.config.maxNtPathLength = workload.maxNtPathLength;
    opts.shards = job.shards;
    opts.roundRuns = job.roundRuns;
    opts.plateauRounds = job.plateau;
    opts.workerThreads = svc.workerThreads;
    opts.status = svc.status;
    opts.stopFlag = svc.stopFlag;

    auto begin = std::chrono::steady_clock::now();
    FleetResult res =
        runFleet(program, workload.benignInputs, std::move(opts));
    auto wallMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - begin)
                      .count();
    emitJobResult(*svc.out, job, res,
                  static_cast<uint64_t>(wallMs));
}

/** Consume a job: run, report, never throw out of the loop. */
bool
processJob(const std::string &name, const std::string &text,
           const ServiceOptions &svc)
{
    try {
        JobSpec job = parseJobSpec(name, text);
        if (svc.status)
            *svc.status << "[serve] job " << name << ": workload "
                        << job.workload << ", " << job.shards
                        << " shards, " << job.runs << " runs\n";
        runJob(job, svc);
        return true;
    } catch (const FatalError &err) {
        if (svc.status)
            *svc.status << "[serve] job " << name << " failed: "
                        << err.what() << "\n";
        emitJobError(*svc.out, name, err.what());
        return false;
    }
}

std::vector<fs::path>
spooledJobs(const std::string &dir)
{
    std::vector<fs::path> jobs;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec) &&
            entry.path().extension() == ".job")
            jobs.push_back(entry.path());
    }
    // Name order is the queue order: spoolers control priority by
    // naming (e.g. zero-padded sequence numbers).
    std::sort(jobs.begin(), jobs.end());
    return jobs;
}

uint64_t
serveSpool(const ServiceOptions &opts)
{
    uint64_t processed = 0;
    auto stopped = [&] {
        return opts.stopFlag &&
               opts.stopFlag->load(std::memory_order_relaxed);
    };
    for (;;) {
        std::vector<fs::path> jobs = spooledJobs(opts.spoolDir);
        for (const fs::path &path : jobs) {
            if (stopped())
                return processed;
            std::ifstream in(path);
            std::stringstream text;
            text << in.rdbuf();
            bool ok =
                processJob(path.stem().string(), text.str(), opts);
            std::error_code ec;
            fs::rename(path,
                       fs::path(path).replace_extension(
                           ok ? ".done" : ".failed"),
                       ec);
            if (ec)
                fs::remove(path, ec);
            ++processed;
        }
        if (opts.drainOnce || stopped())
            return processed;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.pollMs));
    }
}

uint64_t
serveStdin(const ServiceOptions &opts)
{
    uint64_t processed = 0;
    std::string line;
    uint64_t lineNo = 0;
    while (std::getline(std::cin, line)) {
        ++lineNo;
        if (opts.stopFlag &&
            opts.stopFlag->load(std::memory_order_relaxed))
            break;
        std::string trimmed = trim(line);
        if (trimmed.empty() || trimmed[0] == '#')
            continue;
        processJob("stdin:" + std::to_string(lineNo), trimmed, opts);
        ++processed;
    }
    return processed;
}

} // namespace

JobSpec
parseJobSpec(const std::string &name, const std::string &text)
{
    JobSpec job;
    job.name = name;
    bool sawWorkload = false;

    std::istringstream in(text);
    std::string token;
    while (in >> token) {
        if (token[0] == '#') {
            // Comment: drop the rest of the line.
            std::string rest;
            std::getline(in, rest);
            continue;
        }
        size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0)
            pe_fatal("job spec token '", token,
                     "' is not key=value");
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        const std::string what = "job key '" + key + "'";
        if (key == "workload") {
            job.workload = value;
            sawWorkload = true;
        } else if (key == "runs") {
            job.runs = parseUnsigned(what, value);
        } else if (key == "shards") {
            job.shards = static_cast<uint32_t>(
                parseUnsigned(what, value, UINT32_MAX));
            if (job.shards < 1)
                pe_fatal("job key 'shards': must be >= 1");
        } else if (key == "seed") {
            job.seed = parseUnsigned(what, value);
        } else if (key == "batch") {
            job.batch = parseUnsigned(what, value);
            if (job.batch < 1)
                pe_fatal("job key 'batch': must be >= 1");
        } else if (key == "rounds") {
            job.roundRuns = parseUnsigned(what, value);
        } else if (key == "plateau") {
            job.plateau = static_cast<uint32_t>(
                parseUnsigned(what, value, UINT32_MAX));
        } else if (key == "policy") {
            job.policy = value;
        } else if (key == "mode") {
            job.mode = value;
        } else {
            pe_fatal("job spec has unknown key '", key, "'");
        }
    }
    if (!sawWorkload)
        pe_fatal("job spec is missing workload=<name>");
    return job;
}

uint64_t
runService(const ServiceOptions &opts)
{
    pe_assert(opts.out != nullptr, "service needs a result stream");
    if (opts.status)
        *opts.status << "[serve] fleet service up, jobs from "
                     << (opts.spoolDir.empty()
                             ? std::string("stdin")
                             : opts.spoolDir)
                     << "\n";
    uint64_t processed = opts.spoolDir.empty() ? serveStdin(opts)
                                               : serveSpool(opts);

    // Terminal record: consumers tailing the result stream learn the
    // service exited deliberately (and why) instead of having to
    // infer it from silence.  An in-flight job always finishes first
    // — the stop flag is only checked between jobs — so its result
    // (and spool marker rename) precedes this line.
    const char *reason =
        opts.stopFlag &&
                opts.stopFlag->load(std::memory_order_relaxed)
            ? "signal"
            : (opts.spoolDir.empty() ? "eof" : "drained");
    *opts.out << "{\"event\":\"stopped\",\"jobs\":" << processed
              << ",\"reason\":\"" << reason << "\"}\n";
    opts.out->flush();

    if (opts.status)
        *opts.status << "[serve] fleet service down (" << reason
                     << "), " << processed
                     << " job(s) processed\n";
    return processed;
}

} // namespace pe::fleet
