/**
 * @file
 * One side of the paired probe: campaign_spec's arms and inputs run
 * against one library build.  Compiled once per build with
 * `-Dpe=<namespace>`; see probe.hh.
 *
 * The arms are perfbench's campaign_spec arms (Off, Off on the CMP
 * timing, Standard with selfPrune, Cmp) and the inputs are drawn as
 * its first repetition draws them: a partial Fisher-Yates shuffle of
 * each app's benign inputs, seeded by Rng(seed).fork(0).next64().
 */

#include <ctime>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "probe.hh"
#include "src/core/engine.hh"
#include "src/minic/compiler.hh"
#include "src/support/fnv.hh"
#include "src/support/rng.hh"
#include "src/support/status.hh"
#include "src/workloads/workload.hh"

namespace pe::paired_probe
{

namespace
{

const char *const kApps[] = {"pe_go", "pe_vpr", "pe_gzip"};

struct App
{
    const workloads::Workload *workload = nullptr;
    isa::Program program;
    std::vector<core::PeConfig> configs;
    std::vector<std::unique_ptr<core::PathExpanderEngine>> engines;
};

struct Job
{
    size_t app;
    size_t input;
    unsigned arm;
    std::string name;
};

std::vector<App> apps;
std::vector<Job> jobs;

std::vector<core::PeConfig>
armConfigs(const workloads::Workload &w)
{
    std::vector<core::PeConfig> c(probe::kNumArms);
    c[0] = core::PeConfig::forMode(core::PeMode::Off);
    c[0].maxNtPathLength = w.maxNtPathLength;
    c[1] = c[0];
    c[1].timing = sim::TimingConfig::cmpConfig();
    c[2] = core::PeConfig::forMode(core::PeMode::Standard);
    c[2].maxNtPathLength = w.maxNtPathLength;
    // As campaign_spec sets it: the flag is retired and does nothing
    // now, but a base built before its retirement runs promotion's
    // bookkeeping under it, as the benchmark did.
    c[2].selfPrune = true;
    c[3] = core::PeConfig::forMode(core::PeMode::Cmp);
    c[3].maxNtPathLength = w.maxNtPathLength;
    return c;
}

void
setup(uint64_t seed, size_t inputsPerApp)
{
    setQuiet(true);
    apps.reserve(std::size(kApps));     // engines keep program references
    for (const char *name : kApps) {
        App &app = apps.emplace_back();
        app.workload = &workloads::getWorkload(name);
        app.program = minic::compile(app.workload->source, name);
        app.configs = armConfigs(*app.workload);
        for (const core::PeConfig &cfg : app.configs) {
            app.engines.push_back(std::make_unique<core::PathExpanderEngine>(
                app.program, cfg));
        }
    }
    Rng rng(Rng(seed).fork(0).next64());
    for (size_t a = 0; a < apps.size(); ++a) {
        const size_t n = apps[a].workload->benignInputs.size();
        std::vector<size_t> idx(n);
        std::iota(idx.begin(), idx.end(), 0);
        for (size_t k = 0; k < inputsPerApp && k < n; ++k) {
            std::swap(idx[k], idx[k + rng.nextBelow(n - k)]);
            for (unsigned arm = 0; arm < probe::kNumArms; ++arm) {
                jobs.push_back({a, idx[k], arm,
                                std::string(kApps[a]) + " input " +
                                    std::to_string(idx[k]) + " " +
                                    probe::kArmNames[arm]});
            }
        }
    }
}

size_t numJobs() { return jobs.size(); }
unsigned arm(size_t j) { return jobs[j].arm; }
const char *describe(size_t j) { return jobs[j].name.c_str(); }

double
threadCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** FNV-1a over every field the block-vs-step identity tests compare. */
uint64_t
fingerprint(const core::RunResult &r)
{
    uint64_t h = kFnvOffset;
    auto mix = [&](uint64_t v) { h = fnvMix(h, v); };
    mix(r.programCrashed);
    mix(static_cast<uint64_t>(r.programCrashKind));
    mix(r.hitInstructionLimit);
    mix(r.aborted);
    mix(static_cast<uint64_t>(r.stopCause));
    mix(r.takenInstructions);
    mix(r.ntInstructions);
    mix(r.branchTrace.size());
    for (uint32_t w : r.branchTrace)
        mix(w);
    mix(r.branchTraceTruncated);
    mix(r.cycles);
    mix(r.ntPathsSpawned);
    mix(r.ntPathsSkippedBusy);
    mix(r.ntRecords.size());
    for (const core::NtPathRecord &nt : r.ntRecords) {
        mix(nt.spawnBranchPc);
        mix(nt.spawnEdgeTaken);
        mix(nt.length);
        mix(static_cast<uint64_t>(nt.cause));
        mix(static_cast<uint64_t>(nt.crashKind));
    }
    mix(r.l2ContentionCycles);
    mix(r.coreCycles.size());
    for (uint64_t c : r.coreCycles)
        mix(c);
    for (uint64_t w : r.coverage.takenWords())
        mix(w);
    for (uint64_t w : r.coverage.ntWords())
        mix(w);
    mix(r.io.inputPos);
    for (int32_t v : r.io.intOutput)
        mix(static_cast<uint32_t>(v));
    h = fnvMixBytes(h, r.io.charOutput);
    mix(r.memoryDigest);
    return h;
}

probe::Run
run(size_t j)
{
    const Job &job = jobs[j];
    const App &app = apps[job.app];
    const std::vector<int32_t> &input =
        app.workload->benignInputs[job.input];
    const double start = threadCpuSeconds();
    const core::RunResult r = app.engines[job.arm]->run(input);
    const double cpu = threadCpuSeconds() - start;
    return {fingerprint(r), cpu};
}

} // namespace

extern const probe::Side side;
const probe::Side side = {setup, numJobs, arm, describe, run};

} // namespace pe::paired_probe
