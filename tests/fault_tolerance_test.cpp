/**
 * @file
 * Fault-tolerance tests: campaign failure policies under injected
 * faults (fail-fast, continue, retry — surviving results must stay
 * bit-identical to a failure-free campaign), the per-job wall-clock
 * watchdog, thread-pool cancellation, the fault-plan spec language
 * and explorer checkpoint/resume bit-identity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/campaign.hh"
#include "src/core/engine.hh"
#include "src/detect/detector.hh"
#include "src/explore/explorer.hh"
#include "src/fleet/checkpoint.hh"
#include "src/fleet/coordinator.hh"
#include "src/minic/compiler.hh"
#include "src/support/faultinject.hh"
#include "src/support/status.hh"
#include "src/support/thread_pool.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;

// ---------------------------------------------------------------------
// Fault-plan spec language.

TEST(FaultPlan, SpecStringRoundTrips)
{
    fault::FaultPlan plans[] = {
        {},
        {"campaign.run_job", 5, 1, fault::FaultKind::Throw, 1, "boom"},
        {"explore.batch_merge", 2, 0, fault::FaultKind::BadAlloc, 1,
         "oom"},
        {"objfile.write", 1, 3, fault::FaultKind::Stall, 25, "slow"},
    };
    plans[0].site = "a.b";
    for (const auto &plan : plans) {
        EXPECT_EQ(fault::parsePlan(plan.str()), plan) << plan.str();
    }
}

TEST(FaultPlan, ParsesSparseSpecsWithDefaults)
{
    auto plan = fault::parsePlan("site=campaign.run_job");
    EXPECT_EQ(plan.site, "campaign.run_job");
    EXPECT_EQ(plan.hit, 1u);
    EXPECT_EQ(plan.count, 1u);
    EXPECT_EQ(plan.kind, fault::FaultKind::Throw);

    auto list = fault::parsePlanList(
        "site=a.b,hit=2;site=c.d,kind=stall,stall_ms=5");
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0].hit, 2u);
    EXPECT_EQ(list[1].kind, fault::FaultKind::Stall);
    EXPECT_EQ(list[1].stallMs, 5u);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(fault::parsePlan("hit=1"), FatalError);
    EXPECT_THROW(fault::parsePlan("site=a.b,kind=nonsense"),
                 FatalError);
    EXPECT_THROW(fault::parsePlan("site=a.b,hit=0"), FatalError);
    EXPECT_THROW(fault::parsePlan("site=a.b,frobnicate=1"),
                 FatalError);
}

TEST(FaultPlan, SiteFiresOnConfiguredHitsOnly)
{
    fault::FaultPlan plan;
    plan.site = "test.site";
    plan.hit = 3;
    plan.count = 2;
    plan.message = "deliberate";
    fault::ScopedFaultPlan armed(plan);

    fault::site("test.other");      // different site: never fires
    fault::site("test.site");       // hit 1
    fault::site("test.site");       // hit 2
    EXPECT_THROW(fault::site("test.site"), FatalError);     // hit 3
    EXPECT_THROW(fault::site("test.site"), FatalError);     // hit 4
    fault::site("test.site");       // hit 5: window over
    EXPECT_EQ(fault::siteHits("test.site"), 5u);
    EXPECT_EQ(fault::siteHits("test.other"), 1u);
}

TEST(FaultPlan, BadAllocAndStallKinds)
{
    // The process may run with PE_FAULT_PLAN armed; the scoped plans
    // below must restore exactly that set, not an empty one.
    const std::vector<fault::FaultPlan> armedAtStart = fault::armedPlans();
    {
        fault::FaultPlan plan;
        plan.site = "test.alloc";
        plan.kind = fault::FaultKind::BadAlloc;
        fault::ScopedFaultPlan armed(plan);
        EXPECT_THROW(fault::site("test.alloc"), std::bad_alloc);
    }
    {
        fault::FaultPlan plan;
        plan.site = "test.stall";
        plan.kind = fault::FaultKind::Stall;
        plan.stallMs = 1;
        fault::ScopedFaultPlan armed(plan);
        EXPECT_NO_THROW(fault::site("test.stall"));
    }
    // ScopedFaultPlan disarmed both and restored the plans it found.
    EXPECT_EQ(fault::armedPlans(), armedAtStart);
    EXPECT_NO_THROW(fault::site("test.alloc"));
}

// ---------------------------------------------------------------------
// Thread-pool cancellation.

TEST(ThreadPool, CancelPendingDrainsQueueWithoutExecuting)
{
    ThreadPool pool(1);
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::atomic<int> executed{0};

    // The single worker blocks on the gate; everything behind it
    // stays queued.  Wait for the gate task to actually start so the
    // cancellation below cannot reap it while it is still queued.
    pool.submit([&started, gate] {
        started.set_value();
        gate.wait();
    });
    started.get_future().wait();
    for (int i = 0; i < 50; ++i)
        pool.submit([&executed] { ++executed; });

    EXPECT_EQ(pool.cancelPending(), 50u);
    release.set_value();
    pool.waitIdle();
    EXPECT_EQ(executed.load(), 0);

    // The pool stays usable after a cancellation.
    pool.submit([&executed] { ++executed; });
    pool.waitIdle();
    EXPECT_EQ(executed.load(), 1);
}

// ---------------------------------------------------------------------
// Campaign failure policies.

/** Compile @p name and build jobs over its benign inputs (cycled). */
struct CampaignFixture
{
    explicit CampaignFixture(const std::string &name)
        : workload(&workloads::getWorkload(name)),
          program(minic::compile(workload->source, name))
    {}

    std::vector<core::CampaignJob> jobs(size_t n) const
    {
        std::vector<core::CampaignJob> out;
        for (size_t i = 0; i < n; ++i) {
            core::CampaignJob j;
            j.program = &program;
            j.input = workload->benignInputs
                          [i % workload->benignInputs.size()];
            j.config = core::PeConfig::forMode(core::PeMode::Standard);
            j.config.maxNtPathLength = workload->maxNtPathLength;
            out.push_back(std::move(j));
        }
        return out;
    }

    const workloads::Workload *workload;
    isa::Program program;
};

void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.memoryDigest, b.memoryDigest);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.takenInstructions, b.takenInstructions);
    EXPECT_EQ(a.ntInstructions, b.ntInstructions);
    EXPECT_EQ(a.ntPathsSpawned, b.ntPathsSpawned);
    EXPECT_EQ(a.coverage.takenCovered(), b.coverage.takenCovered());
    EXPECT_EQ(a.coverage.combinedCovered(),
              b.coverage.combinedCovered());
    EXPECT_EQ(a.io.charOutput, b.io.charOutput);
}

fault::FaultPlan
failNthRunJob(uint64_t hit, uint64_t count = 1)
{
    fault::FaultPlan plan;
    plan.site = "campaign.run_job";
    plan.hit = hit;
    plan.count = count;
    plan.message = "injected job failure";
    return plan;
}

TEST(FailPolicy, FailFastRethrowsTheFirstError)
{
    CampaignFixture fx("schedule");
    auto jobs = fx.jobs(16);
    fault::ScopedFaultPlan armed(failNthRunJob(3));

    core::CampaignOptions opts;
    opts.threads = 2;   // default policy: FailFast
    EXPECT_THROW(core::runCampaign(jobs, opts), FatalError);
}

TEST(FailPolicy, ContinueReturnsSurvivorsBitIdentical)
{
    CampaignFixture fx("schedule");
    auto jobs = fx.jobs(64);

    auto baseline = core::runCampaign(jobs, core::campaignThreads(4));
    ASSERT_EQ(baseline.results.size(), 64u);

    fault::ScopedFaultPlan armed(failNthRunJob(13));
    core::CampaignOptions opts;
    opts.threads = 4;
    opts.failPolicy = core::FailPolicy::continueOnError();
    auto outcome = core::runCampaign(jobs, opts);

    ASSERT_EQ(outcome.failures.size(), 1u);
    ASSERT_EQ(outcome.results.size(), 63u);
    ASSERT_EQ(outcome.resultJobIndex.size(), 63u);
    EXPECT_EQ(outcome.suppressedErrors, 0u);
    const auto &failure = outcome.failures[0];
    EXPECT_EQ(failure.attempts, 1u);
    EXPECT_NE(failure.what.find("injected job failure"),
              std::string::npos);

    // Every survivor is bit-identical to the same job in the
    // failure-free campaign: a failure never perturbs its neighbors.
    for (size_t k = 0; k < outcome.results.size(); ++k) {
        size_t jobIndex = outcome.resultJobIndex[k];
        EXPECT_NE(jobIndex, failure.jobIndex);
        expectIdentical(outcome.results[k],
                        baseline.results[jobIndex]);
    }
}

TEST(FailPolicy, ContinueIsDeterministicWhenSerial)
{
    CampaignFixture fx("schedule");
    auto jobs = fx.jobs(8);

    // Serially, the 5th site hit is exactly job index 4.
    fault::ScopedFaultPlan armed(failNthRunJob(5));
    core::CampaignOptions opts;
    opts.threads = 1;
    opts.failPolicy = core::FailPolicy::continueOnError();
    auto outcome = core::runCampaign(jobs, opts);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].jobIndex, 4u);
    ASSERT_EQ(outcome.results.size(), 7u);
    for (size_t k = 0; k < outcome.results.size(); ++k)
        EXPECT_EQ(outcome.results[k].io.input,
                  jobs[outcome.resultJobIndex[k]].input);
}

TEST(FailPolicy, RetryRecoversTransientFaultBitIdentical)
{
    CampaignFixture fx("schedule");
    auto jobs = fx.jobs(16);
    auto baseline = core::runCampaign(jobs, core::campaignThreads(1));

    // The 3rd site hit fails once; serially that is job 2's first
    // attempt.  Attempt 2 is hit 4 and succeeds.
    fault::ScopedFaultPlan armed(failNthRunJob(3));
    core::CampaignOptions opts;
    opts.threads = 1;
    opts.failPolicy = core::FailPolicy::retry(2);
    auto outcome = core::runCampaign(jobs, opts);

    EXPECT_TRUE(outcome.failures.empty());
    ASSERT_EQ(outcome.results.size(), 16u);
    EXPECT_EQ(outcome.suppressedErrors, 1u);
    for (size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(outcome.resultJobIndex[i], i);
        expectIdentical(outcome.results[i], baseline.results[i]);
    }
}

TEST(FailPolicy, RetryExhaustionRecordsAttempts)
{
    CampaignFixture fx("schedule");
    auto jobs = fx.jobs(8);

    // Hits 3 and 4 both fail: job 2's two attempts.  Job 3 runs on
    // hit 5 and succeeds.
    fault::ScopedFaultPlan armed(failNthRunJob(3, 2));
    core::CampaignOptions opts;
    opts.threads = 1;
    opts.failPolicy = core::FailPolicy::retry(2);
    auto outcome = core::runCampaign(jobs, opts);

    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].jobIndex, 2u);
    EXPECT_EQ(outcome.failures[0].attempts, 2u);
    EXPECT_EQ(outcome.results.size(), 7u);
}

// ---------------------------------------------------------------------
// Per-job watchdog.

const char *spinSource = R"(
int main() {
    int n = read_int();
    int i = 0;
    int acc = 0;
    while (i < n) {
        acc = acc + i;
        i = i + 1;
    }
    print_int(acc);
    return 0;
}
)";

TEST(Watchdog, DeadlineAbortsRunWithPartialResult)
{
    auto program = minic::compile(spinSource, "spin");

    core::CampaignJob job;
    job.program = &program;
    job.input = {2'000'000'000};    // far beyond any 50 ms of work
    job.config = core::PeConfig::forMode(core::PeMode::Off);

    core::CampaignOptions opts;
    opts.threads = 1;
    opts.jobDeadline = std::chrono::milliseconds(50);
    auto start = std::chrono::steady_clock::now();
    auto outcome = core::runCampaign({job}, opts);
    auto elapsed = std::chrono::steady_clock::now() - start;

    ASSERT_EQ(outcome.results.size(), 1u);
    const auto &res = outcome.results[0];
    EXPECT_TRUE(res.aborted);
    EXPECT_EQ(res.stopCause, core::RunStopCause::Deadline);
    EXPECT_FALSE(res.programCrashed);
    EXPECT_FALSE(res.hitInstructionLimit);
    // Partial but real progress, and the loop clearly did not finish.
    EXPECT_GT(res.takenInstructions, 0u);
    EXPECT_LT(res.takenInstructions, 8'000'000'000u);
    // Aborted runs are results, not failures.
    EXPECT_TRUE(outcome.failures.empty());
    // Generous bound: the cancel must land well before the ~20 s the
    // full loop would take.
    EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 10.0);
}

TEST(Watchdog, FastJobsAreUntouchedByTheDeadline)
{
    CampaignFixture fx("schedule");
    auto jobs = fx.jobs(8);
    auto baseline = core::runCampaign(jobs, core::campaignThreads(2));

    core::CampaignOptions opts;
    opts.threads = 2;
    opts.jobDeadline = std::chrono::seconds(60);
    auto outcome = core::runCampaign(jobs, opts);
    ASSERT_EQ(outcome.results.size(), 8u);
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_FALSE(outcome.results[i].aborted);
        EXPECT_NE(outcome.results[i].stopCause,
                  core::RunStopCause::Deadline);
        expectIdentical(outcome.results[i], baseline.results[i]);
    }
}

TEST(Watchdog, RunStopCauseNamesDistinctAndNonNull)
{
    const core::RunStopCause causes[] = {
        core::RunStopCause::Completed,
        core::RunStopCause::Crashed,
        core::RunStopCause::InstructionLimit,
        core::RunStopCause::Deadline,
    };
    std::set<std::string> names;
    for (auto cause : causes) {
        const char *name = core::runStopCauseName(cause);
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "?");
        names.insert(name);
    }
    EXPECT_EQ(names.size(), std::size(causes));
    EXPECT_STREQ(
        core::ntStopCauseName(core::NtStopCause::HostAbort),
        "host-abort");
}

/**
 * Raises the run's cancel token at the @p at-th load or store an
 * NT-Path makes: a deadline that lands, with no thread and no clock,
 * while NT-Paths are in flight.
 */
class CancelOnNtAccess : public detect::Detector
{
  public:
    CancelOnNtAccess(std::atomic<bool> &token, int at)
        : token(token), left(at)
    {}

    const char *name() const override { return "cancel-on-nt-access"; }

    void
    onMemAccess(const detect::DetectCtx &ctx, uint32_t, bool) override
    {
        if (ctx.fromNtPath && --left == 0)
            token.store(true, std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> &token;
    int left;
};

TEST(Watchdog, AbortSquashesInFlightNtPathsAsHostAbort)
{
    const auto &w = workloads::getWorkload("pe_go");
    const auto program = minic::compile(w.source, w.name);
    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        SCOPED_TRACE(core::peModeName(mode));
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = w.maxNtPathLength;
        // Deep enough that no segment-depth squash (a ForcedSquash)
        // happens before the abort.
        cfg.maxSegmentDepth = 1'000'000;
        std::atomic<bool> cancel{false};
        CancelOnNtAccess detector(cancel, 500);
        core::PathExpanderEngine engine(program, cfg, &detector);
        const core::RunResult res = engine.run(w.benignInputs[0], &cancel);

        EXPECT_TRUE(res.aborted);
        EXPECT_EQ(res.stopCause, core::RunStopCause::Deadline);
        size_t hostAborts = 0;
        size_t forcedSquashes = 0;
        for (const core::NtPathRecord &rec : res.ntRecords) {
            hostAborts += rec.cause == core::NtStopCause::HostAbort;
            forcedSquashes += rec.cause == core::NtStopCause::ForcedSquash;
        }
        EXPECT_GE(hostAborts, 1u);
        EXPECT_EQ(forcedSquashes, 0u);
    }
}

// ---------------------------------------------------------------------
// Explorer: failure plumbing and checkpoint/resume.

struct TempPath
{
    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

explore::ExploreOptions
exploreOptions(uint64_t maxRuns, uint64_t seed = 0x1234)
{
    explore::ExploreOptions opts;
    opts.config = core::PeConfig::forMode(core::PeMode::Off);
    opts.policy = explore::SchedulePolicy::RareEdgeWeighted;
    opts.budget.maxRuns = maxRuns;
    opts.batchSize = 8;
    opts.seed = seed;
    return opts;
}

std::vector<std::vector<int32_t>>
scheduleSeeds(const workloads::Workload &workload)
{
    return {workload.benignInputs.begin(),
            workload.benignInputs.begin() + 3};
}

void
expectSameExploration(const explore::ExploreResult &a,
                      const explore::Explorer &ea,
                      const explore::ExploreResult &b,
                      const explore::Explorer &eb)
{
    EXPECT_EQ(a.stop, b.stop);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.failedJobs, b.failedJobs);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].totalRuns, b.history[i].totalRuns);
        EXPECT_EQ(a.history[i].admitted, b.history[i].admitted);
        EXPECT_EQ(a.history[i].combinedEdges,
                  b.history[i].combinedEdges);
    }
    // The frontier bitmaps — the acceptance criterion — must match
    // word for word, and so must the corpus.
    EXPECT_EQ(ea.corpus().frontier().takenWords(),
              eb.corpus().frontier().takenWords());
    EXPECT_EQ(ea.corpus().frontier().ntWords(),
              eb.corpus().frontier().ntWords());
    ASSERT_EQ(ea.corpus().size(), eb.corpus().size());
    for (size_t i = 0; i < ea.corpus().size(); ++i) {
        const auto &x = ea.corpus().entries()[i];
        const auto &y = eb.corpus().entries()[i];
        EXPECT_EQ(x.input, y.input);
        EXPECT_EQ(x.newEdges, y.newEdges);
        EXPECT_EQ(x.timesScheduled, y.timesScheduled);
        EXPECT_EQ(x.coverage.takenWords(), y.coverage.takenWords());
    }
}

TEST(Checkpoint, ResumeContinuesBitIdentically)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_resume_test.ckpt");

    // Uninterrupted reference: 3 seeds + mutated batches up to 59.
    explore::Explorer full(program, scheduleSeeds(workload),
                           exploreOptions(59));
    auto fullRes = full.run();
    EXPECT_EQ(fullRes.stop, explore::ExploreStop::RunBudget);

    // Interrupted run: the budget lands exactly on a batch boundary
    // (3 seeds + 3 * 8), where the final checkpoint is written —
    // exactly the state a kill -9 between batches leaves behind.
    {
        auto opts = exploreOptions(27);
        opts.checkpointPath = ckpt.path;
        explore::Explorer head(program, scheduleSeeds(workload), opts);
        auto headRes = head.run();
        EXPECT_EQ(headRes.runs, 27u);
    }

    auto opts = exploreOptions(59);
    opts.resumeFrom = ckpt.path;
    explore::Explorer tail(program, scheduleSeeds(workload), opts);
    auto tailRes = tail.run();

    expectSameExploration(fullRes, full, tailRes, tail);
}

TEST(Checkpoint, PeriodicCheckpointMatchesFinalOne)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath everyCkpt("pe_every_test.ckpt");
    TempPath finalCkpt("pe_final_test.ckpt");

    // checkpointEvery=1 keeps overwriting; the surviving file is the
    // last boundary's — identical to one written only at the end.
    {
        auto opts = exploreOptions(27);
        opts.checkpointPath = everyCkpt.path;
        opts.checkpointEvery = 1;
        explore::Explorer e(program, scheduleSeeds(workload), opts);
        e.run();
    }
    {
        auto opts = exploreOptions(27);
        opts.checkpointPath = finalCkpt.path;
        opts.checkpointEvery = 1000;    // only the forced final write
        explore::Explorer e(program, scheduleSeeds(workload), opts);
        e.run();
    }

    auto resumeAndFinish = [&](const std::string &from) {
        auto opts = exploreOptions(59);
        opts.resumeFrom = from;
        explore::Explorer e(program, scheduleSeeds(workload), opts);
        auto res = e.run();
        return std::make_pair(res,
                              e.corpus().frontier().takenWords());
    };
    auto [resA, wordsA] = resumeAndFinish(everyCkpt.path);
    auto [resB, wordsB] = resumeAndFinish(finalCkpt.path);
    EXPECT_EQ(resA.runs, resB.runs);
    EXPECT_EQ(resA.instructions, resB.instructions);
    EXPECT_EQ(wordsA, wordsB);
}

TEST(Checkpoint, MismatchedSessionIsFatal)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_mismatch_test.ckpt");

    {
        auto opts = exploreOptions(27);
        opts.checkpointPath = ckpt.path;
        explore::Explorer e(program, scheduleSeeds(workload), opts);
        e.run();
    }

    {   // Wrong master seed.
        auto opts = exploreOptions(59, /*seed=*/0x9999);
        opts.resumeFrom = ckpt.path;
        explore::Explorer e(program, scheduleSeeds(workload), opts);
        EXPECT_THROW(e.run(), FatalError);
    }
    {   // Wrong engine config.
        auto opts = exploreOptions(59);
        opts.config = core::PeConfig::forMode(core::PeMode::Standard);
        opts.resumeFrom = ckpt.path;
        explore::Explorer e(program, scheduleSeeds(workload), opts);
        EXPECT_THROW(e.run(), FatalError);
    }
    {   // Wrong program image.
        auto other = minic::compile(spinSource, "spin");
        auto opts = exploreOptions(59);
        opts.resumeFrom = ckpt.path;
        explore::Explorer e(other, {{1}}, opts);
        EXPECT_THROW(e.run(), FatalError);
    }
    {   // Missing file.
        auto opts = exploreOptions(59);
        opts.resumeFrom = ckpt.path + ".nonexistent";
        explore::Explorer e(program, scheduleSeeds(workload), opts);
        EXPECT_THROW(e.run(), FatalError);
    }
}

TEST(Explorer, StopFlagInterruptsAtBatchBoundary)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");

    std::atomic<bool> stop{true};   // raised before the run starts
    auto opts = exploreOptions(1000);
    opts.stopFlag = &stop;
    std::ostringstream jsonl;
    opts.jsonl = &jsonl;
    explore::Explorer e(program, scheduleSeeds(workload), opts);
    auto res = e.run();

    // One batch (the seeds) ran, then the flag was honored.
    EXPECT_EQ(res.stop, explore::ExploreStop::Interrupted);
    EXPECT_EQ(res.batches, 1u);

    // The stream ends with the terminal "stopped" record.
    std::string out = jsonl.str();
    auto pos = out.rfind("{\"event\":\"stopped\",\"cause\":\"");
    ASSERT_NE(pos, std::string::npos);
    EXPECT_NE(out.find("interrupted", pos), std::string::npos);
}

TEST(Explorer, ContinuePolicyAbsorbsFailingRuns)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");

    fault::FaultPlan plan = failNthRunJob(2);
    fault::ScopedFaultPlan armed(plan);

    auto opts = exploreOptions(19);     // 3 seeds + 2 * 8
    opts.threads = 1;
    opts.failPolicy = core::FailPolicy::continueOnError();
    std::ostringstream jsonl;
    opts.jsonl = &jsonl;
    explore::Explorer e(program, scheduleSeeds(workload), opts);
    auto res = e.run();

    // The failed job consumed its budget slot and was counted.
    EXPECT_EQ(res.stop, explore::ExploreStop::RunBudget);
    EXPECT_EQ(res.runs, 19u);
    EXPECT_EQ(res.failedJobs, 1u);
    EXPECT_NE(jsonl.str().find("\"failed\":1"), std::string::npos);
}

// ---------------------------------------------------------------------
// Fleet checkpoint chaos: a failed or slow checkpoint write must cost
// durability, never the session.

fleet::FleetOptions
chaosFleetOptions(uint64_t maxRuns, uint64_t seed)
{
    fleet::FleetOptions opts;
    opts.base.config = core::PeConfig::forMode(core::PeMode::Off);
    opts.base.budget.maxRuns = maxRuns;
    opts.base.batchSize = 8;
    opts.base.seed = seed;
    opts.base.label = "schedule";
    opts.shards = 3;
    opts.workerThreads = 1;
    return opts;
}

TEST(FleetCheckpointChaos, WriteFailureIsAWarningNeverAnAbort)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_fleet_chaos.ckpt");

    fleet::FleetResult baseline = fleet::runFleet(
        program, workload.benignInputs, chaosFleetOptions(120, 0x42));

    // Every checkpoint write from round 2 on throws inside the save.
    // The session must not notice beyond a warning record: same stop,
    // same digests, full budget.  And since writes go temp + atomic
    // rename, the failed attempts never clobber the round-1 file —
    // the survivor on disk still loads.
    fault::FaultPlan plan;
    plan.site = "fleet.checkpoint_write";
    plan.hit = 2;
    plan.count = 0;     // every hit from the 2nd on
    // A quote and a backslash: the error text reaches the JSONL
    // record, which must stay parseable.
    plan.message = "injected \"checkpoint\" write failure at C:\\x";
    fault::ScopedFaultPlan armed(plan);

    auto opts = chaosFleetOptions(120, 0x42);
    opts.checkpointPath = ckpt.path;
    std::ostringstream jsonl;
    opts.base.jsonl = &jsonl;
    fleet::FleetResult res =
        fleet::runFleet(program, workload.benignInputs, opts);

    EXPECT_EQ(res.stop, fleet::FleetStop::RunBudget);
    EXPECT_EQ(res.runs, baseline.runs);
    EXPECT_EQ(res.frontierDigest, baseline.frontierDigest);
    EXPECT_EQ(res.corpusDigest, baseline.corpusDigest);
    EXPECT_EQ(res.lostWorkers, 0u);
    EXPECT_NE(jsonl.str().find(
                  "\"warning\":\"checkpoint_write_failed\""),
              std::string::npos);
    EXPECT_NE(jsonl.str().find("injected \\\"checkpoint\\\" write "
                               "failure at C:\\\\x ("),
              std::string::npos)
        << jsonl.str();

    fleet::FleetCheckpoint survivor =
        fleet::loadFleetCheckpoint(ckpt.path, program);
    EXPECT_EQ(survivor.rounds, 1u)
        << "a failed write must leave the previous checkpoint intact";
    EXPECT_EQ(survivor.id.shards, 3u);
    ASSERT_EQ(survivor.shardStates.size(), 3u);
}

TEST(FleetCheckpointChaos, StalledWritesOnlySlowTheSessionDown)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_fleet_stall_chaos.ckpt");

    fleet::FleetResult baseline = fleet::runFleet(
        program, workload.benignInputs, chaosFleetOptions(120, 0x42));

    // Every checkpoint write stalls 50 ms (a wheezing disk).  The
    // write itself still happens after the stall, the session result
    // is untouched, and the final checkpoint covers the final round.
    fault::FaultPlan plan;
    plan.site = "fleet.checkpoint_write";
    plan.hit = 1;
    plan.count = 0;
    plan.kind = fault::FaultKind::Stall;
    plan.stallMs = 50;
    fault::ScopedFaultPlan armed(plan);

    auto opts = chaosFleetOptions(120, 0x42);
    opts.checkpointPath = ckpt.path;
    fleet::FleetResult res =
        fleet::runFleet(program, workload.benignInputs, opts);

    EXPECT_EQ(res.stop, fleet::FleetStop::RunBudget);
    EXPECT_EQ(res.frontierDigest, baseline.frontierDigest);
    EXPECT_EQ(res.corpusDigest, baseline.corpusDigest);

    fleet::FleetCheckpoint final_ =
        fleet::loadFleetCheckpoint(ckpt.path, program);
    EXPECT_EQ(final_.rounds, res.rounds);
    EXPECT_EQ(final_.runs, res.runs);
}

TEST(FleetCheckpointChaos, ResumeRefusesForeignCorruptOrMissingState)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_fleet_identity_chaos.ckpt");

    {
        auto opts = chaosFleetOptions(120, 0x42);
        opts.checkpointPath = ckpt.path;
        fleet::runFleet(program, workload.benignInputs, opts);
    }

    {   // Another session's seed: the identity header is judged
        // before any worker is contacted.
        auto opts = chaosFleetOptions(120, 0x43);
        opts.resumeFrom = ckpt.path;
        EXPECT_THROW(
            fleet::runFleet(program, workload.benignInputs, opts),
            FatalError);
    }
    {   // Matching identity and budget left to spend, but the fork
        // transport cannot take redialing workers — resume demands
        // reconnect support.  (The budget is deliberately raised:
        // it is not part of the session identity, and a checkpoint
        // whose budget is already spent stops before any worker is
        // contacted.)
        auto opts = chaosFleetOptions(240, 0x42);
        opts.resumeFrom = ckpt.path;
        EXPECT_THROW(
            fleet::runFleet(program, workload.benignInputs, opts),
            FatalError);
    }
    {   // Corrupt bytes fail the magic/decode, not the process.
        TempPath junk("pe_fleet_junk.ckpt");
        std::ofstream(junk.path) << "not a fleet checkpoint";
        EXPECT_THROW(fleet::loadFleetCheckpoint(junk.path, program),
                     FatalError);
    }
    EXPECT_THROW(fleet::loadFleetCheckpoint(
                     ckpt.path + ".nonexistent", program),
                 FatalError);
}

} // namespace
