/**
 * @file
 * Campaign-runner tests: deterministic job ordering, bit-identical
 * parallel vs serial execution (digest, cycles, coverage, reports),
 * detector factories, coverage merge-reduce and error propagation.
 */

#include <gtest/gtest.h>

#include <utility>

#include "src/core/campaign.hh"
#include "src/detect/detector.hh"
#include "src/minic/compiler.hh"
#include "src/support/thread_pool.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;

/** Compile @p name and build jobs over its first @p inputs inputs. */
struct CampaignFixture
{
    explicit CampaignFixture(const std::string &name)
        : workload(&workloads::getWorkload(name)),
          program(minic::compile(workload->source, name))
    {}

    core::CampaignJob
    job(core::PeMode mode, size_t inputIdx,
        core::DetectorFactory factory = nullptr) const
    {
        core::CampaignJob j;
        j.program = &program;
        j.input = workload->benignInputs[inputIdx];
        j.config = core::PeConfig::forMode(mode);
        j.config.maxNtPathLength = workload->maxNtPathLength;
        j.detectorFactory = std::move(factory);
        return j;
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
    EXPECT_EQ(a.monitor.reports().size(), b.monitor.reports().size());
}

TEST(Campaign, EmptyCampaignIsEmpty)
{
    auto outcome = core::runCampaign({});
    EXPECT_TRUE(outcome.results.empty());
    EXPECT_EQ(outcome.threadsUsed, 1u);
}

TEST(Campaign, ResultsArriveInJobOrder)
{
    CampaignFixture fx("schedule");
    size_t inputs = fx.workload->benignInputs.size();
    std::vector<core::CampaignJob> jobs;
    for (size_t i = 0; i < inputs; ++i)
        jobs.push_back(fx.job(core::PeMode::Off, i));

    auto outcome = core::runCampaign(jobs, core::campaignThreads(4));
    ASSERT_EQ(outcome.results.size(), jobs.size());
    // RunResult carries its input back; slot i must hold job i.
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(outcome.results[i].io.input, jobs[i].input);
}

TEST(Campaign, ParallelRunsBitIdenticalToSerial)
{
    CampaignFixture fx("print_tokens");
    std::vector<core::CampaignJob> jobs;
    size_t inputs = std::min<size_t>(
        fx.workload->benignInputs.size(), 6);
    for (size_t i = 0; i < inputs; ++i) {
        jobs.push_back(fx.job(core::PeMode::Standard, i));
        jobs.push_back(fx.job(core::PeMode::Cmp, i));
    }

    auto serial = core::runCampaign(jobs, core::campaignThreads(1));
    auto parallel = core::runCampaign(jobs, core::campaignThreads(4));
    EXPECT_EQ(serial.threadsUsed, 1u);
    EXPECT_GT(parallel.threadsUsed, 1u);
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (size_t i = 0; i < serial.results.size(); ++i)
        expectIdentical(serial.results[i], parallel.results[i]);
}

TEST(Campaign, DetectorFactoriesGiveEachRunItsOwnDetector)
{
    CampaignFixture fx("schedule2");
    auto factory = [] {
        return std::unique_ptr<detect::Detector>(
            std::make_unique<detect::BoundsChecker>());
    };
    std::vector<core::CampaignJob> jobs;
    for (int rep = 0; rep < 4; ++rep)
        jobs.push_back(fx.job(core::PeMode::Standard, 0, factory));

    auto serial = core::runCampaign(jobs, core::campaignThreads(1));
    auto parallel = core::runCampaign(jobs, core::campaignThreads(4));
    for (size_t i = 0; i < jobs.size(); ++i) {
        expectIdentical(serial.results[i], parallel.results[i]);
        // Identical jobs: a shared or reused detector would dedup
        // reports differently between runs.
        expectIdentical(parallel.results[0], parallel.results[i]);
    }
}

TEST(Campaign, MergeCoverageIsOrderIndependent)
{
    CampaignFixture fx("schedule");
    std::vector<core::CampaignJob> jobs;
    size_t inputs = std::min<size_t>(
        fx.workload->benignInputs.size(), 8);
    for (size_t i = 0; i < inputs; ++i)
        jobs.push_back(fx.job(core::PeMode::Standard, i));
    auto outcome = core::runCampaign(jobs);

    auto merged = core::mergeCoverage(fx.program, outcome.results);
    std::vector<core::RunResult> reversed;
    for (auto it = outcome.results.rbegin();
         it != outcome.results.rend(); ++it) {
        reversed.push_back(std::move(*it));
    }
    auto mergedRev = core::mergeCoverage(fx.program, reversed);
    EXPECT_EQ(merged.takenCovered(), mergedRev.takenCovered());
    EXPECT_EQ(merged.combinedCovered(), mergedRev.combinedCovered());
    EXPECT_EQ(merged.takenWords(), mergedRev.takenWords());
    EXPECT_EQ(merged.ntWords(), mergedRev.ntWords());

    // The union covers at least as much as any single run.
    EXPECT_GE(merged.combinedCovered(),
              reversed.front().coverage.combinedCovered());
}

TEST(Campaign, OnResultObserverSeesEveryJobOnce)
{
    CampaignFixture fx("schedule");
    std::vector<core::CampaignJob> jobs;
    for (size_t i = 0; i < 8; ++i)
        jobs.push_back(fx.job(core::PeMode::Off, i));

    // The hook is serialized, so plain state is safe to touch.
    std::vector<int> seen(jobs.size(), 0);
    core::CampaignOptions opts;
    opts.threads = 4;
    opts.onResult = [&seen](size_t i, const core::RunResult &r) {
        ASSERT_LT(i, seen.size());
        ++seen[i];
        EXPECT_GT(r.takenInstructions, 0u);
    };
    auto outcome = core::runCampaign(jobs, opts);
    ASSERT_EQ(outcome.results.size(), jobs.size());
    for (int n : seen)
        EXPECT_EQ(n, 1);
}

TEST(Config, HashDistinguishesConfigs)
{
    auto a = core::PeConfig::forMode(core::PeMode::Standard);
    auto b = core::PeConfig::forMode(core::PeMode::Standard);
    EXPECT_EQ(core::configHash(a), core::configHash(b));

    b.maxNtPathLength += 1;
    EXPECT_NE(core::configHash(a), core::configHash(b));

    auto cmp = core::PeConfig::forMode(core::PeMode::Cmp);
    EXPECT_NE(core::configHash(a), core::configHash(cmp));

    auto c = a;
    c.noSpawnFuncs.push_back("checker");
    EXPECT_NE(core::configHash(a), core::configHash(c));
}

TEST(Config, HashIsPinned)
{
    // Fleet seeds and session identities derive from configHash, so a
    // change to what it hashes reseeds every fleet and refuses every
    // checkpoint.  The retired selfPrune flag keeps a constant slot.
    const std::pair<core::PeMode, uint64_t> pinned[] = {
        {core::PeMode::Off, 0x6a9ea0e6fb011f6cull},
        {core::PeMode::Standard, 0xffa29fc9abc98d9dull},
        {core::PeMode::Cmp, 0x9ec102e60e1b101bull}};
    for (const auto &[mode, hash] : pinned) {
        SCOPED_TRACE(core::peModeName(mode));
        auto cfg = core::PeConfig::forMode(mode);
        EXPECT_EQ(core::configHash(cfg), hash);
        cfg.selfPrune = true;
        EXPECT_EQ(core::configHash(cfg), hash);
    }
}

TEST(ThreadPool, RunsEverySubmittedTaskOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<int> hits(200, 0);
    for (size_t i = 0; i < hits.size(); ++i)
        pool.submit([&hits, i] { hits[i] += 1; });
    pool.waitIdle();
    for (int h : hits)
        EXPECT_EQ(h, 1);

    // The pool stays usable after an idle wait.
    bool ran = false;
    pool.submit([&ran] { ran = true; });
    pool.waitIdle();
    EXPECT_TRUE(ran);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns)
{
    ThreadPool pool(2);
    pool.waitIdle();    // no tasks: must not block
}

} // namespace
