/**
 * @file
 * PathExpander engine tests (standard configuration): sandboxing
 * invariants, NT-Path selection and termination, counter thresholds
 * and reset, instruction budgeting and determinism.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/branch/btb.hh"
#include "src/core/engine.hh"
#include "src/minic/compiler.hh"
#include "src/support/status.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;

const char *loopy = R"(
int total = 0;
int mode = 0;
int main() {
    int i = 0;
    while (i < 40) {
        if (i % 4 == 0) {
            total = total + 2;
        } else {
            total = total + 1;
        }
        if (mode == 3) {
            total = total * 2;      // cold path
        }
        i = i + 1;
    }
    print_int(total);
    return 0;
}
)";

core::RunResult
run(const isa::Program &program, core::PeConfig cfg,
    detect::Detector *det = nullptr, std::vector<int32_t> input = {})
{
    core::PathExpanderEngine engine(program, cfg, det);
    return engine.run(input);
}

TEST(Engine, SandboxPreservesProgramBehavior)
{
    auto program = minic::compile(loopy, "loopy");
    auto off = run(program, core::PeConfig::forMode(core::PeMode::Off));
    auto pe =
        run(program, core::PeConfig::forMode(core::PeMode::Standard));
    // NT-Paths executed the cold doubling path, yet the architected
    // result is identical: all side effects rolled back.
    EXPECT_GT(pe.ntPathsSpawned, 0u);
    EXPECT_GT(pe.ntInstructions, 0u);
    EXPECT_EQ(off.io.charOutput, pe.io.charOutput);
    EXPECT_EQ(off.takenInstructions, pe.takenInstructions);
}

TEST(Engine, NtPathsCostCyclesInStandardMode)
{
    auto program = minic::compile(loopy, "loopy");
    auto off = run(program, core::PeConfig::forMode(core::PeMode::Off));
    auto pe =
        run(program, core::PeConfig::forMode(core::PeMode::Standard));
    EXPECT_GT(pe.cycles, off.cycles);
}

TEST(Engine, ThresholdBoundsSpawnsPerEdge)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.ntPathCounterThreshold = 1;
    auto one = run(program, cfg);
    cfg.ntPathCounterThreshold = 5;
    auto five = run(program, cfg);
    EXPECT_GT(one.ntPathsSpawned, 0u);
    EXPECT_GT(five.ntPathsSpawned, one.ntPathsSpawned);
    // With threshold 1 every static edge spawns at most once.
    EXPECT_LE(one.ntPathsSpawned, 2 * program.numBranches());
}

TEST(Engine, MaxLengthTerminatesNtPaths)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = 25;
    auto r = run(program, cfg);
    ASSERT_GT(r.ntRecords.size(), 0u);
    for (const auto &rec : r.ntRecords) {
        EXPECT_LE(rec.length, 25u);
        if (rec.cause == core::NtStopCause::MaxLength) {
            EXPECT_EQ(rec.length, 25u);
        }
    }
}

TEST(Engine, CounterResetReenablesSpawning)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.counterResetInterval = 1u << 30;
    auto noReset = run(program, cfg);
    cfg.counterResetInterval = 200;     // reset often
    auto reset = run(program, cfg);
    EXPECT_GT(reset.ntPathsSpawned, noReset.ntPathsSpawned);
}

TEST(Engine, UnsafeEventStopsNtPath)
{
    const char *src = R"(
int chatty = 0;
int main() {
    int i = 0;
    while (i < 10) {
        if (chatty == 1) {
            print_int(i);       // I/O right behind the cold edge
        }
        i = i + 1;
    }
    return 0;
}
)";
    auto program = minic::compile(src, "chatty");
    auto r = run(program,
                 core::PeConfig::forMode(core::PeMode::Standard));
    EXPECT_EQ(r.io.charOutput, "");     // nothing leaked
    bool sawUnsafe = false;
    for (const auto &rec : r.ntRecords)
        sawUnsafe |= rec.cause == core::NtStopCause::UnsafeEvent;
    EXPECT_TRUE(sawUnsafe);
}

TEST(Engine, NtCrashIsContained)
{
    const char *src = R"(
int danger = 0;
int main() {
    int i = 0;
    int v = 1;
    while (i < 10) {
        if (danger == 1) {
            v = 100 / (danger - 1);     // div by zero when fixed to 1
        }
        i = i + 1;
    }
    print_int(v);
    return 0;
}
)";
    auto program = minic::compile(src, "danger");
    auto r = run(program,
                 core::PeConfig::forMode(core::PeMode::Standard));
    EXPECT_FALSE(r.programCrashed);
    EXPECT_EQ(r.io.charOutput, "1");
    bool sawCrash = false;
    for (const auto &rec : r.ntRecords) {
        if (rec.cause == core::NtStopCause::Crash) {
            sawCrash = true;
            EXPECT_EQ(rec.crashKind, sim::CrashKind::DivByZero);
        }
    }
    EXPECT_TRUE(sawCrash);
}

TEST(Engine, ProgramEndStopsNtPath)
{
    const char *src = R"(
int last = 0;
int main() {
    int v = read_int();
    if (v == 77) {
        last = 1;
    }
    return 0;
}
)";
    auto program = minic::compile(src, "short");
    auto r = run(program,
                 core::PeConfig::forMode(core::PeMode::Standard));
    bool sawEnd = false;
    for (const auto &rec : r.ntRecords)
        sawEnd |= rec.cause == core::NtStopCause::ProgramEnd;
    EXPECT_TRUE(sawEnd);
}

TEST(Engine, MonitorAreaSurvivesSquash)
{
    const char *src = R"(
int rare = 0;
int main() {
    int i = 0;
    while (i < 10) {
        if (rare == 1) {
            assert(0 == 1, 31);
        }
        i = i + 1;
    }
    return 0;
}
)";
    auto program = minic::compile(src, "monitor");
    detect::AssertChecker checker;
    auto r = run(program,
                 core::PeConfig::forMode(core::PeMode::Standard),
                 &checker);
    // The report was raised inside a squashed NT-Path yet survives.
    ASSERT_GT(r.monitor.reports().size(), 0u);
    EXPECT_TRUE(r.monitor.reports()[0].fromNtPath);
    EXPECT_EQ(r.monitor.reports()[0].assertId, 31);
    EXPECT_NE(r.monitor.reports()[0].ntSpawnPc, 0u);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    auto a = run(program, cfg);
    auto b = run(program, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ntPathsSpawned, b.ntPathsSpawned);
    EXPECT_EQ(a.ntInstructions, b.ntInstructions);
    EXPECT_EQ(a.coverage.combinedCovered(),
              b.coverage.combinedCovered());
}

TEST(Engine, InstructionLimitStopsRunaways)
{
    const char *src = R"(
int main() {
    int i = 0;
    while (i >= 0) {
        i = i + 1;
        if (i > 1000000) { i = 0; }
    }
    return 0;
}
)";
    auto program = minic::compile(src, "forever");
    auto cfg = core::PeConfig::forMode(core::PeMode::Off);
    cfg.maxTakenInstructions = 5000;
    auto r = run(program, cfg);
    EXPECT_TRUE(r.hitInstructionLimit);
    EXPECT_LE(r.takenInstructions, 5000u);
}

TEST(Engine, ProgramCrashIsReported)
{
    const char *src = R"(
int main() {
    int z = read_int();      // -1 at EOF
    return 10 / (z + 1);
}
)";
    auto program = minic::compile(src, "crash");
    auto r = run(program, core::PeConfig::forMode(core::PeMode::Off));
    EXPECT_TRUE(r.programCrashed);
    EXPECT_EQ(r.programCrashKind, sim::CrashKind::DivByZero);
}

TEST(Engine, OffModeSpawnsNothing)
{
    auto program = minic::compile(loopy, "loopy");
    auto r = run(program, core::PeConfig::forMode(core::PeMode::Off));
    EXPECT_EQ(r.ntPathsSpawned, 0u);
    EXPECT_EQ(r.ntInstructions, 0u);
    EXPECT_TRUE(r.ntRecords.empty());
}

TEST(Engine, CoverageAttributionTakenVsNt)
{
    auto program = minic::compile(loopy, "loopy");
    auto r = run(program,
                 core::PeConfig::forMode(core::PeMode::Standard));
    EXPECT_GT(r.coverage.ntOnlyCovered(), 0u);
    EXPECT_GE(r.coverage.combinedCovered(),
              r.coverage.takenCovered());
    EXPECT_LE(r.coverage.combinedCovered(), r.coverage.totalEdges());
}

TEST(Engine, NtRecordsIdentifySpawnEdge)
{
    auto program = minic::compile(loopy, "loopy");
    auto r = run(program,
                 core::PeConfig::forMode(core::PeMode::Standard));
    ASSERT_GT(r.ntRecords.size(), 0u);
    auto branches = program.branchPcs();
    std::set<uint32_t> branchSet(branches.begin(), branches.end());
    for (const auto &rec : r.ntRecords)
        EXPECT_TRUE(branchSet.count(rec.spawnBranchPc));
}

TEST(Engine, MemoryDigestIsPinned)
{
    // The digest construction is part of the result contract: these
    // are the Standard-mode digests of each workload's default input
    // as the flat four-lane FNV-1a over the whole image computed them.
    const std::pair<const char *, uint64_t> pinned[] = {
        {"schedule", 0x7069402aeb63ba58ull},
        {"schedule2", 0xf2ea230b7a6022e5ull},
        {"print_tokens", 0x04e90df3ecc0b9ddull},
        {"pe_bc", 0x0aa4b56a310e35c0ull},
    };
    for (const auto &[name, digest] : pinned) {
        SCOPED_TRACE(name);
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, w.name);
        auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
        cfg.maxNtPathLength = w.maxNtPathLength;
        EXPECT_EQ(run(program, cfg, nullptr, w.benignInputs[0])
                      .memoryDigest,
                  digest);
    }
}

/** The FatalError message building an engine with this layout gives. */
std::string
layoutError(uint32_t memWords, uint32_t stackWords)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.layout.memWords = memWords;
    cfg.layout.stackWords = stackWords;
    try {
        core::PathExpanderEngine engine(program, cfg);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Engine, RefusesLayoutWhoseHeapLimitWraps)
{
    // 16384 - 65536 wraps to 4294918144 in 32 bits: Alloc could never
    // overflow and the stack range [heapLimit, memWords) is empty.
    std::string err = layoutError(16384, 1u << 16);
    EXPECT_NE(err.find("stackWords 65536"), std::string::npos) << err;
    EXPECT_NE(err.find("memWords 16384"), std::string::npos) << err;
}

TEST(Engine, RefusesLayoutWithoutHeapOrStackFrame)
{
    // A stack filling all of memory leaves a heap limit of 0.
    std::string err = layoutError(1u << 16, 1u << 16);
    EXPECT_NE(err.find("stackWords 65536"), std::string::npos) << err;
    EXPECT_NE(err.find("memWords 65536"), std::string::npos) << err;
    // A stack smaller than the 16 words above the initial SP.
    err = layoutError(1u << 16, 15);
    EXPECT_NE(err.find("stackWords 15"), std::string::npos) << err;

    // The bounds themselves are accepted.
    EXPECT_EQ(layoutError(1u << 16, 16), "");
    EXPECT_EQ(layoutError(1u << 16, (1u << 16) - 1), "");
    EXPECT_EQ(layoutError(sim::MachineLayout{}.memWords,
                          sim::MachineLayout{}.stackWords),
              "");
}

/** An engine over loopy with BTB geometry @p btb, then one run. */
void
buildAndRun(const branch::BtbParams &btb, core::PeMode mode)
{
    auto program = minic::compile(loopy, "loopy");
    auto cfg = core::PeConfig::forMode(mode);
    cfg.btbParams = btb;
    core::PathExpanderEngine engine(program, cfg);
    engine.run({});
}

TEST(Engine, RefusesDegenerateBtbGeometry)
{
    // Each rule with its own witness, in every mode: before this check
    // a zero-way or zero-entry BTB divided by zero.
    auto geometry = [](uint32_t entries, uint32_t ways, uint8_t bits) {
        branch::BtbParams p;
        p.entries = entries;
        p.ways = ways;
        p.counterBits = bits;
        return p;
    };
    for (auto mode :
         {core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp}) {
        SCOPED_TRACE(core::peModeName(mode));
        // ways >= 1
        EXPECT_THROW(buildAndRun(geometry(2048, 0, 4), mode), FatalError);
        // entries a multiple of ways
        EXPECT_THROW(buildAndRun(geometry(2047, 2, 4), mode), FatalError);
        EXPECT_THROW(buildAndRun(geometry(1, 2, 4), mode), FatalError);
        // a power-of-two set count, so none of zero entries
        EXPECT_THROW(buildAndRun(geometry(0, 2, 4), mode), FatalError);
        EXPECT_THROW(buildAndRun(geometry(3072, 2, 4), mode), FatalError);
        EXPECT_THROW(buildAndRun(geometry(24, 8, 4), mode), FatalError);
        // counter bits from 1 to 8
        EXPECT_THROW(buildAndRun(geometry(2048, 2, 0), mode), FatalError);
        EXPECT_THROW(buildAndRun(geometry(2048, 2, 9), mode), FatalError);

        // The bounds themselves are accepted.
        EXPECT_NO_THROW(buildAndRun(geometry(2048, 2, 4), mode));
        EXPECT_NO_THROW(buildAndRun(geometry(2, 2, 1), mode));
        EXPECT_NO_THROW(buildAndRun(geometry(8, 1, 8), mode));
        EXPECT_NO_THROW(buildAndRun(geometry(4096, 8, 4), mode));
    }
}

} // namespace
