/**
 * @file
 * Shared helpers of the execution-tier identity tests: a field-by-field
 * RunResult comparison, a block-stepped against per-step run and the
 * random-program generator.
 */

#ifndef PE_TESTS_TIER_IDENTITY_HH
#define PE_TESTS_TIER_IDENTITY_HH

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine.hh"
#include "src/core/result.hh"
#include "src/support/rng.hh"

namespace pe::test
{

/**
 * Require @p a and @p b identical in every field except the
 * prunedInstructions diagnostic, which counts the promoted branches
 * the block tier retired: how a run executed, not what it did.  The
 * edge trace counts: both sides must run one config, so both record it
 * or neither does.
 */
inline void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.programCrashed, b.programCrashed);
    EXPECT_EQ(a.programCrashKind, b.programCrashKind);
    EXPECT_EQ(a.hitInstructionLimit, b.hitInstructionLimit);
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.stopCause, b.stopCause);
    EXPECT_EQ(a.takenInstructions, b.takenInstructions);
    EXPECT_EQ(a.ntInstructions, b.ntInstructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ntPathsSpawned, b.ntPathsSpawned);
    EXPECT_EQ(a.ntPathsSkippedBusy, b.ntPathsSkippedBusy);
    EXPECT_EQ(a.l2ContentionCycles, b.l2ContentionCycles);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.memoryDigest, b.memoryDigest);
    EXPECT_EQ(a.io.intOutput, b.io.intOutput);
    EXPECT_EQ(a.io.charOutput, b.io.charOutput);
    EXPECT_EQ(a.io.inputPos, b.io.inputPos);
    EXPECT_EQ(a.coverage.takenWords(), b.coverage.takenWords());
    EXPECT_EQ(a.coverage.ntWords(), b.coverage.ntWords());
    EXPECT_EQ(a.branchTrace, b.branchTrace);
    EXPECT_EQ(a.branchTraceTruncated, b.branchTraceTruncated);

    ASSERT_EQ(a.ntRecords.size(), b.ntRecords.size());
    for (size_t i = 0; i < a.ntRecords.size(); ++i) {
        SCOPED_TRACE("ntRecord " + std::to_string(i));
        const auto &x = a.ntRecords[i];
        const auto &y = b.ntRecords[i];
        EXPECT_EQ(x.spawnBranchPc, y.spawnBranchPc);
        EXPECT_EQ(x.spawnEdgeTaken, y.spawnEdgeTaken);
        EXPECT_EQ(x.length, y.length);
        EXPECT_EQ(x.cause, y.cause);
        EXPECT_EQ(x.crashKind, y.crashKind);
    }

    ASSERT_EQ(a.monitor.reports().size(), b.monitor.reports().size());
    for (size_t i = 0; i < a.monitor.reports().size(); ++i) {
        SCOPED_TRACE("report " + std::to_string(i));
        const auto &x = a.monitor.reports()[i];
        const auto &y = b.monitor.reports()[i];
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.assertId, y.assertId);
        EXPECT_EQ(x.fromNtPath, y.fromNtPath);
        EXPECT_EQ(x.ntSpawnPc, y.ntSpawnPc);
        EXPECT_EQ(x.site, y.site);
    }
}

/**
 * Run @p program on @p input detector-free under @p cfg, block-stepped
 * and with the per-step loop; require the results identical and return
 * the block-stepped one.
 */
inline core::RunResult
blockRunMatchesLegacy(const isa::Program &program, core::PeConfig cfg,
                      const std::vector<int32_t> &input = {})
{
    auto runWith = [&](bool legacy) {
        cfg.legacyStepLoop = legacy;
        core::PathExpanderEngine engine(program, cfg, nullptr);
        return engine.run(input);
    };
    core::RunResult blk = runWith(false);
    expectIdentical(blk, runWith(true));
    return blk;
}

/**
 * A random assembly program for @p seed: plain ALU runs (the block
 * fast path), div/rem by a possibly-zero register (crash-capable: must
 * surface so the per-step loop reproduces the fault at the same PC),
 * masked loads/stores and forward branches, inside an outer loop that
 * counts down from a value drawn from [@p outerMin, @p outerMax].
 */
inline std::string
generateProgram(uint64_t seed, int64_t outerMin, int64_t outerMax)
{
    Rng rng(seed);
    std::ostringstream out;
    out << ".data acc 0\n.array buf 16\n";

    for (int r = 8; r <= 15; ++r)
        out << "li r" << r << ", " << rng.nextRange(-50, 50) << "\n";
    out << "li r20, " << rng.nextRange(outerMin, outerMax) << "\n";
    out << "outer:\n";

    int blocks = static_cast<int>(rng.nextRange(4, 8));
    for (int b = 0; b < blocks; ++b) {
        int ops = static_cast<int>(rng.nextRange(3, 8));
        for (int i = 0; i < ops; ++i) {
            int rd = static_cast<int>(rng.nextRange(8, 15));
            int rs1 = static_cast<int>(rng.nextRange(8, 15));
            int rs2 = static_cast<int>(rng.nextRange(8, 15));
            switch (rng.nextBelow(9)) {
              case 0:
                out << "add r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 1:
                out << "sub r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 2:
                out << "mul r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 3:
                out << "xor r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 4:
                out << "slt r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 5:
                // Crash-capable: rs2 may hold zero on some path.
                out << "div r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 6:
                out << "rem r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 7: {
                out << "andi r28, r" << rs1 << ", 15\n"
                    << "li r29, buf\n"
                    << "add r28, r28, r29\n"
                    << "st r" << rs2 << ", 0(r28)\n";
                break;
              }
              default: {
                out << "andi r28, r" << rs1 << ", 15\n"
                    << "li r29, buf\n"
                    << "add r28, r28, r29\n"
                    << "ld r" << rd << ", 0(r28)\n";
                break;
              }
            }
        }
        int rs1 = static_cast<int>(rng.nextRange(8, 15));
        int rs2 = static_cast<int>(rng.nextRange(8, 15));
        const char *cond =
            (const char *[]){"beq", "bne", "blt", "bge"}[rng.nextBelow(
                4)];
        out << cond << " r" << rs1 << ", r" << rs2 << ", blk" << seed
            << "_" << b + 1 << "\n";
        out << "addi r" << rs1 << ", r" << rs1 << ", 1\n";
        out << "blk" << seed << "_" << b + 1 << ":\n";
    }

    out << "addi r20, r20, -1\n"
        << "bgt r20, r0, outer\n";
    out << "li r21, 0\n";
    for (int r = 8; r <= 15; ++r)
        out << "xor r21, r21, r" << r << "\n";
    out << "sys print_int r21\n"
        << "sys exit\n";
    return out.str();
}

} // namespace pe::test

#endif // PE_TESTS_TIER_IDENTITY_HH
