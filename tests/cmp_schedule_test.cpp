/**
 * @file
 * The CMP driver's scheduler against the per-step loop.
 *
 * Each core runs its private work in one block and stops before its
 * next shared event, which then runs only when the core is the
 * least-advanced one, so the block-stepped run must equal the
 * per-step loop (`legacyStepLoop`) in every RunResult field.  These
 * cases aim at the events whose order that rests on: an NT-Path store
 * that overflows its write set although its line hits L1, and the CMP
 * geometry (cores, outstanding NT-Paths, segment depth) under timings
 * that force clock ties and long port waits.  One more case holds the
 * pick rule's tie-break, which both loops share, against values pinned
 * from a known-good build.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine.hh"
#include "src/isa/assembler.hh"
#include "src/mem/hierarchy.hh"
#include "src/minic/compiler.hh"
#include "src/support/fnv.hh"
#include "src/workloads/workload.hh"
#include "tier_identity.hh"

namespace
{

using namespace pe;
using test::blockRunMatchesLegacy;

constexpr int kFillPaths = 7;

/**
 * Seven spawn branches, @p spacing ALU instructions apart, each
 * spawning an NT-Path into the fill code with r20 = 7, 6, ..., 1.  The
 * NT-Path stores to as many distinct lines as the L1 holds, which
 * fills its write set, then loads one more line, which brings that
 * line into L1.  It spins r20 * @p spin iterations and stores to the
 * loaded line: an L1 hit that overflows the write set.  The taken
 * path spins long enough for every NT-Path to end first.
 */
isa::Program
overflowProgram(int spacing, int spin)
{
    const uint32_t lines = mem::defaultL1Geometry().numLines();
    std::ostringstream out;
    out << "li r9, 65536\n"
        << "li r10, 1\n";
    for (int k = kFillPaths; k >= 1; --k) {
        out << "li r20, " << k << "\n";
        for (int i = 0; i < spacing; ++i)
            out << "addi r12, r12, 1\n";
        out << "beq r0, r0, taken" << k << "\n"
            << "jmp fill\n"
            << "taken" << k << ":\n";
    }
    out << "li r21, 400000\n"
        << "tail:\n"
        << "addi r21, r21, -1\n"
        << "bgt r21, r0, tail\n"
        << "sys exit\n"
        << "fill:\n"
        << "li r15, " << spin << "\n"
        << "mul r14, r20, r15\n";
    for (uint32_t i = 0; i < lines; ++i)
        out << "st r10, " << 8 * i << "(r9)\n";
    out << "ld r13, " << 8 * lines << "(r9)\n"
        << "wait:\n"
        << "addi r14, r14, -1\n"
        << "bgt r14, r0, wait\n"
        << "st r10, " << 8 * lines << "(r9)\n"
        << "sys exit\n";
    return isa::assemble(out.str(), "overflow_hit");
}

/**
 * The length of the fill NT-Path spawned with r20 = @p k once its
 * overflowing store has run: jmp, li, mul, the fill stores, the load,
 * two instructions per wait iteration, the store.
 */
uint64_t
overflowLength(int k, int spin)
{
    return 3 + mem::defaultL1Geometry().numLines() + 1 +
           2 * static_cast<uint64_t>(k) * spin + 1;
}

TEST(CmpSchedule, OverflowingStoreThatHitsL1)
{
    // The overflowing store hits L1, so only the write-set bound makes
    // it shared: it must run when its core is picked, where the
    // per-step loop runs it and ends the path, not early in a private
    // run.  Path lengths around the r20 = 4 path's overflow point mix
    // overflow and length-bound ends among paths that run at once.
    uint64_t overflows = 0;
    uint64_t maxLength = 0;
    for (int cores : {3, 4}) {
        for (int spacing : {0, 3, 17}) {
            for (int spin : {5, 40, 300}) {
                const isa::Program program = overflowProgram(spacing, spin);
                for (uint64_t extra : {0, 7, 60, 400, 2500}) {
                    SCOPED_TRACE("cores " + std::to_string(cores) +
                                 ", spacing " + std::to_string(spacing) +
                                 ", spin " + std::to_string(spin) +
                                 ", extra " + std::to_string(extra));
                    auto cfg = core::PeConfig::forMode(core::PeMode::Cmp);
                    cfg.numCores = cores;
                    cfg.maxNtPathLength = static_cast<uint32_t>(
                        overflowLength(4, spin) + extra);
                    const core::RunResult r =
                        blockRunMatchesLegacy(program, cfg);
                    std::set<uint64_t> afterStore;
                    for (int k = 1; k <= kFillPaths; ++k)
                        afterStore.insert(overflowLength(k, spin));
                    int fills = 0;
                    for (const core::NtPathRecord &rec : r.ntRecords) {
                        if (rec.cause ==
                            core::NtStopCause::CapacityOverflow) {
                            // It stops right after the store.
                            EXPECT_EQ(afterStore.count(rec.length), 1u)
                                << rec.length;
                            ++overflows;
                            ++fills;
                        } else if (rec.cause ==
                                   core::NtStopCause::MaxLength) {
                            ++maxLength;
                            ++fills;
                        }
                    }
                    EXPECT_EQ(fills, kFillPaths);
                }
            }
        }
    }
    EXPECT_GT(overflows, 0u);
    EXPECT_GT(maxLength, 0u);
}

TEST(CmpSchedule, GeometrySweepMatchesPerStepLoop)
{
    struct Case
    {
        std::string name;
        isa::Program program;
        std::vector<int32_t> input;
        uint32_t maxNtPathLength;
    };
    std::vector<Case> cases;
    for (const char *name : {"schedule", "print_tokens", "pe_bc"}) {
        const auto &w = workloads::getWorkload(name);
        cases.push_back({name, minic::compile(w.source, w.name),
                         w.benignInputs[0], w.maxNtPathLength});
    }
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const std::string name = "generated_" + std::to_string(seed);
        cases.push_back({name,
                         isa::assemble(test::generateProgram(seed, 3, 8),
                                       name),
                         {}, 60});
    }

    // Table 2; no spawn or squash overhead, so a new NT core starts
    // on the primary's clock and the two tie; slow shared ports, so
    // port waits outlast many private instructions.
    const sim::TimingConfig table2 =
        core::PeConfig::forMode(core::PeMode::Cmp).timing;
    sim::TimingConfig ties = table2;
    ties.spawnOverhead = 0;
    ties.squashOverhead = 0;
    sim::TimingConfig slowPorts = table2;
    slowPorts.mem.l2PortHold = 40;
    slowPorts.mem.memPortHold = 150;
    const sim::TimingConfig timings[] = {table2, ties, slowPorts};
    const char *timingNames[] = {"table 2", "no overheads", "slow ports"};

    uint64_t forced = 0;
    uint64_t busy = 0;
    for (const Case &c : cases) {
        for (int t = 0; t < 3; ++t) {
            for (int cores : {2, 3, 4, 8}) {
                for (uint32_t paths : {1u, 3u, 64u}) {
                    for (uint32_t depth : {1u, 3u, 48u}) {
                        SCOPED_TRACE(c.name + ", " + timingNames[t] +
                                     ", cores " + std::to_string(cores) +
                                     ", paths " + std::to_string(paths) +
                                     ", depth " + std::to_string(depth));
                        auto cfg =
                            core::PeConfig::forMode(core::PeMode::Cmp);
                        cfg.maxNtPathLength = c.maxNtPathLength;
                        cfg.timing = timings[t];
                        cfg.numCores = cores;
                        cfg.maxNumNtPaths = paths;
                        cfg.maxSegmentDepth = depth;
                        const core::RunResult r =
                            blockRunMatchesLegacy(c.program, cfg, c.input);
                        busy += r.ntPathsSkippedBusy;
                        for (const core::NtPathRecord &rec : r.ntRecords)
                            forced +=
                                rec.cause == core::NtStopCause::ForcedSquash;
                    }
                }
            }
        }
    }
    EXPECT_GT(forced, 0u);
    EXPECT_GT(busy, 0u);
}

/**
 * The pick rule's tie-break against values computed before it could
 * change: the primary wins a clock tie, then the lower core index.
 * Both sides of every block-vs-per-step test run the same pick rule,
 * so only values pinned from a known-good build catch a change to it:
 * letting an NT core win a tie (and its block start at the primary's
 * clock) moves every case below — the cycles of pe_go, print_tokens
 * and print_tokens2, the per-core clocks of pe_bc and pe_vpr, and the
 * NT-Path lengths of all five.  Pinned: the primary's cycles, every
 * core's clock, the NT-Path count and instructions, and an FNV-1a
 * digest of the NT records in order (spawn PC, direction, length,
 * stop cause).  Both tiers must give them.
 */
TEST(CmpSchedule, PickRuleTieBreakIsPinned)
{
    struct Pinned
    {
        const char *app;
        size_t input;
        uint64_t cycles;
        std::vector<uint64_t> coreCycles;
        size_t ntPaths;
        uint64_t ntInstructions;
        uint64_t ntDigest;
    };
    const Pinned cases[] = {
        {"pe_bc", 0, 16536, {16536, 16806, 16779, 16806}, 158, 20125,
         0x892e38a7ee526ee6ull},
        {"print_tokens", 0, 81416, {81416, 81345, 54298, 21354}, 230,
         28432, 0x914bd79edb5d88cfull},
        {"print_tokens2", 1, 31486, {31486, 31634, 31483, 31488}, 259,
         26629, 0x865e501c7ee5ce47ull},
        {"pe_go", 0, 1395163, {1395163, 1394813, 1395163, 1394727}, 315,
         293300, 0x34ac99eb6eb98bbeull},
        {"pe_vpr", 3, 946732, {946732, 946732, 946732, 946433}, 164,
         115823, 0x343e384096206a57ull},
    };
    for (const Pinned &pin : cases) {
        const auto &w = workloads::getWorkload(pin.app);
        const isa::Program program = minic::compile(w.source, w.name);
        for (bool legacy : {false, true}) {
            SCOPED_TRACE(std::string(pin.app) + " input " +
                         std::to_string(pin.input) +
                         (legacy ? ", per-step loop" : ", block tier"));
            auto cfg = core::PeConfig::forMode(core::PeMode::Cmp);
            cfg.maxNtPathLength = w.maxNtPathLength;
            cfg.legacyStepLoop = legacy;
            core::PathExpanderEngine engine(program, cfg);
            const core::RunResult r = engine.run(w.benignInputs[pin.input]);
            uint64_t digest = kFnvOffset;
            for (const core::NtPathRecord &rec : r.ntRecords) {
                digest = fnvMix(digest, rec.spawnBranchPc);
                digest = fnvMix(digest, rec.spawnEdgeTaken);
                digest = fnvMix(digest, rec.length);
                digest = fnvMix(digest, static_cast<uint64_t>(rec.cause));
            }
            EXPECT_EQ(r.cycles, pin.cycles);
            EXPECT_EQ(r.coreCycles, pin.coreCycles);
            EXPECT_EQ(r.ntRecords.size(), pin.ntPaths);
            EXPECT_EQ(r.ntInstructions, pin.ntInstructions);
            EXPECT_EQ(digest, pin.ntDigest);
        }
    }
}

} // namespace
