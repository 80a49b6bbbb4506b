/**
 * @file
 * Google-benchmark micro-benchmarks of the simulator substrate:
 * interpreter dispatch, cache model, BTB, versioned-buffer access and
 * whole-engine throughput.  These are performance baselines for the
 * simulator itself (host-side), not paper results.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "bench_util.hh"
#include "src/branch/btb.hh"
#include "src/core/engine.hh"
#include "src/coverage/coverage.hh"
#include "src/isa/assembler.hh"
#include "src/mem/cache.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/minic/compiler.hh"
#include "src/support/rng.hh"
#include "src/workloads/workload.hh"

using namespace pe;

namespace
{

const char *loopSource = R"(
int acc = 0;
int main() {
    int i = 0;
    while (i < 20000) {
        if (i % 3 == 0) {
            acc = acc + i;
        } else {
            acc = acc - 1;
        }
        i = i + 1;
    }
    print_int(acc);
    return 0;
}
)";

void
BM_InterpreterThroughput(benchmark::State &state)
{
    auto program = minic::compile(loopSource, "loop");
    auto cfg = core::PeConfig::forMode(core::PeMode::Off);
    uint64_t instructions = 0;
    for (auto _ : state) {
        core::PathExpanderEngine engine(program, cfg);
        auto r = engine.run({});
        instructions += r.takenInstructions;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput)->Unit(benchmark::kMillisecond);

void
BM_InterpreterThroughputLegacy(benchmark::State &state)
{
    auto program = minic::compile(loopSource, "loop");
    auto cfg = core::PeConfig::forMode(core::PeMode::Off);
    cfg.legacyStepLoop = true;
    uint64_t instructions = 0;
    for (auto _ : state) {
        core::PathExpanderEngine engine(program, cfg);
        auto r = engine.run({});
        instructions += r.takenInstructions;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughputLegacy)
    ->Unit(benchmark::kMillisecond);

void
BM_EngineStandardMode(benchmark::State &state)
{
    auto program = minic::compile(loopSource, "loop");
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    for (auto _ : state) {
        core::PathExpanderEngine engine(program, cfg);
        auto r = engine.run({});
        benchmark::DoNotOptimize(r.ntPathsSpawned);
    }
}
BENCHMARK(BM_EngineStandardMode)->Unit(benchmark::kMillisecond);

void
BM_EngineCmpMode(benchmark::State &state)
{
    auto program = minic::compile(loopSource, "loop");
    auto cfg = core::PeConfig::forMode(core::PeMode::Cmp);
    for (auto _ : state) {
        core::PathExpanderEngine engine(program, cfg);
        auto r = engine.run({});
        benchmark::DoNotOptimize(r.ntPathsSpawned);
    }
}
BENCHMARK(BM_EngineCmpMode)->Unit(benchmark::kMillisecond);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache cache(mem::defaultL1Geometry());
    Rng rng(42);
    std::vector<uint32_t> addrs(4096);
    for (auto &a : addrs)
        a = static_cast<uint32_t>(rng.nextBelow(1 << 16));
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i & 4095]));
        ++i;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_BtbLookupUpdate(benchmark::State &state)
{
    branch::Btb btb;
    Rng rng(7);
    std::vector<uint32_t> pcs(1024);
    for (auto &pc : pcs)
        pc = static_cast<uint32_t>(rng.nextBelow(1 << 14));
    size_t i = 0;
    for (auto _ : state) {
        uint32_t pc = pcs[i & 1023];
        benchmark::DoNotOptimize(btb.count(pc, false));
        btb.increment(pc, (i & 1) != 0);
        ++i;
    }
}
BENCHMARK(BM_BtbLookupUpdate);

void
BM_VersionedBufferChain(benchmark::State &state)
{
    mem::MainMemory memory(1 << 16);
    mem::VersionedBuffer a(1);
    mem::VersionedBuffer b(2);
    b.setParent(&a);
    Rng rng(99);
    for (int i = 0; i < 256; ++i)
        a.write(static_cast<uint32_t>(rng.nextBelow(1 << 12)), i);
    mem::MemCtx ctx(memory, &b);
    size_t i = 0;
    for (auto _ : state) {
        uint32_t addr = static_cast<uint32_t>(i * 97 % (1 << 12));
        ctx.write(addr, static_cast<int32_t>(i));
        benchmark::DoNotOptimize(ctx.read(addr ^ 1));
        ++i;
    }
}
BENCHMARK(BM_VersionedBufferChain);

void
BM_VersionedBufferWrite(benchmark::State &state)
{
    // The NT-Path store hot path: buffered writes over a working set
    // whose size is the sweep parameter (line reuse at the small end,
    // table growth pressure at the large end).
    const uint32_t span = static_cast<uint32_t>(state.range(0));
    Rng rng(11);
    std::vector<uint32_t> addrs(4096);
    for (auto &a : addrs)
        a = static_cast<uint32_t>(rng.nextBelow(span));
    mem::VersionedBuffer buf(1);
    size_t i = 0;
    for (auto _ : state) {
        buf.write(addrs[i & 4095], static_cast<int32_t>(i));
        ++i;
        if ((i & 0xffff) == 0)
            buf.clear();    // bound the table like a real squash does
    }
    benchmark::DoNotOptimize(buf.numWords());
}
BENCHMARK(BM_VersionedBufferWrite)->Arg(64)->Arg(1 << 10)->Arg(1 << 14);

void
BM_VersionedBufferSquash(benchmark::State &state)
{
    // Fill-then-squash cycle: the gang-invalidate cost the paper's
    // Vtag flash-clear models, proportional to table capacity.
    const int64_t writes = state.range(0);
    Rng rng(12);
    mem::VersionedBuffer buf(1);
    for (auto _ : state) {
        for (int64_t i = 0; i < writes; ++i) {
            buf.write(static_cast<uint32_t>(rng.nextBelow(1 << 14)),
                      static_cast<int32_t>(i));
        }
        buf.clear();
    }
    state.SetItemsProcessed(state.iterations() * writes);
}
BENCHMARK(BM_VersionedBufferSquash)->Arg(64)->Arg(1024);

void
BM_VersionedBufferCommit(benchmark::State &state)
{
    // Drain a pre-filled write set into main memory (CMP segment
    // commit).  The buffer is rebuilt once outside the timed region
    // and commitTo is const, so each iteration commits the same set.
    const int64_t writes = state.range(0);
    mem::MainMemory memory(1 << 16);
    mem::VersionedBuffer buf(1);
    Rng rng(13);
    for (int64_t i = 0; i < writes; ++i) {
        buf.write(static_cast<uint32_t>(rng.nextBelow(1 << 14)),
                  static_cast<int32_t>(i));
    }
    for (auto _ : state) {
        buf.commitTo(memory);
        benchmark::DoNotOptimize(&memory);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * writes);
}
BENCHMARK(BM_VersionedBufferCommit)->Arg(64)->Arg(1024);

void
BM_BranchCoverageMerge(benchmark::State &state)
{
    // Campaign merge-reduce: OR one run's bitmap into the cumulative
    // one for a synthetic program of range(0) branches.
    const int64_t branches = state.range(0);
    isa::Program p;
    p.code.push_back(isa::makeLi(8, 1));
    for (int64_t b = 0; b < branches; ++b)
        p.code.push_back(isa::makeBranch(isa::Opcode::Beq, 8, 0, 0));
    coverage::BranchCoverage run(p);
    Rng rng(14);
    for (int64_t b = 1; b <= branches; ++b) {
        if (rng.nextBool(0.5))
            run.onTakenEdge(static_cast<uint32_t>(b), rng.nextBool());
    }
    coverage::BranchCoverage cum(p);
    for (auto _ : state) {
        cum.mergeFrom(run);
        benchmark::DoNotOptimize(cum.combinedCovered());
    }
}
BENCHMARK(BM_BranchCoverageMerge)->Arg(1 << 10)->Arg(1 << 14);

void
BM_MiniCCompile(benchmark::State &state)
{
    const auto &w = workloads::getWorkload("print_tokens2");
    for (auto _ : state) {
        auto program = minic::compile(w.source, w.name);
        benchmark::DoNotOptimize(program.code.size());
    }
}
BENCHMARK(BM_MiniCCompile)->Unit(benchmark::kMillisecond);

/**
 * A long straight-line kernel: iterations of ~250 ALU/immediate
 * instructions ended by one backward branch.  The best case for the
 * block-stepped loop (one surfacing instruction per 250), and close
 * to the interpreter's intrinsic dispatch ceiling.
 */
isa::Program
straightLineProgram(int iterations)
{
    std::ostringstream out;
    out << "li r8, 1\nli r9, 2\nli r10, 3\nli r11, 4\n"
        << "li r20, " << iterations << "\n"
        << "loop:\n";
    for (int i = 0; i < 62; ++i) {
        out << "add r8, r8, r9\n"
            << "xor r9, r9, r10\n"
            << "addi r10, r10, 3\n"
            << "slt r11, r8, r10\n";
    }
    out << "addi r20, r20, -1\n"
        << "bgt r20, r0, loop\n"
        << "sys print_int r8\n"
        << "sys exit\n";
    return isa::assemble(out.str(), "straightline");
}

/**
 * Simulated MIPS of @p program under @p cfg: total simulated (taken)
 * instructions per host wall-clock second, over @p reps engine runs.
 */
double
simulatedMips(const isa::Program &program, const core::PeConfig &cfg,
              int reps)
{
    uint64_t instructions = 0;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
        core::PathExpanderEngine engine(program, cfg);
        auto r = engine.run({});
        instructions += r.takenInstructions + r.ntInstructions;
        benchmark::DoNotOptimize(r.cycles);
    }
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return static_cast<double>(instructions) / 1e6 /
           elapsed.count();
}

/**
 * The interpreter-throughput record: simulated MIPS of the legacy
 * per-step loop vs the block-stepped loop on the straight-line
 * kernel and on the branchy mixed loop, landing in the bench's JSON
 * artifact so the speedup trajectory is tracked across revisions.
 */
void
recordInterpreterMips(bench::BenchJson &json)
{
    auto offCfg = core::PeConfig::forMode(core::PeMode::Off);
    auto legacyCfg = offCfg;
    legacyCfg.legacyStepLoop = true;

    auto straight = straightLineProgram(60000);
    double straightLegacy = simulatedMips(straight, legacyCfg, 3);
    double straightBlock = simulatedMips(straight, offCfg, 3);

    auto mixed = minic::compile(loopSource, "loop");
    double mixedLegacy = simulatedMips(mixed, legacyCfg, 20);
    double mixedBlock = simulatedMips(mixed, offCfg, 20);

    json.set("mips_legacy_straightline", straightLegacy);
    json.set("mips_block_straightline", straightBlock);
    json.set("mips_speedup_straightline",
             straightBlock / straightLegacy);
    json.set("mips_legacy_mixed", mixedLegacy);
    json.set("mips_block_mixed", mixedBlock);
    json.set("mips_speedup_mixed", mixedBlock / mixedLegacy);

    printf("\nSimulated-MIPS (legacy -> block-stepped):\n"
           "  straight-line: %.1f -> %.1f MIPS (%.2fx)\n"
           "  mixed loop:    %.1f -> %.1f MIPS (%.2fx)\n",
           straightLegacy, straightBlock,
           straightBlock / straightLegacy, mixedLegacy, mixedBlock,
           mixedBlock / mixedLegacy);
}

/**
 * A kernel built to saturate: an outer counted loop around a short
 * inner loop whose conditional branches all alternate direction, so
 * every taken-path coverage bit records within the first outer
 * iterations and (with threshold == counter cap) every exercise
 * counter climbs to its cap shortly after.  From then on the whole
 * inner loop — branches included — is one superblock per outer
 * iteration, broken only by the outer loop-back branch (whose exit
 * direction stays cold until the very end, the usual fate of a
 * run-once edge).
 */
isa::Program
saturatedProgram(int iterations)
{
    std::ostringstream out;
    out << "li r8, 0\n"
        << "li r20, " << iterations << "\n"
        << "li r21, 4\nli r9, 1\nli r10, 3\n"
        << "outer:\n"
        << "li r12, 0\n"
        << "inner:\n"
        // Branch 1: direction flips every inner iteration.
        << "andi r13, r12, 1\n"
        << "beq r13, r0, even\n"
        << "add r9, r9, r10\n"
        << "jmp join1\n"
        << "even:\n"
        << "sub r9, r9, r10\n"
        << "join1:\n"
        // Branch 2: direction flips every second inner iteration.
        << "andi r13, r12, 2\n"
        << "bne r13, r0, skip2\n"
        << "xor r10, r10, r9\n"
        << "skip2:\n";
    // A little ALU meat between branches — kept short so the kernel
    // stays branch-dense: the pruned path's win is the elided
    // per-branch surface/re-dispatch plus the instrumentation, and
    // long straight-line runs stream at the same speed either way.
    for (int i = 0; i < 2; ++i) {
        out << "add r9, r9, r10\n"
            << "xori r10, r10, 21\n"
            << "slt r14, r9, r10\n";
    }
    out << "addi r12, r12, 1\n"
        // Branch 3: the inner loop-back, taken 3 of 4 times.
        << "blt r12, r21, inner\n"
        << "addi r8, r8, 1\n"
        << "blt r8, r20, outer\n"
        << "sys print_int r9\n"
        << "sys exit\n";
    return isa::assemble(out.str(), "saturated");
}

/**
 * The self-pruning record: simulated MIPS of Standard mode on the
 * saturating kernel with cfg.selfPrune off vs on, after asserting
 * the two configurations produce identical results (the superblock
 * contract) and that the pruned path actually engaged.  The spawn
 * threshold is raised to the counter cap so "below threshold" and
 * "below cap" coincide: the spawn-entry bumps then drive each
 * non-taken edge's counter all the way to saturation, which is what
 * lets the saturation predicate retire the branch.
 */
void
recordSaturatedMips(bench::BenchJson &json)
{
    auto program = saturatedProgram(30000);
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = 100;
    cfg.ntPathCounterThreshold = 15;    // == 4-bit counter cap
    auto prunedCfg = cfg;
    prunedCfg.selfPrune = true;

    {
        core::PathExpanderEngine plain(program, cfg);
        core::PathExpanderEngine pruned(program, prunedCfg);
        auto a = plain.run({});
        auto b = pruned.run({});
        if (a.cycles != b.cycles ||
            a.takenInstructions != b.takenInstructions ||
            a.ntInstructions != b.ntInstructions ||
            a.ntPathsSpawned != b.ntPathsSpawned ||
            a.memoryDigest != b.memoryDigest ||
            a.coverage.combinedCovered() !=
                b.coverage.combinedCovered() ||
            a.ntRecords.size() != b.ntRecords.size()) {
            fprintf(stderr, "FATAL: selfPrune run diverged from the "
                            "instrumented run on the saturated kernel\n");
            exit(1);
        }
        if (b.prunedInstructions == 0) {
            fprintf(stderr, "FATAL: selfPrune never engaged on the "
                            "saturated kernel\n");
            exit(1);
        }
        json.set("pruned_instruction_fraction",
                 static_cast<double>(b.prunedInstructions) /
                     static_cast<double>(b.takenInstructions));
    }

    double instrumented = simulatedMips(program, cfg, 10);
    double prunedMips = simulatedMips(program, prunedCfg, 10);

    json.set("mips_instrumented_saturated", instrumented);
    json.set("mips_pruned_saturated", prunedMips);
    json.set("mips_selfprune_speedup", prunedMips / instrumented);

    printf("\nSimulated-MIPS (instrumented -> self-pruned, saturated "
           "kernel):\n  %.1f -> %.1f MIPS (%.2fx)\n",
           instrumented, prunedMips, prunedMips / instrumented);
}

/**
 * The per-run fixed-cost record: median host time of
 * PathExpanderEngine::run on a program that only exits, at the
 * default 4 MB layout and at a 256 KB one.  A run should pay for the
 * memory pages it writes, not for the size of the image, so CI gates
 * the ratio of the two; host speed cancels out of a ratio.
 */
void
recordRunFixedCost(bench::BenchJson &json)
{
    auto program = isa::assemble("    sys exit\n", "exit");
    auto medianRunUs = [&](const core::PeConfig &cfg) {
        core::PathExpanderEngine engine(program, cfg);
        std::vector<double> us;
        for (int i = 0; i < 201; ++i) {
            auto start = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(engine.run({}));
            us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count());
        }
        std::nth_element(us.begin(), us.begin() + us.size() / 2,
                         us.end());
        return us[us.size() / 2];
    };

    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    auto small = cfg;
    small.layout.memWords = 1u << 16;
    small.layout.stackWords = 1u << 14;
    double defaultUs = medianRunUs(cfg);
    double smallUs = medianRunUs(small);

    json.set("run_fixed_us_default_layout", defaultUs);
    json.set("run_fixed_us_small_layout", smallUs);
    json.set("run_fixed_layout_ratio", defaultUs / smallUs);

    printf("\nPer-run fixed cost (sys exit, Standard mode):\n"
           "  %u-word image: %.1f us, %u-word image: %.1f us (%.2fx)\n",
           cfg.layout.memWords, defaultUs, small.layout.memWords,
           smallUs, defaultUs / smallUs);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    bench::BenchJson json("bench_sim_micro");
    recordInterpreterMips(json);
    recordSaturatedMips(json);
    recordRunFixedCost(json);
    json.write();
    return 0;
}
