/**
 * @file
 * Prime-path completion tracker: build, fold, merge, serialize.
 */

#include "src/coverage/pathcov.hh"

#include <bit>

#include "src/support/fnv.hh"
#include "src/support/status.hh"

namespace pe::coverage
{

namespace
{

/** Fold-walker step bound: replay can never exceed a real run. */
constexpr uint64_t kMaxFoldSteps = 1ull << 22;

} // namespace

PathCoverage::PathCoverage(const analysis::Cfg &cfg,
                           const analysis::PrimePathSet &set,
                           const std::vector<uint32_t> &cover)
{
    build(cfg, set, cover);
}

PathCoverage::PathCoverage(const isa::Program &program)
{
    const analysis::Cfg cfg(program);
    const analysis::PrimePathSet set =
        analysis::enumeratePrimePaths(cfg);
    build(cfg, set, analysis::computePathCover(cfg, set));
}

void
PathCoverage::build(const analysis::Cfg &cfg,
                    const analysis::PrimePathSet &set,
                    const std::vector<uint32_t> &cover)
{
    const auto &blocks = cfg.blocks();
    const auto &edges = cfg.edges();
    const isa::Program &program = cfg.program();

    pathCount = static_cast<uint32_t>(set.paths.size());
    setTruncated = set.truncated;
    if (program.entry < program.code.size())
        entryBlock = cfg.blockOf(program.entry);
    bits.assign((pathCount + 63) / 64, 0);

    // Flatten the edge sequences and the per-path decision keys.
    pathOffsets.assign(1, 0);
    decisionOffsets.assign(1, 0);
    startsAt.assign(blocks.size(), {});
    for (uint32_t id = 0; id < pathCount; ++id) {
        const analysis::PrimePath &p = set.paths[id];
        startsAt[p.startBlock].push_back(id);
        for (uint32_t e : p.edges) {
            pathEdges.push_back(e);
            const analysis::CfgEdge &edge = edges[e];
            if (edge.kind == analysis::EdgeKind::BranchTaken ||
                edge.kind == analysis::EdgeKind::BranchNotTaken) {
                const uint32_t pc = blocks[edge.from].lastPc;
                const bool taken =
                    edge.kind == analysis::EdgeKind::BranchTaken;
                pathDecisions.push_back((pc << 1) | (taken ? 1u : 0u));
            }
        }
        pathOffsets.push_back(
            static_cast<uint32_t>(pathEdges.size()));
        decisionOffsets.push_back(
            static_cast<uint32_t>(pathDecisions.size()));
    }
    coverIds = cover;

    // Walker tables: classify each block by its successor edge kinds
    // (the CFG already encodes the interpreter's control rules); only
    // the no-successor case needs the opcode, to tell a Jr return
    // from a genuine exit.
    const uint32_t nb = static_cast<uint32_t>(blocks.size());
    blockKind.assign(nb, BlockKind::Exit);
    branchPc.assign(nb, 0);
    succBlock.assign(nb, analysis::noBlock);
    succEdge.assign(nb, 0);
    altBlock.assign(nb, analysis::noBlock);
    altEdge.assign(nb, 0);
    retBlock.assign(nb, analysis::noBlock);
    retEdge.assign(nb, 0);
    for (uint32_t id = 0; id < nb; ++id) {
        BlockKind kind = BlockKind::Exit;
        for (uint32_t e : blocks[id].succs) {
            const analysis::CfgEdge &edge = edges[e];
            switch (edge.kind) {
              case analysis::EdgeKind::BranchTaken:
                kind = BlockKind::Cond;
                branchPc[id] = blocks[id].lastPc;
                succBlock[id] = edge.to;
                succEdge[id] = e;
                break;
              case analysis::EdgeKind::BranchNotTaken:
                kind = BlockKind::Cond;
                branchPc[id] = blocks[id].lastPc;
                altBlock[id] = edge.to;
                altEdge[id] = e;
                break;
              case analysis::EdgeKind::Jump:
                kind = BlockKind::Jump;
                succBlock[id] = edge.to;
                succEdge[id] = e;
                break;
              case analysis::EdgeKind::Call:
                kind = BlockKind::Call;
                succBlock[id] = edge.to;
                succEdge[id] = e;
                break;
              case analysis::EdgeKind::CallReturn:
                kind = BlockKind::Call;
                retBlock[id] = edge.to;
                retEdge[id] = e;
                break;
              case analysis::EdgeKind::FallThrough:
                kind = BlockKind::Fall;
                succBlock[id] = edge.to;
                succEdge[id] = e;
                break;
            }
        }
        if (blocks[id].succs.empty() &&
            program.code[blocks[id].lastPc].op == isa::Opcode::Jr)
            kind = BlockKind::Ret;
        blockKind[id] = kind;
    }
}

void
PathCoverage::visitBlock(uint32_t block, std::vector<Match> &active)
{
    for (uint32_t id : startsAt[block]) {
        if (pathOffsets[id + 1] == pathOffsets[id]) {
            completePath(id);   // one-block path completes on entry
            continue;
        }
        if (active.size() >= kMaxActiveMatches) {
            statOverflow++;
            continue;
        }
        active.push_back(Match{id, 0});
    }
}

void
PathCoverage::advance(std::vector<Match> &active, uint32_t edgeId)
{
    size_t out = 0;
    for (const Match &m : active) {
        const uint32_t off = pathOffsets[m.path];
        if (pathEdges[off + m.pos] != edgeId)
            continue;
        if (off + m.pos + 1 == pathOffsets[m.path + 1]) {
            completePath(m.path);
            continue;
        }
        active[out++] = Match{m.path, m.pos + 1};
    }
    active.resize(out);
}

void
PathCoverage::fold(const std::vector<uint32_t> &trace,
                   bool traceTruncated, bool cleanExit)
{
    statFolded++;
    if (traceTruncated)
        statTruncated++;
    if (entryBlock == analysis::noBlock)
        return;

    struct Frame
    {
        uint32_t retB;
        uint32_t retE;
        std::vector<Match> saved;
    };
    std::vector<Frame> frames;
    std::vector<Match> active;
    uint32_t cur = entryBlock;
    size_t ti = 0;
    bool desync = false;
    uint64_t steps = 0;

    for (;;) {
        if (++steps > kMaxFoldSteps) {
            desync = true;
            break;
        }
        visitBlock(cur, active);

        const BlockKind kind = blockKind[cur];
        if (kind == BlockKind::Exit)
            break;
        if (kind == BlockKind::Cond) {
            if (ti >= trace.size())
                break;   // crash or recording cap hit mid-run
            const uint32_t ev = trace[ti++];
            if ((ev >> 1) != branchPc[cur]) {
                desync = true;
                break;
            }
            const bool taken = (ev & 1) != 0;
            const uint32_t nb = taken ? succBlock[cur] : altBlock[cur];
            if (nb == analysis::noBlock)
                break;   // fell off the program end
            advance(active, taken ? succEdge[cur] : altEdge[cur]);
            cur = nb;
            continue;
        }

        // Non-consuming step.  A run that did not exit cleanly gets
        // no credit for the straight-line tail past its last branch:
        // the crash point is somewhere in there and the walk cannot
        // tell which side of it a block is on.
        if (!cleanExit && ti == trace.size())
            break;
        if (kind == BlockKind::Jump || kind == BlockKind::Fall) {
            if (succBlock[cur] == analysis::noBlock)
                break;
            advance(active, succEdge[cur]);
            cur = succBlock[cur];
            continue;
        }
        if (kind == BlockKind::Call) {
            if (succBlock[cur] == analysis::noBlock)
                break;
            if (frames.size() >= kMaxFoldDepth) {
                desync = true;
                break;
            }
            frames.push_back(Frame{retBlock[cur], retEdge[cur],
                                   std::move(active)});
            active.clear();
            cur = succBlock[cur];
            continue;
        }
        // Ret: resume the caller's suspended matches across the
        // CallReturn edge (intraprocedural path semantics).
        if (frames.empty()) {
            desync = true;
            break;
        }
        Frame f = std::move(frames.back());
        frames.pop_back();
        active = std::move(f.saved);
        if (f.retB == analysis::noBlock)
            break;
        advance(active, f.retE);
        cur = f.retB;
    }
    if (desync)
        statDesync++;
}

void
PathCoverage::merge(const PathCoverage &other)
{
    pe_assert(other.pathCount == pathCount,
              "merging path trackers of different programs");
    for (size_t i = 0; i < bits.size(); ++i)
        bits[i] |= other.bits[i];
    statFolded += other.statFolded;
    statTruncated += other.statTruncated;
    statDesync += other.statDesync;
    statOverflow += other.statOverflow;
}

void
PathCoverage::mergeWords(const std::vector<uint64_t> &incoming)
{
    pe_assert(incoming.size() == bits.size(),
              "merging path words of a different path-id space");
    for (size_t i = 0; i < bits.size(); ++i)
        bits[i] |= incoming[i];
}

uint64_t
PathCoverage::completedCount() const
{
    uint64_t n = 0;
    for (uint64_t w : bits)
        n += static_cast<uint64_t>(std::popcount(w));
    return n;
}

uint64_t
PathCoverage::coverCompleted() const
{
    uint64_t n = 0;
    for (uint32_t id : coverIds)
        n += completed(id) ? 1 : 0;
    return n;
}

double
PathCoverage::coverAdjacency(const std::vector<uint64_t> &takenWords,
                             const std::vector<uint64_t> &ntWords) const
{
    auto has = [](const std::vector<uint64_t> &words, uint32_t key) {
        const size_t word = key >> 6;
        return word < words.size() && ((words[word] >> (key & 63)) & 1);
    };
    double energy = 0.0;
    for (uint32_t id : coverIds) {
        if (completed(id))
            continue;
        const uint32_t lo = decisionOffsets[id];
        const uint32_t hi = decisionOffsets[id + 1];
        if (lo == hi)
            continue;
        uint32_t covered = 0;
        for (uint32_t i = lo; i < hi; ++i) {
            const uint32_t key = pathDecisions[i];
            if (has(takenWords, key) || has(ntWords, key))
                covered++;
        }
        energy += static_cast<double>(covered) /
                  static_cast<double>(hi - lo);
    }
    return energy;
}

uint64_t
PathCoverage::digest() const
{
    uint64_t h = fnvMix(kFnvOffset, pathCount);
    for (uint64_t w : bits)
        h = fnvMix(h, w);
    return h;
}

void
PathCoverage::encodeState(wire::Encoder &enc) const
{
    enc.u64(statFolded);
    enc.u64(statTruncated);
    enc.u64(statDesync);
    enc.u64(statOverflow);
    enc.u64vec(bits);
}

void
PathCoverage::decodeState(wire::Decoder &dec)
{
    const uint64_t folded = dec.u64("path folded runs");
    const uint64_t truncatedRuns = dec.u64("path truncated runs");
    const uint64_t desync = dec.u64("path desync runs");
    const uint64_t overflow = dec.u64("path match overflows");
    std::vector<uint64_t> saved = dec.u64vec("path words");
    if (saved.size() != bits.size()) {
        throw wire::WireError(
            wire::WireErrorKind::Mismatch,
            detail::concat("path completion words size mismatch: "
                           "expected ",
                           bits.size(), ", found ", saved.size()),
            bits.size(), saved.size());
    }
    statFolded = folded;
    statTruncated = truncatedRuns;
    statDesync = desync;
    statOverflow = overflow;
    bits = std::move(saved);
}

} // namespace pe::coverage
