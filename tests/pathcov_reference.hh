/**
 * @file
 * The (path, pos) match-set fold, kept as a test oracle for
 * src/coverage/pathcov.cc.
 *
 * This is the original PathCoverage build and fold, unchanged but for
 * the namespace, inline linkage, the step bound as a class constant,
 * and the parts the fold does not use (decision keys, cover, merge,
 * digests), which are left out.  Every
 * call frame carries the set of in-flight (path, pos) matches: entering
 * a block starts a match for every path that begins there, and every
 * walked edge advances the matches that expect it and drops the rest.
 * The library's automaton must leave exactly the completion words and
 * counters this fold leaves, after every fold
 * (primepath_test.cpp), and this fold's overflow counter must
 * stay 0: the library no longer has one, and writes 0 in its slot of
 * the encoded state.
 */

#ifndef PE_TESTS_PATHCOV_REFERENCE_HH
#define PE_TESTS_PATHCOV_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "src/analysis/cfg.hh"
#include "src/analysis/primepaths.hh"
#include "src/fleet/wire.hh"
#include "src/isa/program.hh"

namespace pe::coverage::reference
{

class PathCoverage
{
  public:
    /** In-flight (path, pos) matches per call frame, hard cap. */
    static constexpr uint32_t kMaxActiveMatches = 4096;

    /** Call-stack depth cap for the fold walker. */
    static constexpr uint32_t kMaxFoldDepth = 1024;

    /** Fold-walker step bound: replay can never exceed a real run. */
    static constexpr uint64_t kMaxFoldSteps = 1ull << 22;

    PathCoverage(const analysis::Cfg &cfg,
                 const analysis::PrimePathSet &set)
    {
        build(cfg, set);
    }

    explicit PathCoverage(const isa::Program &program)
    {
        const analysis::Cfg cfg(program);
        build(cfg, analysis::enumeratePrimePaths(cfg));
    }

    inline void fold(const std::vector<uint32_t> &trace,
                     bool traceTruncated, bool cleanExit);

    const std::vector<uint64_t> &words() const { return bits; }

    uint64_t foldedRuns() const { return statFolded; }
    uint64_t truncatedRuns() const { return statTruncated; }
    uint64_t desyncRuns() const { return statDesync; }
    uint64_t overflowedMatches() const { return statOverflow; }

    void encodeState(wire::Encoder &enc) const
    {
        enc.u64(statFolded);
        enc.u64(statTruncated);
        enc.u64(statDesync);
        enc.u64(statOverflow);
        enc.u64vec(bits);
    }

  private:
    struct Match
    {
        uint32_t path;
        uint32_t pos;
    };

    inline void build(const analysis::Cfg &cfg,
                      const analysis::PrimePathSet &set);
    inline void visitBlock(uint32_t block, std::vector<Match> &active);
    inline void advance(std::vector<Match> &active, uint32_t edgeId);
    void completePath(uint32_t pathId)
    {
        bits[pathId >> 6] |= 1ull << (pathId & 63);
    }

    /** How a block's terminator moves control (fold walker tables). */
    enum class BlockKind : uint8_t
    {
        Exit,       //!< Sys exit or no successor: the walk ends
        Cond,       //!< conditional branch: consume one trace event
        Jump,       //!< unconditional Jmp
        Call,       //!< Jal: push frame, descend
        Ret,        //!< Jr: pop frame, take the CallReturn edge
        Fall,       //!< straight-line fall-through
    };

    uint32_t pathCount = 0;
    uint32_t entryBlock = analysis::noBlock;

    /** Flattened per-path edge sequences: [offsets[i], offsets[i+1]). */
    std::vector<uint32_t> pathEdges;
    std::vector<uint32_t> pathOffsets;

    /** Path ids starting at each block. */
    std::vector<std::vector<uint32_t>> startsAt;

    /** Per-block walker tables (indexed by block id). */
    std::vector<BlockKind> blockKind;
    std::vector<uint32_t> branchPc;     //!< Cond: terminator pc
    std::vector<uint32_t> succBlock;    //!< primary successor block
    std::vector<uint32_t> succEdge;     //!< primary successor edge id
    std::vector<uint32_t> altBlock;     //!< Cond: not-taken block
    std::vector<uint32_t> altEdge;      //!< Cond: not-taken edge id
    std::vector<uint32_t> retBlock;     //!< Call: return-landing block
    std::vector<uint32_t> retEdge;      //!< Call: CallReturn edge id

    std::vector<uint64_t> bits;

    uint64_t statFolded = 0;
    uint64_t statTruncated = 0;
    uint64_t statDesync = 0;
    uint64_t statOverflow = 0;
};

inline void
PathCoverage::build(const analysis::Cfg &cfg,
                    const analysis::PrimePathSet &set)
{
    const auto &blocks = cfg.blocks();
    const auto &edges = cfg.edges();
    const isa::Program &program = cfg.program();

    pathCount = static_cast<uint32_t>(set.paths.size());
    if (program.entry < program.code.size())
        entryBlock = cfg.blockOf(program.entry);
    bits.assign((pathCount + 63) / 64, 0);

    // Flatten the edge sequences.
    pathOffsets.assign(1, 0);
    startsAt.assign(blocks.size(), {});
    for (uint32_t id = 0; id < pathCount; ++id) {
        const analysis::PrimePath &p = set.paths[id];
        startsAt[p.startBlock].push_back(id);
        for (uint32_t e : p.edges)
            pathEdges.push_back(e);
        pathOffsets.push_back(
            static_cast<uint32_t>(pathEdges.size()));
    }

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

inline void
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

inline void
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

inline void
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

} // namespace pe::coverage::reference

#endif // PE_TESTS_PATHCOV_REFERENCE_HH
