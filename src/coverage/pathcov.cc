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

    // Flatten the per-path decision keys.
    decisionOffsets.assign(1, 0);
    for (const analysis::PrimePath &p : set.paths) {
        for (uint32_t e : p.edges) {
            const analysis::CfgEdge &edge = edges[e];
            if (edge.kind == analysis::EdgeKind::BranchTaken ||
                edge.kind == analysis::EdgeKind::BranchNotTaken) {
                const uint32_t pc = blocks[edge.from].lastPc;
                const bool taken =
                    edge.kind == analysis::EdgeKind::BranchTaken;
                pathDecisions.push_back((pc << 1) | (taken ? 1u : 0u));
            }
        }
        decisionOffsets.push_back(
            static_cast<uint32_t>(pathDecisions.size()));
    }
    coverIds = cover;

    // Walker tables: classify each block by its successor edge kinds
    // (the CFG already encodes the interpreter's control rules); only
    // the no-successor case needs the opcode, to tell a Jr return
    // from a genuine exit.  slotEdge[2 * block + slot] is the edge
    // the walker takes out of the block through each slot.
    const uint32_t nb = static_cast<uint32_t>(blocks.size());
    blockKind.assign(nb, BlockKind::Exit);
    branchPc.assign(nb, 0);
    succBlock.assign(nb, analysis::noBlock);
    altBlock.assign(nb, analysis::noBlock);
    retBlock.assign(nb, analysis::noBlock);
    std::vector<uint32_t> slotEdge(2 * static_cast<size_t>(nb), kNone);
    for (uint32_t id = 0; id < nb; ++id) {
        BlockKind kind = BlockKind::Exit;
        for (uint32_t e : blocks[id].succs) {
            const analysis::CfgEdge &edge = edges[e];
            switch (edge.kind) {
              case analysis::EdgeKind::BranchTaken:
                kind = BlockKind::Cond;
                branchPc[id] = blocks[id].lastPc;
                succBlock[id] = edge.to;
                slotEdge[2 * id] = e;
                break;
              case analysis::EdgeKind::BranchNotTaken:
                kind = BlockKind::Cond;
                branchPc[id] = blocks[id].lastPc;
                altBlock[id] = edge.to;
                slotEdge[2 * id + 1] = e;
                break;
              case analysis::EdgeKind::Jump:
                kind = BlockKind::Jump;
                succBlock[id] = edge.to;
                slotEdge[2 * id] = e;
                break;
              case analysis::EdgeKind::Call:
                kind = BlockKind::Call;
                succBlock[id] = edge.to;
                break;
              case analysis::EdgeKind::CallReturn:
                kind = BlockKind::Call;
                retBlock[id] = edge.to;
                slotEdge[2 * id] = e;
                break;
              case analysis::EdgeKind::FallThrough:
                kind = BlockKind::Fall;
                succBlock[id] = edge.to;
                slotEdge[2 * id] = e;
                break;
            }
        }
        if (blocks[id].succs.empty() &&
            program.code[blocks[id].lastPc].op == isa::Opcode::Jr)
            kind = BlockKind::Ret;
        blockKind[id] = kind;
    }
    buildAutomaton(cfg, set, slotEdge);
}

void
PathCoverage::buildAutomaton(const analysis::Cfg &cfg,
                             const analysis::PrimePathSet &set,
                             const std::vector<uint32_t> &slotEdge)
{
    const auto &edges = cfg.edges();
    const uint32_t nb = static_cast<uint32_t>(cfg.blocks().size());

    // The trie.  While it grows, next[] holds trie children and out
    // the node's own terminal paths.  A path whose edges the walker
    // cannot take, slot by slot from its start block, stays out.
    nodes.assign(nb, Node{{kNone, kNone}, kNone});
    outNext.assign(pathCount, kNone);
    blockPaths.assign(nb, kNone);
    std::vector<unsigned> slots;
    for (uint32_t id = 0; id < pathCount; ++id) {
        const analysis::PrimePath &p = set.paths[id];
        if (p.edges.empty()) {
            outNext[id] = blockPaths[p.startBlock];
            blockPaths[p.startBlock] = id;
            continue;
        }
        slots.clear();
        uint32_t block = p.startBlock;
        for (uint32_t e : p.edges) {
            const uint32_t *exits = &slotEdge[2 * size_t{block}];
            if (e != exits[0] && e != exits[1])
                break;
            slots.push_back(e == exits[0] ? 0 : 1);
            block = edges[e].to;
        }
        if (slots.size() != p.edges.size())
            continue;
        uint32_t node = p.startBlock;
        for (unsigned slot : slots) {
            if (nodes[node].next[slot] == kNone) {
                nodes[node].next[slot] =
                    static_cast<uint32_t>(nodes.size());
                nodes.push_back(Node{{kNone, kNone}, kNone});
            }
            node = nodes[node].next[slot];
        }
        outNext[id] = nodes[node].out;
        nodes[node].out = id;
    }

    // Failure links, breadth first, so a node's failure target (a
    // shorter suffix, so a shallower node) is final before the node
    // is reached.  A depth-0 node's mismatch lands on the depth-0
    // node of the edge's target block; a deeper node's mismatch does
    // what its failure target does.  A node's output chain is its own
    // terminals followed by its failure target's chain; depth-0 nodes
    // start none (one-block paths complete at the visit instead).
    std::vector<uint32_t> fail(nodes.size(), kNone);
    std::vector<uint32_t> order(nb);
    for (uint32_t b = 0; b < nb; ++b)
        order[b] = b;
    for (size_t qi = 0; qi < order.size(); ++qi) {
        const uint32_t u = order[qi];
        if (u >= nb) {
            uint32_t *tail = &nodes[u].out;
            while (*tail != kNone)
                tail = &outNext[*tail];
            *tail = nodes[fail[u]].out;
        }
        for (unsigned slot = 0; slot < 2; ++slot) {
            uint32_t miss = kNone;
            if (u >= nb)
                miss = nodes[fail[u]].next[slot];
            else if (slotEdge[2 * size_t{u} + slot] != kNone)
                miss = edges[slotEdge[2 * size_t{u} + slot]].to;
            const uint32_t child = nodes[u].next[slot];
            if (child == kNone) {
                nodes[u].next[slot] = miss;
            } else {
                fail[child] = miss;
                order.push_back(child);
            }
        }
    }
}

inline uint32_t
PathCoverage::step(uint32_t state, unsigned slot)
{
    const uint32_t next = nodes[state].next[slot];
    for (uint32_t id = nodes[next].out; id != kNone; id = outNext[id])
        completePath(id);
    return next;
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
        uint32_t retBlock;
        uint32_t state;
    };
    std::vector<Frame> frames;
    uint32_t cur = entryBlock;
    uint32_t state = entryBlock;    // block b's depth-0 node is node b
    size_t ti = 0;
    bool desync = false;
    uint64_t steps = 0;

    for (;;) {
        if (++steps > kMaxFoldSteps) {
            desync = true;
            break;
        }
        for (uint32_t id = blockPaths[cur]; id != kNone; id = outNext[id])
            completePath(id);   // one-block path completes on entry

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
            state = step(state, taken ? 0 : 1);
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
            state = step(state, 0);
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
            frames.push_back(Frame{retBlock[cur], state});
            cur = succBlock[cur];
            state = cur;
            continue;
        }
        // Ret: resume the caller's suspended state across the
        // CallReturn edge (intraprocedural path semantics).
        if (frames.empty()) {
            desync = true;
            break;
        }
        const Frame f = frames.back();
        frames.pop_back();
        if (f.retBlock == analysis::noBlock)
            break;
        state = step(f.state, 0);
        cur = f.retBlock;
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
    enc.u64(0);     // retired match-overflow count
    enc.u64vec(bits);
}

void
PathCoverage::decodeState(wire::Decoder &dec)
{
    const uint64_t folded = dec.u64("path folded runs");
    const uint64_t truncatedRuns = dec.u64("path truncated runs");
    const uint64_t desync = dec.u64("path desync runs");
    dec.u64("path match overflows");    // retired, always 0
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
    bits = std::move(saved);
}

} // namespace pe::coverage
