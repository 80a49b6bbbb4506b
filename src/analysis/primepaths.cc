/**
 * @file
 * Prime-path enumeration and greedy minimum path cover.
 */

#include "src/analysis/primepaths.hh"

#include <algorithm>
#include <queue>
#include <span>

#include "src/support/status.hh"

namespace pe::analysis
{

namespace
{

constexpr uint32_t noParent = UINT32_MAX;
constexpr uint32_t noEdge = UINT32_MAX;

/**
 * A candidate simple path on the worklist, stored as a link to the
 * candidate it extends by one edge (a seed has no parent and no
 * edge).  Its blocks and edges are recovered by walking the parent
 * chain, so extending a path costs no copy of it.
 */
struct Candidate
{
    uint32_t parent = noParent;
    uint32_t edge = noEdge;
    uint32_t block = 0;
    uint32_t length = 0;
};

/** A finalized path: its start block and a slice of the edge pool. */
struct Final
{
    uint32_t startBlock = 0;
    uint32_t length = 0;
    size_t begin = 0;
};

/** One step of the suffix hash (a multiply-xorshift mix). */
uint64_t
mixHash(uint64_t h, uint64_t v)
{
    h = (h ^ (v + 1)) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 29);
}

} // namespace

std::vector<uint32_t>
primePathBlocks(const Cfg &cfg, const PrimePath &path)
{
    std::vector<uint32_t> nodes{path.startBlock};
    for (uint32_t e : path.edges)
        nodes.push_back(cfg.edges()[e].to);
    return nodes;
}

PrimePathSet
enumeratePrimePaths(const Cfg &cfg, const PrimePathOptions &opts)
{
    PrimePathSet set;
    const auto &blocks = cfg.blocks();
    const auto &edges = cfg.edges();
    if (blocks.empty())
        return set;

    const uint64_t maxGenerated =
        opts.maxGenerated != 0 ? opts.maxGenerated
                               : 32ull * opts.maxPaths;

    // Enumeration roots: the entry block plus every function start,
    // ascending, restricted to blocks reachable from the entry.  A
    // block first reached through an earlier root's subgraph is not
    // re-seeded — the intraprocedural edge relation is static, so
    // every simple path from it was already generated.
    std::vector<uint32_t> rootList;
    const isa::Program &program = cfg.program();
    if (program.entry < program.code.size())
        rootList.push_back(cfg.blockOf(program.entry));
    for (const auto &f : program.funcs) {
        if (f.startPc < program.code.size())
            rootList.push_back(cfg.blockOf(f.startPc));
    }
    std::sort(rootList.begin(), rootList.end());
    rootList.erase(std::unique(rootList.begin(), rootList.end()),
                   rootList.end());

    std::vector<bool> seeded(blocks.size(), false);
    // Finals are distinct by construction, which the filter below
    // relies on: every candidate is a distinct simple path (seeds are
    // distinct, and a candidate's children take distinct edges), a
    // cycle final is its candidate plus one closing edge, and a cycle
    // repeats a block while a candidate does not.
    std::vector<Final> finals;
    std::vector<uint32_t> pool;
    size_t cutFinal = SIZE_MAX;
    bool budgetHit = false;

    // The candidate whose blocks are stamped with the current epoch
    // is the one being extended: the simplicity test is O(1).
    std::vector<uint64_t> stamp(blocks.size(), 0);
    uint64_t epoch = 0;

    for (uint32_t root : rootList) {
        if (root == noBlock || !cfg.reachable()[root])
            continue;
        if (budgetHit)
            break;

        // Intraprocedural closure of the root (skip Call edges).
        std::vector<uint32_t> subNodes;
        {
            std::vector<bool> inSub(blocks.size(), false);
            std::vector<uint32_t> stack{root};
            inSub[root] = true;
            while (!stack.empty()) {
                uint32_t b = stack.back();
                stack.pop_back();
                subNodes.push_back(b);
                for (uint32_t e : blocks[b].succs) {
                    const CfgEdge &edge = edges[e];
                    if (edge.kind == EdgeKind::Call)
                        continue;
                    if (!inSub[edge.to]) {
                        inSub[edge.to] = true;
                        stack.push_back(edge.to);
                    }
                }
            }
        }
        std::sort(subNodes.begin(), subNodes.end());
        set.roots++;

        // FIFO worklist; the vector holds every candidate ever
        // generated, which is exactly what the budget bounds.
        std::vector<Candidate> work;
        for (uint32_t b : subNodes) {
            if (seeded[b])
                continue;
            seeded[b] = true;
            work.push_back(Candidate{noParent, noEdge, b, 0});
            set.generated++;
        }

        // Append candidate @p ci's edges, plus @p closing unless it
        // is noEdge, to the pool as a final starting at @p front.
        auto finalize = [&](uint32_t ci, uint32_t front,
                            uint32_t closing) {
            const uint32_t length =
                work[ci].length + (closing != noEdge ? 1 : 0);
            const size_t begin = pool.size();
            pool.resize(begin + length);
            size_t at = begin + work[ci].length;
            if (closing != noEdge)
                pool[at] = closing;
            for (uint32_t c = ci; work[c].parent != noParent;
                 c = work[c].parent)
                pool[--at] = work[c].edge;
            finals.push_back(Final{front, length, begin});
        };

        for (size_t qi = 0; qi < work.size() && !budgetHit; ++qi) {
            const auto ci = static_cast<uint32_t>(qi);
            // Stamp the candidate's blocks; the walk ends at its
            // seed, the path's first block.
            ++epoch;
            uint32_t front = 0;
            for (uint32_t c = ci; c != noParent; c = work[c].parent) {
                stamp[work[c].block] = epoch;
                front = work[c].block;
            }
            // work may reallocate while extending; copy, not ref.
            const Candidate cand = work[qi];
            bool extended = false;
            for (uint32_t e : blocks[cand.block].succs) {
                const CfgEdge &edge = edges[e];
                if (edge.kind == EdgeKind::Call)
                    continue;
                if (edge.to == front) {
                    // Closing the cycle finalizes: the cycle cannot
                    // be extended without repeating an inner node.
                    finalize(ci, front, e);
                    extended = true;
                    continue;
                }
                if (stamp[edge.to] == epoch)
                    continue;
                if (set.generated >= maxGenerated) {
                    budgetHit = true;
                    break;
                }
                pe_assert(work.size() < noParent,
                          "prime-path worklist overflows its index");
                work.push_back(Candidate{ci, e, edge.to, cand.length + 1});
                set.generated++;
                extended = true;
            }
            if (!extended) {
                // A budget stop mid-loop finalizes a candidate that
                // may still extend: the one final the suffix
                // argument below does not cover.
                if (budgetHit)
                    cutFinal = finals.size();
                finalize(ci, front, noEdge);
            }
        }
    }
    if (budgetHit)
        set.truncated = true;

    auto edgesOf = [&](const Final &f) {
        return std::span<const uint32_t>(pool.data() + f.begin, f.length);
    };
    // Block @p off of @p f's path (0 is its start block).
    auto blockAt = [&](const Final &f, uint32_t off) {
        return off == 0 ? f.startBlock : edges[pool[f.begin + off - 1]].to;
    };

    // Prime filter: a final whose edge sequence appears contiguously
    // inside another final is not maximal.  Every final but the
    // budget-cut one either closed a cycle (a cycle sits inside no
    // other simple path) or has every non-Call successor of its last
    // block already on it, none its first block; a simple path that
    // ran on past such a final's last block would revisit one of its
    // blocks.
    // So such a final can sit inside another only as a proper suffix
    // (the zero-edge suffix included), and the filter is one hash
    // lookup per suffix.  The hash folds a path right to left, edge
    // by edge, then mixes in the start block, so a final's suffixes
    // hash in O(1) each; every hit is confirmed edge by edge.
    struct Slot
    {
        uint64_t key = 0;
        uint32_t final = 0;     // index + 1; 0 marks an empty slot
    };
    size_t tableSize = 1;
    while (tableSize < 2 * finals.size())
        tableSize <<= 1;
    const size_t mask = tableSize - 1;
    std::vector<Slot> table(tableSize);     // linear probing
    for (uint32_t i = 0; i < finals.size(); ++i) {
        uint64_t h = 0;
        const auto es = edgesOf(finals[i]);
        for (auto it = es.rbegin(); it != es.rend(); ++it)
            h = mixHash(h, *it);
        const uint64_t key = mixHash(h, finals[i].startBlock);
        size_t slot = key & mask;
        while (table[slot].final != 0)
            slot = (slot + 1) & mask;
        table[slot] = Slot{key, i + 1};
    }

    std::vector<bool> killed(finals.size(), false);
    for (const Final &q : finals) {
        const auto qEdges = edgesOf(q);
        uint64_t h = 0;
        for (uint32_t off = q.length; off >= 1; --off) {
            const uint32_t start = blockAt(q, off);
            const uint64_t key = mixHash(h, start);
            for (size_t slot = key & mask; table[slot].final != 0;
                 slot = (slot + 1) & mask) {
                const uint32_t pi = table[slot].final - 1;
                if (table[slot].key != key || killed[pi])
                    continue;
                const Final &p = finals[pi];
                if (p.startBlock == start &&
                    std::ranges::equal(edgesOf(p), qEdges.subspan(off)))
                    killed[pi] = true;
            }
            h = mixHash(h, qEdges[off - 1]);
        }
    }

    // The budget-cut final may sit anywhere inside another final, so
    // it gets the full containment check.  (By FIFO order no final
    // can contain it other than as a suffix, which the lookups above
    // already catch — see INTERNALS §15 — but the check is cheap.)
    if (cutFinal != SIZE_MAX && !killed[cutFinal]) {
        const Final &p = finals[cutFinal];
        const auto pEdges = edgesOf(p);
        for (size_t qi = 0; qi < finals.size() && !killed[cutFinal];
             ++qi) {
            const Final &q = finals[qi];
            if (qi == cutFinal || q.length < p.length)
                continue;
            const auto qEdges = edgesOf(q);
            for (uint32_t off = 0; off + p.length <= q.length; ++off) {
                if (blockAt(q, off) == p.startBlock &&
                    std::ranges::equal(pEdges,
                                       qEdges.subspan(off, p.length))) {
                    killed[cutFinal] = true;
                    break;
                }
            }
        }
    }

    // The survivors in canonical order: start block, then edge ids,
    // prefixes first.
    std::vector<uint32_t> kept;
    for (uint32_t i = 0; i < finals.size(); ++i) {
        if (!killed[i])
            kept.push_back(i);
    }
    std::sort(kept.begin(), kept.end(), [&](uint32_t a, uint32_t b) {
        const Final &fa = finals[a];
        const Final &fb = finals[b];
        if (fa.startBlock != fb.startBlock)
            return fa.startBlock < fb.startBlock;
        const auto ea = edgesOf(fa);
        const auto eb = edgesOf(fb);
        return std::lexicographical_compare(ea.begin(), ea.end(),
                                            eb.begin(), eb.end());
    });
    if (kept.size() > opts.maxPaths) {
        kept.resize(opts.maxPaths);
        set.truncated = true;
    }
    set.paths.reserve(kept.size());
    for (uint32_t i : kept) {
        const auto es = edgesOf(finals[i]);
        set.paths.push_back(
            PrimePath{finals[i].startBlock, {es.begin(), es.end()}});
    }

    if (set.truncated) {
        warn("prime-path enumeration truncated: kept ",
             set.paths.size(), " path(s) (cap ", opts.maxPaths,
             ", ", set.generated, " candidate(s) generated)");
    }
    return set;
}

std::vector<uint32_t>
computePathCover(const Cfg &cfg, const PrimePathSet &set)
{
    // Greedy set cover over the edges prime paths touch: repeatedly
    // take the path covering the most still-uncovered edges, lowest
    // path id on ties (see primepaths.hh for why not matching).
    const size_t numEdges = cfg.edges().size();
    std::vector<bool> covered(numEdges, true);
    size_t uncovered = 0;
    for (const PrimePath &p : set.paths) {
        for (uint32_t e : p.edges) {
            if (covered[e]) {
                covered[e] = false;
                uncovered++;
            }
        }
    }
    auto gainOf = [&](uint32_t id) {
        size_t gain = 0;
        for (uint32_t e : set.paths[id].edges) {
            if (!covered[e])
                gain++;
        }
        return gain;
    };

    // Lazily: a path's gain only falls as edges get covered, so a
    // max-heap of (possibly stale) gains bounds every path's current
    // gain.  The top is re-scored; if it still beats the next entry's
    // bound it beats every path's true gain, exactly the path the
    // full scan would pick.  Otherwise it goes back with its new gain.
    using Entry = std::pair<size_t, uint32_t>;
    auto below = [](const Entry &a, const Entry &b) {
        return a.first != b.first ? a.first < b.first
                                  : a.second > b.second;
    };
    std::vector<Entry> entries;
    for (uint32_t i = 0; i < set.paths.size(); ++i) {
        if (const size_t gain = gainOf(i); gain > 0)
            entries.emplace_back(gain, i);
    }
    std::priority_queue<Entry, std::vector<Entry>, decltype(below)>
        heap(below, std::move(entries));

    std::vector<uint32_t> cover;
    while (uncovered > 0 && !heap.empty()) {
        const Entry top{gainOf(heap.top().second), heap.top().second};
        heap.pop();
        if (top.first == 0)
            continue;   // gains never rise: never picked
        if (!heap.empty() && below(top, heap.top())) {
            heap.push(top);
            continue;
        }
        cover.push_back(top.second);
        for (uint32_t e : set.paths[top.second].edges) {
            if (!covered[e]) {
                covered[e] = true;
                uncovered--;
            }
        }
    }
    return cover;
}

} // namespace pe::analysis
