/**
 * @file
 * The quadratic prime-path enumeration and greedy cover, kept as a
 * test oracle for src/analysis/primepaths.cc.
 *
 * Both functions are the original implementations, unchanged but for
 * the namespace, inline linkage and a default argument: the
 * enumeration drops every final whose edge sequence appears
 * contiguously inside another final by comparing all pairs, and the
 * cover rescans every path for its gain on each pick.  The library's
 * versions must return exactly what these do — the same paths in the
 * same order, the same truncated, generated and roots values, and the
 * same cover in the same selection order (primepath_test.cpp's oracle
 * tests).
 */

#ifndef PE_TESTS_PRIMEPATH_REFERENCE_HH
#define PE_TESTS_PRIMEPATH_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/analysis/cfg.hh"
#include "src/analysis/primepaths.hh"
#include "src/support/status.hh"

namespace pe::analysis::reference
{

/**
 * A candidate simple path on the worklist: the visited block
 * sequence (for the simplicity test; paths are short, a linear scan
 * beats a set) plus the edge-id sequence that is the path's
 * canonical encoding.
 */
struct Candidate
{
    std::vector<uint32_t> nodes;
    std::vector<uint32_t> edges;
};

inline bool
containsNode(const std::vector<uint32_t> &nodes, uint32_t b)
{
    return std::find(nodes.begin(), nodes.end(), b) != nodes.end();
}

/** Canonical order: start block, then edge ids, prefixes first. */
inline bool
canonicalLess(const PrimePath &a, const PrimePath &b)
{
    if (a.startBlock != b.startBlock)
        return a.startBlock < b.startBlock;
    return std::lexicographical_compare(a.edges.begin(), a.edges.end(),
                                        b.edges.begin(), b.edges.end());
}

inline bool
canonicalEqual(const PrimePath &a, const PrimePath &b)
{
    return a.startBlock == b.startBlock && a.edges == b.edges;
}

inline PrimePathSet
enumeratePrimePaths(const Cfg &cfg, const PrimePathOptions &opts = {})
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
    std::vector<PrimePath> finals;
    bool budgetHit = false;

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
            work.push_back(Candidate{{b}, {}});
            set.generated++;
        }

        for (size_t qi = 0; qi < work.size() && !budgetHit; ++qi) {
            // work may reallocate while extending; index, not ref.
            bool extended = false;
            const uint32_t back = work[qi].nodes.back();
            const uint32_t front = work[qi].nodes.front();
            for (uint32_t e : blocks[back].succs) {
                const CfgEdge &edge = edges[e];
                if (edge.kind == EdgeKind::Call)
                    continue;
                if (edge.to == front) {
                    // Closing the cycle finalizes: the cycle cannot
                    // be extended without repeating an inner node.
                    PrimePath p;
                    p.startBlock = front;
                    p.edges = work[qi].edges;
                    p.edges.push_back(e);
                    finals.push_back(std::move(p));
                    extended = true;
                    continue;
                }
                if (containsNode(work[qi].nodes, edge.to))
                    continue;
                if (set.generated >= maxGenerated) {
                    budgetHit = true;
                    break;
                }
                Candidate next = work[qi];
                next.nodes.push_back(edge.to);
                next.edges.push_back(e);
                work.push_back(std::move(next));
                set.generated++;
                extended = true;
            }
            if (!extended) {
                PrimePath p;
                p.startBlock = front;
                p.edges = work[qi].edges;
                finals.push_back(std::move(p));
            }
        }
    }
    if (budgetHit)
        set.truncated = true;

    // Canonical order + dedup (overlapping root subgraphs can emit
    // the same back-extension twice only through seeding races, which
    // the seeded[] guard prevents, but dedup is cheap insurance).
    std::sort(finals.begin(), finals.end(), canonicalLess);
    finals.erase(std::unique(finals.begin(), finals.end(),
                             canonicalEqual),
                 finals.end());

    // Prime filter: drop finals whose edge sequence appears
    // contiguously inside a longer final (a single-block path is a
    // subpath of anything visiting its block with at least one edge).
    // Indexed by start node so each final only scans plausible hosts.
    std::vector<std::vector<uint32_t>> startsAt(blocks.size());
    for (uint32_t i = 0; i < finals.size(); ++i)
        startsAt[finals[i].startBlock].push_back(i);

    std::vector<bool> killed(finals.size(), false);
    for (uint32_t qi = 0; qi < finals.size(); ++qi) {
        const PrimePath &q = finals[qi];
        const std::vector<uint32_t> qNodes = primePathBlocks(cfg, q);
        for (size_t off = 0; off < qNodes.size(); ++off) {
            for (uint32_t pi : startsAt[qNodes[off]]) {
                if (pi == qi || killed[pi])
                    continue;
                const PrimePath &p = finals[pi];
                if (off + p.edges.size() > q.edges.size())
                    continue;
                // Proper subpath: strictly shorter, or a strict
                // suffix/infix of equal-length never happens (equal
                // length at off 0 is identity, deduped above).
                if (off == 0 && p.edges.size() == q.edges.size())
                    continue;
                if (std::equal(p.edges.begin(), p.edges.end(),
                               q.edges.begin() +
                                   static_cast<long>(off)))
                    killed[pi] = true;
            }
        }
    }

    for (uint32_t i = 0; i < finals.size(); ++i) {
        if (!killed[i])
            set.paths.push_back(std::move(finals[i]));
    }

    if (set.paths.size() > opts.maxPaths) {
        set.paths.resize(opts.maxPaths);
        set.truncated = true;
    }
    if (set.truncated) {
        warn("prime-path enumeration truncated: kept ",
             set.paths.size(), " path(s) (cap ", opts.maxPaths,
             ", ", set.generated, " candidate(s) generated)");
    }
    return set;
}

inline std::vector<uint32_t>
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

    std::vector<uint32_t> cover;
    std::vector<bool> used(set.paths.size(), false);
    while (uncovered > 0) {
        uint32_t best = noBlock;
        size_t bestGain = 0;
        for (uint32_t i = 0; i < set.paths.size(); ++i) {
            if (used[i])
                continue;
            size_t gain = 0;
            for (uint32_t e : set.paths[i].edges) {
                if (!covered[e])
                    gain++;
            }
            if (gain > bestGain) {
                bestGain = gain;
                best = i;
            }
        }
        if (best == noBlock)
            break;   // unreachable: every uncovered edge has a path
        used[best] = true;
        cover.push_back(best);
        for (uint32_t e : set.paths[best].edges) {
            if (!covered[e]) {
                covered[e] = true;
                uncovered--;
            }
        }
    }
    return cover;
}

} // namespace pe::analysis::reference

#endif // PE_TESTS_PRIMEPATH_REFERENCE_HH
