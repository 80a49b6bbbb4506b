/**
 * @file
 * Prime-path enumeration and minimum path cover over the CFG.
 *
 * A *prime path* (Ammann & Offutt; the structural metric GCC 15's
 * prime-path coverage computes) is a maximal simple path: a path that
 * repeats no block — except that the last block may equal the first,
 * a *cycle* — and that is not a proper subpath of any other simple
 * path.  Prime paths are the smallest set of paths whose coverage
 * implies coverage of every simple path, which makes "prime paths
 * completed" the tractable stand-in for the path coverage the paper's
 * Section 2 names as the real target but cannot measure.
 *
 * Two departures from the textbook formulation, both deliberate:
 *
 *  - Paths are *edge* sequences, not node sequences.  A conditional
 *    branch whose taken target equals its fall-through produces two
 *    parallel CFG edges between the same blocks; a node-sequence path
 *    cannot say which direction it exercised, but the runtime fold
 *    (coverage::PathCoverage) sees the direction in the branch event
 *    stream and the path cover wants both.  Simplicity is still
 *    defined on blocks; maximality is contiguous containment of the
 *    edge sequence.
 *
 *  - Enumeration is intraprocedural, per function root, following the
 *    CallReturn edge across calls (the MiniC calling convention
 *    guarantees the return lands at pc+1).  Interprocedural prime
 *    paths would multiply the path count by the call graph for no
 *    extra decision coverage.
 *
 * Enumeration is the standard worklist algorithm: seed every
 * subgraph block as a length-0 path, extend each path along every
 * successor edge that keeps it simple (a successor equal to the
 * path's first block closes a cycle and finalizes), finalize paths
 * with no extension, then discard finals that are proper subpaths of
 * another final.  Such a final can only be another's proper suffix
 * (primepaths.cc says why), so the discard is one hash lookup per
 * suffix rather than a comparison of every pair, and the whole
 * enumeration runs in time near-linear in the total length of the
 * paths it generates.  Path explosion is bounded by a hard cap: when
 * the generated-path budget is exhausted the enumeration stops, keeps
 * what it has, reports the truncation through PrimePathSet::truncated
 * and a warn() log line, and every consumer (pelint, the explorer's
 * tracker) carries the flag so a truncated metric is never mistaken
 * for a complete one.
 *
 * The *minimum path cover* is the Empc-style small target set: the
 * fewest prime paths whose union touches every CFG edge that appears
 * in any prime path.  Exact minimization is set cover (NP-hard), and
 * the classic polynomial bipartite-matching construction (Dilworth /
 * Fulkerson) only applies to vertex-disjoint covers of DAGs — our
 * CFGs have cycles and our paths share blocks by design.  So the
 * cover is the deterministic greedy approximation (pick the path
 * covering the most uncovered edges, lowest path id on ties), which
 * is the standard ln(n)-factor bound and, at the sizes the cap
 * allows, indistinguishable from optimal for scheduling purposes.
 * Gains are re-scored lazily from a max-heap; the picks are the ones
 * a full rescan per pick would make.
 */

#ifndef PE_ANALYSIS_PRIMEPATHS_HH
#define PE_ANALYSIS_PRIMEPATHS_HH

#include <cstdint>
#include <vector>

#include "src/analysis/cfg.hh"

namespace pe::analysis
{

struct PrimePathOptions
{
    /** Hard cap on the prime paths kept (ids are stable under it). */
    uint32_t maxPaths = 4096;

    /**
     * Budget on *generated* candidate simple paths (worklist volume);
     * 0 derives 32 * maxPaths.  Exhausting either bound sets
     * PrimePathSet::truncated.
     */
    uint64_t maxGenerated = 0;
};

/**
 * One prime path: the start block plus the Cfg edge-index sequence —
 * the compact encoding the runtime matcher walks.  A path of a single
 * block has an empty edge list.
 */
struct PrimePath
{
    uint32_t startBlock = 0;
    std::vector<uint32_t> edges;
};

struct PrimePathSet
{
    /**
     * Prime paths in canonical order (start block, then the edge-id
     * sequence lexicographically, prefixes first); the index is the
     * path id every consumer shares.
     * Stable across runs because Cfg successor order is pinned to
     * target-pc order.
     */
    std::vector<PrimePath> paths;

    /** Enumeration hit a cap; paths is a prefix of the truth. */
    bool truncated = false;

    /** Candidate simple paths materialized (diagnostic). */
    uint64_t generated = 0;

    /** Function-root subgraphs enumerated (diagnostic). */
    uint32_t roots = 0;
};

/** Block sequence of @p path under @p cfg (startBlock included). */
std::vector<uint32_t> primePathBlocks(const Cfg &cfg,
                                      const PrimePath &path);

PrimePathSet enumeratePrimePaths(const Cfg &cfg,
                                 const PrimePathOptions &opts = {});

/**
 * Greedy minimum path cover: ids of @p set's paths, in selection
 * order, whose union covers every edge any prime path covers (see
 * file comment for why greedy set cover and not bipartite matching).
 */
std::vector<uint32_t> computePathCover(const Cfg &cfg,
                                       const PrimePathSet &set);

} // namespace pe::analysis

#endif // PE_ANALYSIS_PRIMEPATHS_HH
