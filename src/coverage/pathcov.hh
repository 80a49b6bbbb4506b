/**
 * @file
 * Runtime prime-path completion tracking.
 *
 * PathCoverage folds the per-run branch-decision stream
 * (RunResult::branchTrace, recorded under PeConfig::recordEdgeTrace)
 * into completion bits over the program's prime-path set.  The fold
 * replays the taken path symbolically: starting from the entry block
 * it walks the CFG, consuming one (pc << 1) | taken event per
 * conditional branch to pick the BranchTaken/BranchNotTaken edge, and
 * following fall-through/jump edges without consuming anything.
 * Calls use the MiniC convention the CFG already encodes: a Jal
 * pushes a frame and descends into the callee; the matching Jr pops
 * it and lands on the CallReturn edge's target.  Prime paths are
 * intraprocedural, so each frame matches on its own — a caller's
 * partial matches are suspended across the call and resume, advanced
 * by the CallReturn edge, when the callee returns.
 *
 * Matching is an Aho–Corasick automaton the constructor builds once.
 * Its trie holds every path as (start block, edge sequence), with a
 * depth-0 node for every block, so a state always names the block the
 * walk is in; a node at depth k stands for the last k edges walked in
 * the current frame.  From a block the walker takes at most two edges
 * (slot 0: the taken, jump, fall-through or CallReturn edge; slot 1:
 * the not-taken edge), so failure links are resolved at build time
 * into a dense next[2] per node, and the state after an edge is the
 * longest trie node that is a suffix of the frame's walk.  Every
 * shorter such node lies on its failure chain, down to the depth-0
 * node of the current block, so the chain holds exactly the (path,
 * pos) matches a per-frame match set would hold: a path completes
 * when its terminal node is on the chain.  Output links chain those
 * terminals (depth >= 1), so each edge visits only the paths it
 * completes.  No enumerated prime path sits inside another, so there
 * a chain is at most the node's own path; the links keep the fold
 * exact for any path set the three-argument constructor is given.
 *
 * A frame is the return block plus the caller's state: a callee
 * starts at its entry block's depth-0 node, and a return takes slot 0
 * from the saved state.  One-block paths complete at the block visit,
 * through a per-block table, so a walk cut off between an edge and
 * the next visit completes nothing the visit would.  A path with an
 * edge the walker never takes stays out of the trie; it could never
 * complete anyway.  A prime path is simple, so its blocks up to the
 * last are distinct and one frame can match it at only one position
 * at a time: a match set would hold at most one match per path.  The
 * automaton keeps no match set at all, so nothing can overflow; the
 * only bounds are the call-stack depth and the walk's step count.
 * Completion state is one bit per path.
 *
 * Desync policy: traces come from real executions, so the walk should
 * never disagree with the CFG — but crashed runs stop mid-path,
 * invalid jumps stop decoding, and the trace itself may be truncated
 * by the recording cap.  A disagreement (a branch event whose pc is
 * not the block's branch, a return with no open frame) or a walk past
 * kMaxFoldDepth frames or the step bound stops the fold for that run
 * and bumps the desync counter; running out of trace events or off the
 * CFG's static successors stops it without one.  Either way completion
 * bits only ever under-approximate.
 * For runs that did not exit cleanly the fold also refuses to walk
 * the straight-line tail past the final recorded branch, so a crash
 * cannot "complete" blocks it never reached.
 *
 * Merging is word-wise OR plus counter addition — commutative and
 * associative, so campaign accumulation, fleet shard-ordered merges,
 * and checkpoint restore all agree bit-for-bit.  Serialization goes
 * through pe_wire (encodeState/decodeState) so explorer checkpoints
 * and fleet frames carry the tracker verbatim.
 */

#ifndef PE_COVERAGE_PATHCOV_HH
#define PE_COVERAGE_PATHCOV_HH

#include <cstdint>
#include <vector>

#include "src/analysis/primepaths.hh"
#include "src/fleet/wire.hh"
#include "src/isa/program.hh"

namespace pe::coverage
{

class PathCoverage
{
  public:
    /** Call-stack depth cap for the fold walker. */
    static constexpr uint32_t kMaxFoldDepth = 1024;

    /**
     * Build the tracker for @p cfg's program from an enumerated
     * @p set and its @p cover (ids into set.paths).  Copies every
     * table it needs; cfg and set may be temporaries.
     */
    PathCoverage(const analysis::Cfg &cfg,
                 const analysis::PrimePathSet &set,
                 const std::vector<uint32_t> &cover);

    /**
     * Convenience: build Cfg, enumerate prime paths (default caps)
     * and compute the cover for @p program in one shot.  This is the
     * constructor the explorer, the fleet coordinator and the workers
     * all use, so every party derives the identical path-id space
     * from the program alone.
     */
    explicit PathCoverage(const isa::Program &program);

    /**
     * Fold one run's branch-decision stream.  @p traceTruncated is
     * RunResult::branchTraceTruncated; @p cleanExit gates walking the
     * straight-line tail after the last recorded branch (see file
     * comment).
     */
    void fold(const std::vector<uint32_t> &trace, bool traceTruncated,
              bool cleanExit);

    /** Merge another tracker (same program): OR bits, add counters. */
    void merge(const PathCoverage &other);

    /** OR a raw completion-word vector in (fleet frames). */
    void mergeWords(const std::vector<uint64_t> &incoming);

    const std::vector<uint64_t> &words() const { return bits; }

    uint32_t numPaths() const { return pathCount; }
    bool truncated() const { return setTruncated; }
    bool completed(uint32_t pathId) const
    {
        return (bits[pathId >> 6] >> (pathId & 63)) & 1;
    }

    /** Prime paths completed at least once. */
    uint64_t completedCount() const;

    /** Cover paths (the scheduler's target set) completed. */
    uint64_t coverCompleted() const;

    uint32_t coverSize() const
    {
        return static_cast<uint32_t>(coverIds.size());
    }
    const std::vector<uint32_t> &cover() const { return coverIds; }

    /**
     * Cover-adjacency energy for a corpus entry: over the *incomplete*
     * cover paths, the sum of the fraction of each path's decision
     * edges already present in the entry's taken/not-taken bitmaps
     * (BranchCoverage word layout, key = (pc << 1) | taken).  An entry
     * that has walked most of an unfinished cover path scores high —
     * mutating it is the cheapest route to completing the path.
     */
    double coverAdjacency(const std::vector<uint64_t> &takenWords,
                          const std::vector<uint64_t> &ntWords) const;

    /** FNV-1a over the completion words + path count (digests). */
    uint64_t digest() const;

    uint64_t foldedRuns() const { return statFolded; }
    uint64_t truncatedRuns() const { return statTruncated; }
    uint64_t desyncRuns() const { return statDesync; }

    /**
     * Serialize counters + completion words via pe_wire.  The fourth
     * u64 is always 0: it held the count of in-flight matches dropped
     * at a per-frame cap that no enumerated path set could reach, and
     * keeps its slot so the state format and every saved checkpoint
     * stay valid.
     */
    void encodeState(wire::Encoder &enc) const;

    /**
     * Restore counters + words (the retired fourth u64 is read and
     * ignored); throws WireError{Mismatch} when the word count
     * disagrees with this program's path count.
     */
    void decodeState(wire::Decoder &dec);

  private:
    /** No node, no edge, no path (it also ends an output chain). */
    static constexpr uint32_t kNone = UINT32_MAX;

    /**
     * One automaton state.  Node b < numBlocks is block b's depth-0
     * node; deeper nodes extend their parent by one edge slot.
     */
    struct Node
    {
        /** The state after each edge slot (kNone: no such edge). */
        uint32_t next[2];
        /** First path of this state's output chain (kNone: none). */
        uint32_t out;
    };

    void build(const analysis::Cfg &cfg,
               const analysis::PrimePathSet &set,
               const std::vector<uint32_t> &cover);
    void buildAutomaton(const analysis::Cfg &cfg,
                        const analysis::PrimePathSet &set,
                        const std::vector<uint32_t> &slotEdge);

    /** Take edge @p slot from @p state, completing what it ends. */
    uint32_t step(uint32_t state, unsigned slot);
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
    bool setTruncated = false;
    uint32_t entryBlock = analysis::noBlock;

    /** The automaton: trie nodes with failure links resolved. */
    std::vector<Node> nodes;

    /** Next path on the same output chain, by path id (kNone ends). */
    std::vector<uint32_t> outNext;

    /** One-block paths of each block: head of an outNext chain. */
    std::vector<uint32_t> blockPaths;

    /** Per-block walker tables (indexed by block id). */
    std::vector<BlockKind> blockKind;
    std::vector<uint32_t> branchPc;     //!< Cond: terminator pc
    std::vector<uint32_t> succBlock;    //!< primary successor block
    std::vector<uint32_t> altBlock;     //!< Cond: not-taken block
    std::vector<uint32_t> retBlock;     //!< Call: return-landing block

    /** Per-path decision keys ((pc << 1) | taken), flattened. */
    std::vector<uint32_t> pathDecisions;
    std::vector<uint32_t> decisionOffsets;

    std::vector<uint32_t> coverIds;
    std::vector<uint64_t> bits;

    uint64_t statFolded = 0;
    uint64_t statTruncated = 0;
    uint64_t statDesync = 0;
};

} // namespace pe::coverage

#endif // PE_COVERAGE_PATHCOV_HH
