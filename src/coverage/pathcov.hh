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
 * intraprocedural, so each frame carries its own set of in-flight
 * path matches — a caller's partial match is suspended across the
 * call and resumes, advanced by the CallReturn edge, when the callee
 * returns.
 *
 * Matching is a multi-pattern automaton over edge ids: a match
 * (path, pos) means the last pos edges walked equal the path's edge
 * prefix; entering a block starts a match for every path that begins
 * there (a one-block path completes on entry).  Memory is bounded
 * everywhere: completion state is one bit per path, the in-flight
 * match set and the call stack are capped (overflow is counted, the
 * fold degrades by dropping new matches, never by growing).
 *
 * Desync policy: traces come from real executions, so the walk should
 * never disagree with the CFG — but crashed runs stop mid-path,
 * invalid jumps stop decoding, and the trace itself may be truncated
 * by the recording cap.  Any disagreement (unexpected branch pc,
 * missing static successor, stack underflow) stops the fold for that
 * run and bumps a counter; completion bits only ever under-approximate.
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
    /** In-flight (path, pos) matches per call frame, hard cap. */
    static constexpr uint32_t kMaxActiveMatches = 4096;

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
    uint64_t overflowedMatches() const { return statOverflow; }

    /** Serialize counters + completion words via pe_wire. */
    void encodeState(wire::Encoder &enc) const;

    /**
     * Restore counters + words; throws WireError{Mismatch} when the
     * word count disagrees with this program's path count.
     */
    void decodeState(wire::Decoder &dec);

  private:
    struct Match
    {
        uint32_t path;
        uint32_t pos;
    };

    void build(const analysis::Cfg &cfg,
               const analysis::PrimePathSet &set,
               const std::vector<uint32_t> &cover);
    void visitBlock(uint32_t block, std::vector<Match> &active);
    void advance(std::vector<Match> &active, uint32_t edgeId);
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

    /** Per-path decision keys ((pc << 1) | taken), flattened. */
    std::vector<uint32_t> pathDecisions;
    std::vector<uint32_t> decisionOffsets;

    std::vector<uint32_t> coverIds;
    std::vector<uint64_t> bits;

    uint64_t statFolded = 0;
    uint64_t statTruncated = 0;
    uint64_t statDesync = 0;
    uint64_t statOverflow = 0;
};

} // namespace pe::coverage

#endif // PE_COVERAGE_PATHCOV_HH
