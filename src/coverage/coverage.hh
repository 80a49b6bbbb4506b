/**
 * @file
 * Branch-coverage accounting.
 *
 * The paper evaluates PathExpander with the branch-coverage metric
 * (Section 2/3.1: path coverage is what the design targets but cannot
 * be measured, so branch coverage — the fraction of static branch
 * edges executed — is reported).  We track taken-path edges and
 * NT-Path edges separately so both the baseline coverage and the
 * PE-augmented coverage of a run fall out of one tracker, and support
 * merging across runs for the cumulative-coverage experiment
 * (Section 7.4).
 *
 * The edge universe is static and known at construction (two edges
 * per conditional branch, keyed by 2*pc+taken), so the tracker is a
 * dense bitmap rather than a hash set: recording an edge is one
 * shift/OR on the NT-Path hot path, counting is popcount, and the
 * cumulative merge is a word-wise OR that is independent of the order
 * runs are merged in.
 */

#ifndef PE_COVERAGE_COVERAGE_HH
#define PE_COVERAGE_COVERAGE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "src/isa/program.hh"

namespace pe::coverage
{

/** Tracks which static branch edges a monitored run exercised. */
class BranchCoverage
{
  public:
    explicit BranchCoverage(const isa::Program &program);

    /** Edge (branch at @p pc, direction @p taken) ran on the taken path. */
    void onTakenEdge(uint32_t pc, bool taken)
    {
        setBit(takenBits, key(pc, taken));
    }

    /** Edge ran inside an NT-Path (monitored by the detector). */
    void onNtEdge(uint32_t pc, bool taken)
    {
        setBit(ntBits, key(pc, taken));
    }

    /**
     * True when edge (@p pc, @p taken) has been recorded on the taken
     * path.  One shift and one word read; pcs beyond the bitmap read
     * as uncovered.
     */
    bool takenEdgeCovered(uint32_t pc, bool taken) const
    {
        uint64_t bit = key(pc, taken);
        size_t word = static_cast<size_t>(bit >> 6);
        return word < takenBits.size() &&
               (takenBits[word] >> (bit & 63)) & 1;
    }

    size_t totalEdges() const { return total; }
    size_t takenCovered() const { return popcount(takenBits); }
    size_t ntOnlyCovered() const;
    size_t combinedCovered() const;

    /** Baseline branch coverage (taken path only). */
    double takenFraction() const;

    /** Coverage of the PE-monitored run (taken plus NT edges). */
    double combinedFraction() const;

    /**
     * Union @p other's edges into @p this (cumulative coverage).
     * Word-wise OR: associative and commutative, so a campaign may
     * merge per-run trackers in any order and reach the same state.
     * The two trackers may come from programs of different sizes
     * (e.g. variant builds of one workload): the bitmap grows to the
     * larger edge universe, and merging a smaller map ORs its prefix.
     */
    void mergeFrom(const BranchCoverage &other);

    /**
     * Number of combined (taken or NT) edges of @p this that are not
     * yet combined-covered in @p frontier — the coverage delta a run
     * would contribute if merged.  @p frontier may be smaller or
     * larger than @p this; out-of-range edges count as new.
     */
    size_t newEdgesOver(const BranchCoverage &frontier) const;

    const std::vector<uint64_t> &takenWords() const { return takenBits; }
    const std::vector<uint64_t> &ntWords() const { return ntBits; }

    /**
     * Overwrite both bitmaps from checkpointed words (explorer
     * resume).  The word counts must match this tracker's — the
     * caller has already validated the checkpoint against the
     * program.
     */
    void restoreWords(const std::vector<uint64_t> &taken,
                      const std::vector<uint64_t> &nt);

  private:
    static uint64_t key(uint32_t pc, bool taken)
    {
        return (static_cast<uint64_t>(pc) << 1) | (taken ? 1 : 0);
    }

    void setBit(std::vector<uint64_t> &bits, uint64_t bit)
    {
        // Non-branch pcs never reach here; the bitmap spans every pc.
        uint64_t &word = bits[bit >> 6];
        word |= uint64_t{1} << (bit & 63);
    }

    static size_t popcount(const std::vector<uint64_t> &bits)
    {
        size_t n = 0;
        for (uint64_t w : bits)
            n += static_cast<size_t>(std::popcount(w));
        return n;
    }

    size_t total;
    std::vector<uint64_t> takenBits;
    std::vector<uint64_t> ntBits;
};

/**
 * Per-edge exercise counts accumulated over many runs — the
 * exploration engine's rarity signal.  Where the BTB's 4-bit counters
 * measure *within-run* edge heat (the spawn predicate), this measures
 * *across-run* heat over a whole campaign: an edge most runs reach is
 * common, an edge only a few corpus inputs reach is rare, and inputs
 * holding rare edges are where scheduling energy is best spent
 * (Empc / coverage-guided-tracing style prioritization).
 */
class EdgeExerciseCounts
{
  public:
    explicit EdgeExerciseCounts(const isa::Program &program);

    /** Count one run: ++count for every combined-covered edge. */
    void accumulate(const BranchCoverage &run);

    /**
     * Largest count c such that at most @p percentile of the
     * ever-exercised edges have counts <= c (nearest-rank over the
     * nonzero counts).  0 if nothing has been accumulated.
     */
    uint32_t rarityThreshold(double percentile) const;

    /** Edges of @p run with exercise count <= @p threshold. */
    size_t countRareIn(const BranchCoverage &run,
                       uint32_t threshold) const;

    uint64_t runsAccumulated() const { return runs; }

    const std::vector<uint32_t> &rawCounts() const { return counts; }

    /** Overwrite the counts from a checkpoint (explorer resume). */
    void restoreCounts(const std::vector<uint32_t> &newCounts,
                       uint64_t runsAccumulated);

  private:
    std::vector<uint32_t> counts;   //!< indexed by edge bit 2*pc+taken
    uint64_t runs = 0;
};

} // namespace pe::coverage

#endif // PE_COVERAGE_COVERAGE_HH
