/**
 * @file
 * Static saturation eligibility for the self-pruning instrumentation.
 *
 * The engine may promote a conditional branch into the block tier,
 * which then runs it with no bookkeeping, once it is *saturated*:
 * both taken-coverage bits set and, in every direction the spawn
 * predicate would still consult, the BTB exercise counter at its
 * cap.  Eliding the per-execution `Btb::increment` is only
 * bit-identical if the skipped bookkeeping could never have changed
 * an observable decision — and one piece of that bookkeeping is the
 * LRU `lastUse` stamp, which feeds eviction.
 * A promoted branch whose BTB set could overflow might be chosen as
 * the LRU victim differently in the pruned and instrumented runs,
 * changing which counters survive and therefore which NT-Paths spawn.
 *
 * The static eligibility computed here, which the engine folds into
 * a per-PC decode flag, closes that hole: a branch pc is eligible
 * only when its BTB set is *conflict-free* — the number of
 * conditional-branch pcs mapping to the set (only branch pcs are ever
 * inserted into the BTB) is at most the associativity, so every one
 * of them can be resident simultaneously and eviction can never occur
 * there.  Frozen LRU stamps in such a set are unobservable, and
 * skipped `useClock` ticks preserve the relative recency order every
 * other set's eviction decisions are based on.
 *
 * Branches with statically invalid targets are excluded from both the
 * set population and eligibility: executing one raises BadJump before
 * any BTB update, so they never enter the table.
 */

#ifndef PE_ANALYSIS_REGIONS_HH
#define PE_ANALYSIS_REGIONS_HH

#include <cstdint>
#include <vector>

#include "src/isa/program.hh"

namespace pe::analysis
{

class Cfg;

/** Per-pc static eligibility for self-pruning promotion. */
struct SaturationEligibility
{
    /** True at pcs holding an eligible conditional branch. */
    std::vector<bool> branchEligible;

    uint32_t condBranches = 0;      //!< statically valid cond branches
    uint32_t eligibleBranches = 0;  //!< of those, in conflict-free sets
};

/**
 * Compute eligibility of every conditional branch of @p program
 * against a BTB of @p btbSets sets of @p btbWays ways (the engine
 * passes its `BtbParams` geometry: sets = entries / ways).
 */
SaturationEligibility
computeSaturationEligibility(const isa::Program &program,
                             uint32_t btbSets, uint32_t btbWays);

/**
 * Number of CFG regions (basic blocks) that end in an eligible
 * conditional branch — the regions runtime saturation could ever
 * promote.  The pelint per-workload report.
 */
size_t countEligibleRegions(const Cfg &cfg,
                            const SaturationEligibility &elig);

} // namespace pe::analysis

#endif // PE_ANALYSIS_REGIONS_HH
