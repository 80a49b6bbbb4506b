/**
 * @file
 * Self-pruning instrumentation: the saturated-region superblock cache
 * and the superblock tier that runs it.
 *
 * PathExpander pays a per-branch tax on the taken path forever —
 * surface to the engine, write a coverage bit, bump a BTB exercise
 * counter, evaluate the spawn predicate — even in regions where none
 * of that can change anything anymore: both coverage bits set (the
 * write is an idempotent no-op), the consulted counters at their
 * saturation cap (the bump is a value no-op and the spawn compare can
 * never pass), and every remaining NT edge statically waived (tagged
 * no-spawn or prior-doomed).  The superblock cache keeps a per-run
 * copy of the engine's `DecodedProgram` image in which every
 * conditional branch starts demoted to `Surface`; a runtime
 * *promotion* flips a saturated branch back to its opcode's kind.
 * `runSuperblock` is the shared dispatch loop (dispatch.cc) under the
 * superblock tier policy: straight-line work *and promoted branches*,
 * no StepResult, no coverage writes, no counter bumps, no spawn
 * checks, no cycle budget — so consecutive saturated regions chain
 * into superblocks bounded only by the caller's instruction budget.
 *
 * Invalidation is by counter-reset epoch: `Btb::resetCounters` bumps
 * an epoch, the engine passes the current epoch to `syncEpoch` once
 * per dispatch, and a mismatch demotes every promoted branch at once.
 * Execution then falls back to the instrumented path (surface,
 * record, bump, maybe spawn) until each region re-saturates, exactly
 * as the instrumented run would behave with its freshly zeroed
 * counters.
 *
 * Bit-identity (the engine's promotion predicate supplies the
 * preconditions; see docs/INTERNALS.md §13 for the full argument):
 * a promoted branch retires with the same base opcode cost the
 * per-step loop charges, touches neither memory hierarchy nor
 * detector (the tier surfaces every load and store), its elided
 * coverage write is idempotent, its elided counter bumps are value
 * no-ops or land on counters provably never read before the next
 * reset zeroes them, its elided LRU stamp lives in a statically
 * conflict-free BTB set (analysis/regions.hh), and the spawn it
 * elides is impossible (counter at cap >= threshold, no
 * random spawn factor).
 */

#ifndef PE_SIM_SUPERBLOCK_HH
#define PE_SIM_SUPERBLOCK_HH

#include <cstdint>
#include <vector>

#include "src/sim/decoded.hh"

namespace pe::sim
{

/** What one runSuperblock call retired in bulk. */
struct SuperOut
{
    uint64_t instructions = 0;  //!< instructions executed
    uint64_t cycles = 0;        //!< their summed base opcode cost
    uint64_t branches = 0;      //!< promoted branches among them
};

/**
 * Per-run pruned re-decode of one engine's DecodedProgram.  The
 * backing array is a copy: promotion mutates this run's image only,
 * never the engine-shared decode.
 */
class SuperblockCache
{
  public:
    /**
     * @param decoded the engine's shared decode (kept by reference;
     *        must outlive the cache — both belong to one run).
     * @param branchEligible per-pc static eligibility
     *        (analysis::computeSaturationEligibility); branches
     *        outside it are never promoted.
     */
    SuperblockCache(const DecodedProgram &decoded,
                    const std::vector<bool> &branchEligible);

    /**
     * Lazily invalidate on counter reset: when @p epoch differs from
     * the cached one, demote every promoted branch and adopt it.
     * Called once per engine dispatch; the fast path is one compare.
     */
    void syncEpoch(uint64_t epoch)
    {
        if (epoch != curEpoch)
            demoteAll(epoch);
    }

    /** Promote the saturated branch at @p pc into executable form. */
    void promote(uint32_t pc);

    /** True while @p pc's branch is promoted in the current epoch. */
    bool promoted(uint32_t pc) const
    {
        return pc < promotedBits.size() && promotedBits[pc];
    }

    /** True when @p pc's branch may ever be promoted. */
    bool eligible(uint32_t pc) const
    {
        return pc < eligibleBits.size() && eligibleBits[pc];
    }

    /**
     * True when the pruned image can make progress at @p pc — the
     * analogue of DecodedProgram::startsBlock over the pruned kinds:
     * promoted branches qualify unconditionally, Chkb/Assert only for
     * detector-free runs (@p inertChecks), loads, stores and Surface
     * never (the superblock tier has no memory port).
     */
    bool startsSuper(uint32_t pc, bool inertChecks) const
    {
        if (pc >= pruned.size())
            return false;
        const DecodedInst &di = pruned[pc];
        return di.kind != HandlerKind::Surface &&
               (di.cls != OpClass::Check || inertChecks) &&
               di.cls != OpClass::Load && di.cls != OpClass::Store;
    }

    uint32_t size() const { return static_cast<uint32_t>(pruned.size()); }
    const DecodedInst *data() const { return pruned.data(); }

    size_t promotedCount() const { return promotedPcs.size(); }
    uint64_t epoch() const { return curEpoch; }

  private:
    void demoteAll(uint64_t newEpoch);

    const DecodedProgram *source;
    std::vector<DecodedInst> pruned;    //!< branches demoted to Surface
    std::vector<bool> eligibleBits;
    std::vector<bool> promotedBits;
    std::vector<uint32_t> promotedPcs;  //!< for O(promoted) demotion
    uint64_t curEpoch = 0;
};

/**
 * The superblock tier: execute instructions from @p cache's pruned
 * image starting at @p core.pc — straight-line work exactly as
 * `runBlock` would run it without a memory port, plus promoted
 * conditional branches executed inline (resolve, redirect, charge
 * base opcode cost — nothing else).  Stops before the first
 * instruction it may not run (loads and stores, which only sim::step
 * and a ported block run; syscalls and other Surface kinds,
 * unpromoted branches, detector ops unless @p inertChecks, runtime
 * Div/Rem-by-zero and invalid Jr, which surface so the instrumented
 * path raises the crash identically) and after at most
 * @p maxInstructions.
 *
 * The caller guarantees the NT-entry predicate is clear (the pruned
 * path runs only on the primary taken path, never at an NT entrance),
 * so Pfix/Pfixst retire as opcode-cost NOPs per the per-step rule.
 *
 * The returned cycle total is the exact base-opcode-cost sum; the
 * engine bulk-adds the software cost model's per-instruction dilation
 * and per-branch analysis cost using the instruction and branch
 * counts.
 */
SuperOut runSuperblock(const SuperblockCache &cache, Core &core,
                       uint64_t maxInstructions, bool inertChecks);

} // namespace pe::sim

#endif // PE_SIM_SUPERBLOCK_HH
