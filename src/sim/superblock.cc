/**
 * @file
 * The pruned re-decode image.
 */

#include "src/sim/superblock.hh"

#include "src/support/status.hh"

namespace pe::sim
{

SuperblockCache::SuperblockCache(const DecodedProgram &decoded,
                                 const std::vector<bool> &branchEligible)
    : source(&decoded),
      pruned(decoded.data(), decoded.data() + decoded.size()),
      eligibleBits(decoded.size(), false),
      promotedBits(decoded.size(), false)
{
    for (uint32_t pc = 0; pc < pruned.size(); ++pc) {
        if (pruned[pc].kind == HandlerKind::Surface ||
            pruned[pc].cls != OpClass::Branch) {
            continue;
        }
        // Every conditional branch starts demoted: the instrumented
        // path owns it until runtime saturation promotes it.
        pruned[pc].kind = HandlerKind::Surface;
        if (pc < branchEligible.size() && branchEligible[pc])
            eligibleBits[pc] = true;
    }
}

void
SuperblockCache::promote(uint32_t pc)
{
    pe_assert(eligible(pc) && !promoted(pc), "bad promotion");
    pruned[pc].kind = source->data()[pc].kind;
    promotedBits[pc] = true;
    promotedPcs.push_back(pc);
}

void
SuperblockCache::demoteAll(uint64_t newEpoch)
{
    for (uint32_t pc : promotedPcs) {
        pruned[pc].kind = HandlerKind::Surface;
        promotedBits[pc] = false;
    }
    promotedPcs.clear();
    curEpoch = newEpoch;
}

} // namespace pe::sim
