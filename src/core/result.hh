/**
 * @file
 * Results of one PathExpander-monitored run.
 */

#ifndef PE_CORE_RESULT_HH
#define PE_CORE_RESULT_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "src/coverage/coverage.hh"
#include "src/detect/report.hh"
#include "src/sim/events.hh"
#include "src/sim/io.hh"

namespace pe::core
{

/** Why an NT-Path stopped (paper Section 4.2, termination rules). */
enum class NtStopCause : uint8_t
{
    MaxLength,          //!< executed MaxNTPathLength instructions
    Crash,              //!< faulted; the exception was swallowed
    UnsafeEvent,        //!< reached an I/O system call
    ProgramEnd,         //!< reached the end of the program
    CapacityOverflow,   //!< write set exceeded the L1 line capacity
    ForcedSquash,       //!< CMP: squashed to unblock a segment commit
    HostAbort,          //!< host watchdog cancelled the whole run
};

const char *ntStopCauseName(NtStopCause cause);

/**
 * Why the monitored run as a whole ended.  `Deadline` is the one
 * host-side cause: the campaign watchdog's cooperative cancellation
 * token fired and the engine returned a partial result instead of
 * hanging its worker.
 */
enum class RunStopCause : uint8_t
{
    Completed,          //!< the program exited (or crashed — see flags)
    Crashed,            //!< taken path crashed (programCrashed is set)
    InstructionLimit,   //!< maxTakenInstructions safety net
    Deadline,           //!< watchdog cancel token; result is partial
};

const char *runStopCauseName(RunStopCause cause);

/** Record of one explored NT-Path. */
struct NtPathRecord
{
    uint32_t spawnBranchPc = 0;
    bool spawnEdgeTaken = false;    //!< direction of the explored edge
    uint64_t length = 0;            //!< instructions executed
    NtStopCause cause = NtStopCause::MaxLength;
    sim::CrashKind crashKind = sim::CrashKind::None;
};

/** Everything a monitored run produced. */
struct RunResult
{
    explicit RunResult(const isa::Program &program) : coverage(program) {}

    // Program outcome.
    bool programCrashed = false;
    sim::CrashKind programCrashKind = sim::CrashKind::None;
    bool hitInstructionLimit = false;

    /**
     * The run was cancelled by the host (campaign job watchdog):
     * every count below covers only the prefix that executed, and
     * stopCause says why the run ended.
     */
    bool aborted = false;
    RunStopCause stopCause = RunStopCause::Completed;

    // Work counts.
    uint64_t takenInstructions = 0;
    uint64_t ntInstructions = 0;

    /**
     * Retired with self-pruning: always 0.  It stays only until the
     * benchmark stops reading it.
     */
    uint64_t prunedInstructions = 0;

    /**
     * Taken-path branch-decision stream (cfg.recordEdgeTrace): one
     * (pc << 1) | taken word per executed conditional branch, in
     * execution order, capped at cfg.edgeTraceCap events; both tiers
     * append it, so it is part of the bit-identity contract.  Feeds
     * the prime-path fold (coverage::PathCoverage).
     */
    std::vector<uint32_t> branchTrace;
    bool branchTraceTruncated = false;

    /** Record one branch event, honoring @p cap. */
    void recordBranchEvent(uint32_t pc, bool taken, uint32_t cap)
    {
        if (branchTrace.size() < cap)
            branchTrace.push_back((pc << 1) | (taken ? 1u : 0u));
        else
            branchTraceTruncated = true;
    }

    /** Primary-core completion time in cycles. */
    uint64_t cycles = 0;

    // NT-Path statistics.
    uint64_t ntPathsSpawned = 0;
    uint64_t ntPathsSkippedBusy = 0;    //!< CMP: MaxNumNTPaths reached
    std::vector<NtPathRecord> ntRecords;

    // Memory system statistics.
    uint64_t l2ContentionCycles = 0;

    /**
     * CMP option: each core's local clock at completion ([0] is the
     * primary core; idle cores stop advancing when no NT-Path is
     * assigned).  Single-core modes report one entry equal to cycles.
     */
    std::vector<uint64_t> coreCycles;

    detect::MonitorArea monitor;
    coverage::BranchCoverage coverage;
    sim::IoChannel io;

    /**
     * Four-lane FNV-1a digest of the final main-memory image
     * (mem::MainMemory::digest): lets tests and users verify the
     * sandboxing invariant that PathExpander never perturbs
     * architected state.  Tests pin its value for fixed workloads, so
     * the construction is part of the result contract.
     */
    uint64_t memoryDigest = 0;

    /** Fraction of NT-Paths with stop cause @p cause. */
    double ntFraction(NtStopCause cause) const;

    /** Mean executed length of NT-Paths. */
    double ntMeanLength() const;

    /**
     * Print a human-readable run summary (instructions, cycles,
     * NT-Path statistics by stop cause, coverage, distinct reports).
     */
    void printSummary(std::ostream &os) const;
};

} // namespace pe::core

#endif // PE_CORE_RESULT_HH
