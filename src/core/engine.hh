/**
 * @file
 * The PathExpander engine.
 *
 * One class runs all four evaluation modes of the paper:
 *
 *  - PeMode::Off       — the baseline monitored run (dynamic checker
 *                        only, no NT-Paths);
 *  - PeMode::Standard  — Figure 4(a): at a selected branch, checkpoint
 *                        the registers, execute the non-taken path in
 *                        the versioned-L1 sandbox, squash and resume;
 *  - PeMode::Cmp       — Figure 4(b): NT-Paths execute on the idle
 *                        cores of the CMP under the tree-structured
 *                        TLS dependence rules with commit/squash
 *                        tokens;
 *  - CostModelKind::Software on top of Standard — the Section 5 PIN
 *    implementation: identical path semantics, dynamic-binary-
 *    instrumentation cost model.
 */

#ifndef PE_CORE_ENGINE_HH
#define PE_CORE_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/analysis/verify.hh"
#include "src/core/config.hh"
#include "src/core/result.hh"
#include "src/detect/detector.hh"
#include "src/isa/program.hh"
#include "src/sim/decoded.hh"

namespace pe::core
{

/** Runs a program under a PathExpander configuration. */
class PathExpanderEngine
{
  public:
    /**
     * @param detector the dynamic bug detection tool to integrate
     *        with, or nullptr for coverage/overhead-only runs.
     */
    PathExpanderEngine(const isa::Program &program, const PeConfig &config,
                       detect::Detector *detector = nullptr);

    /**
     * Execute the program on @p input; returns all run artifacts.
     *
     * @param cancel optional cooperative cancellation token (the
     *        campaign watchdog's).  Polled with one relaxed atomic
     *        load per dispatch of the execution loop; when it reads
     *        true the run stops at the next dispatch boundary and
     *        returns a partial RunResult flagged `aborted` with
     *        `stopCause == RunStopCause::Deadline`.  Null (the
     *        default) compiles the poll down to one never-taken
     *        branch.
     */
    RunResult run(const std::vector<int32_t> &input,
                  const std::atomic<bool> *cancel = nullptr);

    const PeConfig &config() const { return cfg; }

    /**
     * The program pre-decoded against this engine's timing config:
     * handler kinds, validated static targets, per-instruction costs
     * and the folded per-PC flags (no-spawn, doomed edges, self-pruning
     * eligibility).  Built once at construction and shared read-only by
     * every run.
     */
    const sim::DecodedProgram &decodedProgram() const { return decoded; }

    /**
     * The static verifier's findings for this engine's program.  The
     * verifier runs at construction (memoised process-wide on the
     * program fingerprint — campaigns build thousands of engines for
     * the same image); error-severity findings are surfaced as
     * warnings once per program but never abort, since malformed
     * programs are legal simulator inputs.
     */
    const analysis::VerifyReport &verifyReport() const { return *verified; }

    /** Per-run internals; defined in engine_impl.hh (not public API). */
    struct RunState;

  private:
    void runInline(RunState &state);
    void runCmp(RunState &state);

    const isa::Program &program;
    PeConfig cfg;
    detect::Detector *detector;
    sim::DecodedProgram decoded;
    const analysis::VerifyReport *verified;
};

/**
 * Convenience: run @p program on @p input in baseline (Off) mode and
 * return the completion time in cycles, for overhead computations.
 */
uint64_t baselineCycles(const isa::Program &program,
                        const std::vector<int32_t> &input,
                        const sim::MachineLayout &layout = {});

} // namespace pe::core

#endif // PE_CORE_ENGINE_HH
