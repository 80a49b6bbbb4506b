/**
 * @file
 * Run-result helpers.
 */

#include "src/core/result.hh"

#include <map>

#include "src/support/strutil.hh"

namespace pe::core
{

const char *
ntStopCauseName(NtStopCause cause)
{
    switch (cause) {
      case NtStopCause::MaxLength: return "max-length";
      case NtStopCause::Crash: return "crash";
      case NtStopCause::UnsafeEvent: return "unsafe-event";
      case NtStopCause::ProgramEnd: return "program-end";
      case NtStopCause::CapacityOverflow: return "capacity-overflow";
      case NtStopCause::ForcedSquash: return "forced-squash";
      case NtStopCause::HostAbort: return "host-abort";
    }
    return "?";
}

const char *
runStopCauseName(RunStopCause cause)
{
    switch (cause) {
      case RunStopCause::Completed: return "completed";
      case RunStopCause::Crashed: return "crashed";
      case RunStopCause::InstructionLimit: return "instruction-limit";
      case RunStopCause::Deadline: return "deadline";
    }
    return "?";
}

double
RunResult::ntFraction(NtStopCause cause) const
{
    if (ntRecords.empty())
        return 0.0;
    size_t n = 0;
    for (const auto &r : ntRecords) {
        if (r.cause == cause)
            ++n;
    }
    return static_cast<double>(n) / static_cast<double>(ntRecords.size());
}

void
RunResult::printSummary(std::ostream &os) const
{
    if (programCrashed) {
        os << "program CRASHED: "
           << sim::crashKindName(programCrashKind) << "\n";
    }
    if (hitInstructionLimit)
        os << "instruction limit reached\n";
    if (aborted) {
        os << "run ABORTED by the host watchdog ("
           << runStopCauseName(stopCause) << "); counts are partial\n";
    }

    os << "instructions: " << takenInstructions << " taken, "
       << ntInstructions << " NT\n"
       << "cycles:       " << cycles << "\n";

    os << "NT-Paths:     " << ntPathsSpawned << " spawned";
    if (ntPathsSkippedBusy)
        os << ", " << ntPathsSkippedBusy << " skipped busy";
    os << "\n";
    if (!ntRecords.empty()) {
        std::map<NtStopCause, uint64_t> byCause;
        for (const auto &rec : ntRecords)
            ++byCause[rec.cause];
        os << "  stop causes:";
        for (const auto &[cause, n] : byCause)
            os << " " << ntStopCauseName(cause) << "=" << n;
        os << "\n  mean length: " << fmtDouble(ntMeanLength(), 1)
           << " instructions\n";
    }

    os << "coverage:     " << fmtPercent(coverage.takenFraction())
       << " taken";
    if (coverage.ntOnlyCovered() > 0) {
        os << ", " << fmtPercent(coverage.combinedFraction())
           << " with NT-Paths";
    }
    os << " (" << coverage.totalEdges() << " edges)\n";

    auto distinct = monitor.distinctReports();
    os << "reports:      " << distinct.size() << " distinct ("
       << monitor.reports().size() << " total)\n";
    for (const auto &rep : distinct) {
        os << "  " << detect::reportKindName(rep.kind) << " at "
           << rep.site;
        if (rep.kind == detect::ReportKind::AssertFail)
            os << " (assert #" << rep.assertId << ")";
        if (rep.fromNtPath)
            os << " [NT-Path]";
        os << "\n";
    }
}

double
RunResult::ntMeanLength() const
{
    if (ntRecords.empty())
        return 0.0;
    uint64_t sum = 0;
    for (const auto &r : ntRecords)
        sum += r.length;
    return static_cast<double>(sum) /
           static_cast<double>(ntRecords.size());
}

} // namespace pe::core
