/**
 * @file
 * pelint — static linter for PE-RISC programs: runs the analysis
 * verifier and the Section-4.4 fix-set checker and reports every
 * finding.
 *
 *   pelint [options] [program.s|program.mc|program.po ...]
 *
 * With no program arguments every registered workload is checked —
 * the CI smoke configuration, expected to report zero errors.
 *
 * Options:
 *   --json        one JSON object on stdout instead of text lines
 *   --no-fixcheck verifier only (skip the fix-set cross-check)
 *   --verbose     also print per-program audit counters in text mode
 *
 * Exit status: 0 when no error-severity finding was produced, 1 when
 * at least one was, 2 on usage/compile errors.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/cfg.hh"
#include "src/analysis/fixcheck.hh"
#include "src/analysis/primepaths.hh"
#include "src/analysis/verify.hh"
#include "src/isa/assembler.hh"
#include "src/isa/objfile.hh"
#include "src/minic/compiler.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"
#include "src/workloads/workload.hh"

using namespace pe;

namespace
{

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::cerr << "pelint: " << msg << "\n";
    std::cerr << "usage: pelint [--json] [--no-fixcheck] [--verbose]\n"
                 "              [program.s|program.mc|program.po ...]\n"
                 "With no programs, all registered workloads are "
                 "checked.\n";
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        usage(("cannot open '" + path + "'").c_str());
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** Findings and audit counters for one checked program. */
struct LintResult
{
    std::string name;
    std::vector<analysis::Diagnostic> diagnostics;
    size_t errors = 0;
    size_t warnings = 0;
    uint32_t checkedBranches = 0;
    uint32_t derivedSlices = 0;
    uint32_t matchedFixes = 0;
    // Prime-path structure (src/analysis/primepaths.hh): how many
    // maximal simple paths the CFG holds, how few of them suffice to
    // cover every intraprocedural edge, and whether the enumeration
    // hit its cap (counts below a truncated enumeration are floors).
    size_t primePaths = 0;
    size_t pathCover = 0;
    bool pathsTruncated = false;
};

LintResult
lint(const isa::Program &program, bool fixcheck)
{
    LintResult res;
    res.name = program.name;
    const analysis::VerifyReport &report =
        analysis::verifyProgram(program);
    res.diagnostics = report.diagnostics;
    if (fixcheck) {
        analysis::FixCheckResult fc = analysis::checkFixSets(program);
        res.checkedBranches = fc.checkedBranches;
        res.derivedSlices = fc.derivedSlices;
        res.matchedFixes = fc.matchedFixes;
        res.diagnostics.insert(res.diagnostics.end(),
                               fc.diagnostics.begin(),
                               fc.diagnostics.end());
    }
    for (const auto &d : res.diagnostics) {
        if (d.severity == analysis::Severity::Error)
            ++res.errors;
        else
            ++res.warnings;
    }

    const analysis::Cfg cfg(program);
    const analysis::PrimePathSet pathSet =
        analysis::enumeratePrimePaths(cfg);
    res.primePaths = pathSet.paths.size();
    res.pathCover = analysis::computePathCover(cfg, pathSet).size();
    res.pathsTruncated = pathSet.truncated;
    return res;
}

void
printText(const isa::Program &program, const LintResult &res,
          bool verbose)
{
    for (const auto &d : res.diagnostics) {
        std::cout << res.name << ": "
                  << analysis::formatDiagnostic(program, d) << "\n";
    }
    if (verbose || !res.diagnostics.empty()) {
        std::cout << res.name << ": " << res.errors << " error(s), "
                  << res.warnings << " warning(s), "
                  << res.checkedBranches << " branch(es) checked, "
                  << res.matchedFixes << " fix(es) matched\n";
    }
    if (verbose) {
        std::cout << res.name << ": " << res.primePaths
                  << " prime path(s), cover " << res.pathCover
                  << (res.pathsTruncated ? " (truncated)" : "")
                  << "\n";
    }
}

void
printJson(std::ostream &os, const isa::Program &program,
          const LintResult &res, bool first)
{
    if (!first)
        os << ",";
    os << "\n  {\"program\":\"" << jsonEscape(res.name)
       << "\",\"errors\":" << res.errors
       << ",\"warnings\":" << res.warnings
       << ",\"checked_branches\":" << res.checkedBranches
       << ",\"derived_slices\":" << res.derivedSlices
       << ",\"matched_fixes\":" << res.matchedFixes
       << ",\"prime_paths\":" << res.primePaths
       << ",\"path_cover\":" << res.pathCover
       << ",\"paths_truncated\":"
       << (res.pathsTruncated ? "true" : "false")
       << ",\"diagnostics\":[";
    for (size_t i = 0; i < res.diagnostics.size(); ++i) {
        const auto &d = res.diagnostics[i];
        if (i)
            os << ",";
        os << "\n    {\"code\":\"" << analysis::diagCodeName(d.code)
           << "\",\"severity\":\""
           << analysis::severityName(d.severity)
           << "\",\"pc\":" << d.pc << ",\"where\":\""
           << jsonEscape(program.describePc(d.pc))
           << "\",\"message\":\"" << jsonEscape(d.message) << "\"}";
    }
    if (!res.diagnostics.empty())
        os << "\n  ";
    os << "]}";
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool fixcheck = true;
    bool verbose = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json")
            json = true;
        else if (arg == "--no-fixcheck")
            fixcheck = false;
        else if (arg == "--verbose")
            verbose = true;
        else if (startsWith(arg, "--"))
            usage(("unknown option '" + arg + "'").c_str());
        else
            paths.push_back(arg);
    }

    // Collect (name, program) pairs: explicit files, or every
    // registered workload when none were given.
    std::vector<isa::Program> programs;
    try {
        if (paths.empty()) {
            for (const auto &name : workloads::workloadNames()) {
                const auto &w = workloads::getWorkload(name);
                programs.push_back(minic::compile(w.source, name));
            }
        } else {
            for (const auto &path : paths) {
                auto endsWith = [&](const char *suffix) {
                    size_t n = std::string(suffix).size();
                    return path.size() > n &&
                           path.compare(path.size() - n, n, suffix) ==
                               0;
                };
                if (endsWith(".po"))
                    programs.push_back(isa::loadObjectFile(path));
                else if (endsWith(".mc"))
                    programs.push_back(
                        minic::compile(readFile(path), path));
                else
                    programs.push_back(
                        isa::assemble(readFile(path), path));
            }
        }
    } catch (const FatalError &e) {
        std::cerr << "pelint: " << e.what() << "\n";
        return 2;
    }

    size_t totalErrors = 0;
    size_t totalWarnings = 0;
    if (json)
        std::cout << "{\"programs\":[";
    bool first = true;
    for (const auto &program : programs) {
        LintResult res = lint(program, fixcheck);
        totalErrors += res.errors;
        totalWarnings += res.warnings;
        if (json)
            printJson(std::cout, program, res, first);
        else
            printText(program, res, verbose);
        first = false;
    }
    if (json) {
        std::cout << "\n ],\"total_errors\":" << totalErrors
                  << ",\"total_warnings\":" << totalWarnings << "}\n";
    } else {
        std::cout << programs.size() << " program(s): " << totalErrors
                  << " error(s), " << totalWarnings
                  << " warning(s)\n";
    }
    return totalErrors > 0 ? 1 : 0;
}
