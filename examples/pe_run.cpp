/**
 * @file
 * pe_run — the command-line driver: compile a MiniC (.mc) or PE-RISC
 * assembly (.s) file and run it under PathExpander.
 *
 *   pe_run [options] <program.mc|program.s> [input words...]
 *
 * Options:
 *   --mode=off|standard|cmp     PathExpander configuration (standard)
 *   --tool=none|ccured|iwatcher|assert   dynamic checker (iwatcher)
 *   --max-nt-len=N              MaxNTPathLength (1000)
 *   --threshold=N               NTPathCounterThreshold (5)
 *   --no-fixing                 disable the Section-4.4 fixes
 *   --sandbox-io                speculative I/O sandboxing extension
 *   --random-spawn=F            random spawn fraction extension
 *   --software                  Section-5 software cost model
 *   --stdin-text                read program input as text bytes from
 *                               stdin instead of argv words
 *   --disasm                    dump the compiled program and exit
 *   --emit-obj=FILE             write the compiled program as a .po
 *                               object file and exit (.po files are
 *                               accepted as program inputs too)
 *
 * Example:
 *   echo '3+4*2' | ./pe_run --tool=ccured --stdin-text calc.mc
 */

#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/core/engine.hh"
#include "src/isa/assembler.hh"
#include "src/isa/objfile.hh"
#include "src/minic/compiler.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"

using namespace pe;

namespace
{

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::cerr << "pe_run: " << msg << "\n";
    std::cerr
        << "usage: pe_run [--mode=off|standard|cmp] "
           "[--tool=none|ccured|iwatcher|assert]\n"
           "              [--max-nt-len=N] [--threshold=N] "
           "[--no-fixing] [--sandbox-io]\n"
           "              [--random-spawn=F] [--software] "
           "[--stdin-text] [--disasm]\n"
           "              <program.mc|program.s> [input words...]\n";
    std::exit(2);
}

/** --random-spawn's value: a fraction from 0 to 1, or a usage error. */
double
parseFraction(const std::string &text)
{
    double value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !(value >= 0 && value <= 1)) {
        usage(("--random-spawn: expected a fraction from 0 to 1, got '" +
               text + "'")
                  .c_str());
    }
    return value;
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

} // namespace

int
main(int argc, char **argv)
{
    core::PeConfig cfg = core::PeConfig::forMode(
        core::PeMode::Standard);
    std::string toolName = "iwatcher";
    std::string path;
    std::string emitObj;
    std::vector<int32_t> input;
    bool stdinText = false;
    bool disasm = false;

    // A malformed or out-of-range number is a usage error.
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (startsWith(arg, "--mode=")) {
                std::string m = arg.substr(7);
                if (m == "off")
                    cfg = core::PeConfig::forMode(core::PeMode::Off);
                else if (m == "standard")
                    cfg = core::PeConfig::forMode(core::PeMode::Standard);
                else if (m == "cmp")
                    cfg = core::PeConfig::forMode(core::PeMode::Cmp);
                else
                    usage("unknown mode");
            } else if (startsWith(arg, "--tool=")) {
                toolName = arg.substr(7);
            } else if (startsWith(arg, "--max-nt-len=")) {
                cfg.maxNtPathLength = static_cast<uint32_t>(
                    parseUnsigned("--max-nt-len", arg.substr(13), UINT32_MAX));
            } else if (startsWith(arg, "--threshold=")) {
                cfg.ntPathCounterThreshold = static_cast<uint8_t>(
                    parseUnsigned("--threshold", arg.substr(12), UINT8_MAX));
            } else if (arg == "--no-fixing") {
                cfg.variableFixing = false;
            } else if (arg == "--sandbox-io") {
                cfg.sandboxIo = true;
            } else if (startsWith(arg, "--random-spawn=")) {
                cfg.randomSpawnFraction = parseFraction(arg.substr(15));
            } else if (arg == "--software") {
                cfg.costModel = core::CostModelKind::Software;
            } else if (arg == "--stdin-text") {
                stdinText = true;
            } else if (arg == "--disasm") {
                disasm = true;
            } else if (startsWith(arg, "--emit-obj=")) {
                emitObj = arg.substr(11);
            } else if (startsWith(arg, "--")) {
                usage(("unknown option '" + arg + "'").c_str());
            } else if (path.empty()) {
                path = arg;
            } else {
                input.push_back(static_cast<int32_t>(
                    parseSigned("input word", arg, INT32_MIN, INT32_MAX)));
            }
        }
    } catch (const FatalError &e) {
        usage(e.what());
    }
    if (path.empty())
        usage("no program file");

    auto endsWith = [&](const char *suffix) {
        size_t n = std::string(suffix).size();
        return path.size() > n &&
               path.compare(path.size() - n, n, suffix) == 0;
    };
    isa::Program program;
    try {
        if (endsWith(".po")) {
            program = isa::loadObjectFile(path);
        } else if (endsWith(".s")) {
            program = isa::assemble(readFile(path), path);
        } else {
            program = minic::compile(readFile(path), path);
        }
        if (!emitObj.empty()) {
            isa::saveObjectFile(program, emitObj);
            std::cerr << "wrote " << emitObj << " ("
                      << program.code.size() << " instructions)\n";
            return 0;
        }
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }

    if (disasm) {
        for (uint32_t pc = 0; pc < program.code.size(); ++pc) {
            std::cout << padLeft(std::to_string(pc), 5) << "  "
                      << padRight(program.describePc(pc), 24)
                      << isa::disassemble(program.code[pc]) << "\n";
        }
        return 0;
    }

    if (stdinText) {
        int c;
        while ((c = std::cin.get()) != EOF)
            input.push_back(static_cast<int32_t>(c));
    }

    std::unique_ptr<detect::Detector> detector;
    if (toolName == "ccured")
        detector = std::make_unique<detect::BoundsChecker>();
    else if (toolName == "iwatcher")
        detector = std::make_unique<detect::WatchChecker>();
    else if (toolName == "assert")
        detector = std::make_unique<detect::AssertChecker>();
    else if (toolName != "none")
        usage("unknown tool");

    try {
        core::PathExpanderEngine engine(program, cfg, detector.get());
        auto r = engine.run(input);

        std::cout << r.io.charOutput;
        if (!r.io.charOutput.empty() && r.io.charOutput.back() != '\n')
            std::cout << "\n";

        std::cerr << "---\n";
        r.printSummary(std::cerr);
        return r.programCrashed ? 1 : 0;
    } catch (const FatalError &e) {
        // A program the machine layout cannot hold, for one.
        std::cerr << e.what() << "\n";
        return 1;
    }
}
