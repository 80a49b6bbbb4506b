/**
 * @file
 * Verifier pass implementations.
 */

#include "src/analysis/verify.hh"

#include <deque>
#include <memory>
#include <mutex>
#include <sstream>

#include "src/analysis/dataflow.hh"
#include "src/isa/instruction.hh"
#include "src/isa/regs.hh"
#include "src/support/fnv.hh"

namespace pe::analysis
{

namespace
{

using isa::Opcode;
using isa::Syscall;
namespace reg = isa::reg;

/** Per-class diagnostic cap so a broken program can't flood reports. */
constexpr size_t diagCap = 64;

bool
isDirectJump(Opcode op)
{
    return isa::isConditionalBranch(op) || op == Opcode::Jmp ||
           op == Opcode::Jal;
}

class Verifier
{
  public:
    explicit Verifier(const isa::Program &program)
        : prog(program), cfg(program)
    {}

    VerifyReport run();

  private:
    void add(DiagCode code, Severity sev, uint32_t pc,
             std::string msg);
    void checkTargets();
    void checkFallOffEnd();
    void checkUnreachable();
    void checkDefBeforeUse();
    void checkStackBalance();
    void checkObjPairing();

    const isa::Program &prog;
    Cfg cfg;
    VerifyReport report;
    size_t classCount[static_cast<size_t>(DiagCode::NumDiagCodes)] =
        {};
};

void
Verifier::add(DiagCode code, Severity sev, uint32_t pc,
              std::string msg)
{
    size_t &count = classCount[static_cast<size_t>(code)];
    if (count++ >= diagCap)
        return;
    report.diagnostics.push_back(
        Diagnostic{code, sev, pc, std::move(msg)});
}

void
Verifier::checkTargets()
{
    const auto &code = prog.code;
    for (uint32_t pc = 0; pc < code.size(); ++pc) {
        const isa::Instruction &inst = code[pc];
        if (!isDirectJump(inst.op))
            continue;
        if (!staticTargetValid(inst, code.size())) {
            std::ostringstream oss;
            oss << "target " << inst.imm << " of '"
                << isa::disassemble(inst) << "' is outside the "
                << code.size() << "-instruction program";
            add(DiagCode::InvalidTarget, Severity::Error, pc,
                oss.str());
            continue;
        }
        // Control entering a fix pair at the Pfixst skips the Pfix
        // that loads the value it stores.
        const uint32_t target = static_cast<uint32_t>(inst.imm);
        if (code[target].op == Opcode::Pfixst) {
            std::ostringstream oss;
            oss << "'" << isa::disassemble(inst)
                << "' targets the pfixst half of a fix pair at pc "
                << target;
            add(DiagCode::SplitFixPair, Severity::Warning, pc,
                oss.str());
        }
    }
}

void
Verifier::checkFallOffEnd()
{
    const auto &code = prog.code;
    if (code.empty())
        return;
    const isa::Instruction &last = code.back();
    bool falls = true;
    switch (last.op) {
      case Opcode::Jmp:
      case Opcode::Jr:
        falls = false;
        break;
      case Opcode::Sys:
        falls = static_cast<Syscall>(last.imm) != Syscall::Exit;
        break;
      default:
        break;
    }
    if (falls) {
        add(DiagCode::FallOffEnd, Severity::Error,
            static_cast<uint32_t>(code.size() - 1),
            "execution can fall through off the end of the program");
    }
}

void
Verifier::checkUnreachable()
{
    // One diagnostic per maximal run of contiguous unreachable
    // blocks, so dead regions don't flood the report.
    const auto &reach = cfg.reachable();
    uint32_t runStart = noBlock;
    uint32_t runEnd = 0;
    auto flush = [&]() {
        if (runStart == noBlock)
            return;
        const uint32_t firstPc = cfg.block(runStart).firstPc;
        const uint32_t lastPc = cfg.block(runEnd).lastPc;
        std::ostringstream oss;
        oss << "instructions [" << firstPc << ", " << lastPc
            << "] are unreachable from the entry";
        add(DiagCode::UnreachableBlock, Severity::Warning, firstPc,
            oss.str());
        runStart = noBlock;
    };
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!reach[b]) {
            if (runStart == noBlock)
                runStart = b;
            runEnd = b;
        } else {
            flush();
        }
    }
    flush();
}

void
Verifier::checkDefBeforeUse()
{
    const uint32_t entryDefined = (1u << reg::zero) | (1u << reg::sp) |
                                  (1u << reg::fp) | (1u << reg::ra) |
                                  (1u << reg::rv);
    const std::vector<uint32_t> in = definedRegsIn(cfg, entryDefined);
    const auto &code = prog.code;
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
        if (!cfg.reachable()[b])
            continue;
        uint32_t defined = in[b];
        const BasicBlock &blk = cfg.block(b);
        for (uint32_t pc = blk.firstPc; pc <= blk.lastPc; ++pc) {
            const isa::Instruction &inst = code[pc];
            uint32_t undef = regReadMask(inst) & ~defined;
            while (undef) {
                const int r = __builtin_ctz(undef);
                undef &= undef - 1;
                std::ostringstream oss;
                oss << "'" << isa::disassemble(inst) << "' reads r"
                    << r << " before any definition reaches it";
                add(DiagCode::DefBeforeUse, Severity::Warning, pc,
                    oss.str());
            }
            defined |= inst.op == Opcode::Jal ? 0xFFFFFFFFu
                                              : regWriteMask(inst);
        }
    }
}

void
Verifier::checkStackBalance()
{
    // Symbolic sp/fp offsets relative to the sp at function entry.
    // `jr ra` must see sp back at offset 0.  Offsets go unknown on
    // any write we can't model; unknown never warns.
    struct Off
    {
        bool known = false;
        int32_t val = 0;
        bool operator==(const Off &o) const = default;
    };
    struct State
    {
        bool visited = false;
        Off sp, fp;
        bool operator==(const State &o) const = default;
    };
    const auto &code = prog.code;

    auto step = [&](State st, const isa::Instruction &inst) {
        auto src = [&](uint8_t r) -> Off {
            if (r == reg::sp)
                return st.sp;
            if (r == reg::fp)
                return st.fp;
            return Off{};
        };
        // Calls preserve sp/fp under the MiniC ABI.
        if (inst.op == Opcode::Jal)
            return st;
        const uint32_t writes = regWriteMask(inst);
        if (writes & (1u << reg::sp)) {
            Off n;
            if (inst.op == Opcode::Addi) {
                Off base = src(inst.rs1);
                if (base.known)
                    n = Off{true, base.val + inst.imm};
            }
            st.sp = n;
        }
        if (writes & (1u << reg::fp)) {
            Off n;
            if (inst.op == Opcode::Addi) {
                Off base = src(inst.rs1);
                if (base.known)
                    n = Off{true, base.val + inst.imm};
            }
            st.fp = n;
        }
        return st;
    };

    for (const isa::FuncInfo &f : prog.funcs) {
        const uint32_t entryBlock = cfg.blockOf(f.startPc);
        if (entryBlock == noBlock)
            continue;
        std::vector<State> states(cfg.numBlocks());
        states[entryBlock].visited = true;
        states[entryBlock].sp = Off{true, 0};
        std::vector<uint32_t> work{entryBlock};
        while (!work.empty()) {
            const uint32_t b = work.back();
            work.pop_back();
            State st = states[b];
            const BasicBlock &blk = cfg.block(b);
            for (uint32_t pc = blk.firstPc; pc <= blk.lastPc; ++pc)
                st = step(st, code[pc]);
            for (uint32_t e : cfg.block(b).succs) {
                const CfgEdge &edge = cfg.edges()[e];
                if (edge.kind == EdgeKind::Call)
                    continue;
                const BasicBlock &to = cfg.block(edge.to);
                if (to.firstPc < f.startPc || to.firstPc >= f.endPc)
                    continue;
                State merged = st;
                merged.visited = true;
                if (states[edge.to].visited) {
                    State &old = states[edge.to];
                    if (old.sp != merged.sp)
                        merged.sp = Off{};
                    if (old.fp != merged.fp)
                        merged.fp = Off{};
                    if (merged == old)
                        continue;
                }
                states[edge.to] = merged;
                work.push_back(edge.to);
            }
        }
        // Check every return the walk reached.
        for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
            if (!states[b].visited)
                continue;
            const BasicBlock &blk = cfg.block(b);
            const isa::Instruction &lastInst = code[blk.lastPc];
            if (lastInst.op != Opcode::Jr || lastInst.rs1 != reg::ra)
                continue;
            State st = states[b];
            for (uint32_t pc = blk.firstPc; pc < blk.lastPc; ++pc)
                st = step(st, code[pc]);
            if (st.sp.known && st.sp.val != 0) {
                std::ostringstream oss;
                oss << "function '" << f.name
                    << "' returns with sp offset " << st.sp.val
                    << " (expected 0)";
                add(DiagCode::UnbalancedStack, Severity::Warning,
                    blk.lastPc, oss.str());
            }
        }
    }
}

void
Verifier::checkObjPairing()
{
    // A stack array registered in a function body must be
    // unregistered before return (minic's epilogue does this).  Heap
    // Regobjs pair with free() anywhere, so only StackArray counts.
    const auto &code = prog.code;
    for (const isa::FuncInfo &f : prog.funcs) {
        int stackRegs = 0;
        int unregs = 0;
        for (uint32_t pc = f.startPc;
             pc < f.endPc && pc < code.size(); ++pc) {
            const isa::Instruction &inst = code[pc];
            if (inst.op == Opcode::Regobj &&
                static_cast<isa::ObjectKind>(inst.imm) ==
                    isa::ObjectKind::StackArray) {
                ++stackRegs;
            } else if (inst.op == Opcode::Unregobj) {
                ++unregs;
            }
        }
        if (stackRegs > unregs) {
            std::ostringstream oss;
            oss << "function '" << f.name << "' registers "
                << stackRegs << " stack array(s) but unregisters only "
                << unregs;
            add(DiagCode::UnpairedObj, Severity::Warning, f.startPc,
                oss.str());
        }
    }
}

VerifyReport
Verifier::run()
{
    checkTargets();
    checkFallOffEnd();
    checkUnreachable();
    checkDefBeforeUse();
    checkStackBalance();
    checkObjPairing();
    return std::move(report);
}

} // namespace

const char *
diagCodeName(DiagCode code)
{
    switch (code) {
      case DiagCode::InvalidTarget: return "invalid-target";
      case DiagCode::FallOffEnd: return "fall-off-end";
      case DiagCode::UnreachableBlock: return "unreachable-block";
      case DiagCode::DefBeforeUse: return "def-before-use";
      case DiagCode::UnbalancedStack: return "unbalanced-stack";
      case DiagCode::UnpairedObj: return "unpaired-obj";
      case DiagCode::SplitFixPair: return "split-fix-pair";
      case DiagCode::MalformedFixPair: return "malformed-fix-pair";
      case DiagCode::MissingFix: return "missing-fix";
      case DiagCode::ExtraFix: return "extra-fix";
      case DiagCode::WrongFixValue: return "wrong-fix-value";
      case DiagCode::WrongFixHome: return "wrong-fix-home";
      case DiagCode::NumDiagCodes: break;
    }
    return "?";
}

const char *
severityName(Severity sev)
{
    return sev == Severity::Error ? "error" : "warning";
}

size_t
VerifyReport::errorCount() const
{
    size_t n = 0;
    for (const Diagnostic &d : diagnostics)
        n += d.severity == Severity::Error;
    return n;
}

size_t
VerifyReport::warningCount() const
{
    return diagnostics.size() - errorCount();
}

std::string
formatDiagnostic(const isa::Program &program, const Diagnostic &diag)
{
    std::ostringstream oss;
    oss << severityName(diag.severity) << " ["
        << diagCodeName(diag.code) << "] pc " << diag.pc << " ("
        << program.describePc(diag.pc) << "): " << diag.message;
    return oss.str();
}

VerifyReport
verifyProgram(const isa::Program &program)
{
    return Verifier(program).run();
}

uint64_t
programFingerprint(const isa::Program &program)
{
    uint64_t h = kFnvOffset;
    for (const isa::Instruction &inst : program.code)
        h = fnvMix(h, isa::encode(inst));
    h = fnvMix(h, program.entry);
    h = fnvMix(h, program.dataBase);
    h = fnvMix(h, program.heapBase);
    return fnvMix(h, program.dataInit.size());
}

const VerifyReport &
verifyCached(const isa::Program &program)
{
    // Engines are constructed per campaign job — thousands per
    // exploration session — so the verifier memoises on the program
    // image.  Bounded FIFO: campaigns cycle through very few
    // distinct programs.
    static std::mutex mtx;
    static std::deque<std::pair<uint64_t,
                                std::unique_ptr<VerifyReport>>> cache;
    // Evicted reports are parked here so returned references stay
    // valid for the process lifetime.
    static std::vector<std::unique_ptr<VerifyReport>> retired;
    constexpr size_t maxEntries = 32;

    const uint64_t fp = programFingerprint(program);
    std::unique_lock<std::mutex> lock(mtx);
    for (const auto &entry : cache) {
        if (entry.first == fp)
            return *entry.second;
    }
    lock.unlock();
    auto report = std::make_unique<VerifyReport>(
        verifyProgram(program));
    lock.lock();
    for (const auto &entry : cache) {
        if (entry.first == fp)
            return *entry.second;    // raced: keep the first insert
    }
    cache.emplace_back(fp, std::move(report));
    if (cache.size() > maxEntries) {
        retired.push_back(std::move(cache.front().second));
        cache.pop_front();
    }
    return *cache.back().second;
}

} // namespace pe::analysis
