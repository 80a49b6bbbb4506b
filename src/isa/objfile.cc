/**
 * @file
 * Object-format implementation.
 */

#include "src/isa/objfile.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

#include "src/isa/regs.hh"
#include "src/support/faultinject.hh"
#include "src/support/status.hh"

namespace pe::isa
{

namespace
{

constexpr char magic[8] = {'P', 'E', 'R', 'I', 'S', 'C', '1', '\0'};

void
putU32(std::ostream &os, uint32_t v)
{
    char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    os.write(b, 4);
}

void
putU64(std::ostream &os, uint64_t v)
{
    putU32(os, static_cast<uint32_t>(v));
    putU32(os, static_cast<uint32_t>(v >> 32));
}

void
putI32(std::ostream &os, int32_t v)
{
    putU32(os, static_cast<uint32_t>(v));
}

void
putString(std::ostream &os, const std::string &s)
{
    putU32(os, static_cast<uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

uint32_t
getU32(std::istream &is)
{
    char b[4];
    is.read(b, 4);
    if (!is)
        pe_fatal("object file truncated");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<uint32_t>(static_cast<unsigned char>(b[i]))
             << (8 * i);
    }
    return v;
}

uint64_t
getU64(std::istream &is)
{
    uint64_t lo = getU32(is);
    uint64_t hi = getU32(is);
    return lo | (hi << 32);
}

int32_t
getI32(std::istream &is)
{
    return static_cast<int32_t>(getU32(is));
}

std::string
getString(std::istream &is, uint32_t maxLen = 1u << 20)
{
    uint32_t len = getU32(is);
    if (len > maxLen)
        pe_fatal("object file string too long");
    std::string s(len, '\0');
    is.read(s.data(), len);
    if (!is)
        pe_fatal("object file truncated");
    return s;
}

constexpr uint32_t sizeSanityCap = 1u << 26;

uint32_t
getCount(std::istream &is, const char *what)
{
    uint32_t n = getU32(is);
    if (n > sizeSanityCap)
        pe_fatal("object file ", what, " count implausible: ", n);
    return n;
}

/**
 * Decode instruction @p index, refusing what the simulator cannot
 * run: an opcode byte past the ISA, a register field naming one of
 * the 6-bit encoding's registers 32-63, or an unknown syscall.
 */
Instruction
decodeChecked(uint64_t word, uint32_t index)
{
    const unsigned opByte = static_cast<unsigned>(word >> 56);
    if (opByte >= static_cast<unsigned>(Opcode::NumOpcodes)) {
        pe_fatal("object file instruction ", index, ": opcode byte ",
                 opByte, " out of range");
    }
    const Instruction inst = decode(word);
    for (auto [field, r] : {std::pair{"rd", inst.rd}, {"rs1", inst.rs1},
                            {"rs2", inst.rs2}}) {
        if (r >= numRegs) {
            pe_fatal("object file instruction ", index, ": ", field,
                     " register ", static_cast<int>(r), " out of range");
        }
    }
    if (inst.op == Opcode::Sys &&
        (inst.imm < 0 ||
         inst.imm >= static_cast<int32_t>(Syscall::NumSyscalls))) {
        pe_fatal("object file instruction ", index, ": sys selector ",
                 inst.imm, " unknown");
    }
    return inst;
}

} // namespace

void
saveObject(const Program &program, std::ostream &os)
{
    os.write(magic, sizeof(magic));
    putString(os, program.name);
    putU32(os, program.dataBase);
    putU32(os, program.heapBase);
    putU32(os, program.entry);
    putU32(os, program.blankAddr);

    putU32(os, static_cast<uint32_t>(program.code.size()));
    for (const auto &inst : program.code)
        putU64(os, encode(inst));

    putU32(os, static_cast<uint32_t>(program.locs.size()));
    for (const auto &loc : program.locs) {
        putI32(os, loc.line);
        putI32(os, loc.col);
    }

    putU32(os, static_cast<uint32_t>(program.dataInit.size()));
    for (int32_t w : program.dataInit)
        putI32(os, w);

    putU32(os, static_cast<uint32_t>(program.funcs.size()));
    for (const auto &f : program.funcs) {
        putString(os, f.name);
        putU32(os, f.startPc);
        putU32(os, f.endPc);
    }

    putU32(os, static_cast<uint32_t>(program.assertLocs.size()));
    for (const auto &[id, loc] : program.assertLocs) {
        putI32(os, id);
        putI32(os, loc.line);
    }
}

Program
loadObject(std::istream &is)
{
    char m[8];
    is.read(m, sizeof(m));
    if (!is || std::memcmp(m, magic, sizeof(magic)) != 0)
        pe_fatal("not a PE-RISC object file");

    Program p;
    p.name = getString(is);
    p.dataBase = getU32(is);
    p.heapBase = getU32(is);
    p.entry = getU32(is);
    p.blankAddr = getU32(is);

    uint32_t n = getCount(is, "code");
    p.code.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        p.code.push_back(decodeChecked(getU64(is), i));

    n = getCount(is, "locs");
    p.locs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        SourceLoc loc;
        loc.line = getI32(is);
        loc.col = getI32(is);
        p.locs.push_back(loc);
    }

    n = getCount(is, "data");
    p.dataInit.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        p.dataInit.push_back(getI32(is));

    n = getCount(is, "func");
    for (uint32_t i = 0; i < n; ++i) {
        FuncInfo f;
        f.name = getString(is);
        f.startPc = getU32(is);
        f.endPc = getU32(is);
        p.funcs.push_back(std::move(f));
    }

    n = getCount(is, "assert");
    for (uint32_t i = 0; i < n; ++i) {
        int32_t id = getI32(is);
        int32_t line = getI32(is);
        p.assertLocs[id] = SourceLoc{line, 0};
    }

    if (p.entry > p.code.size())
        pe_fatal("object file entry out of range");
    if (uint64_t{p.dataBase} + p.dataInit.size() > p.heapBase) {
        pe_fatal("object file dataBase ", p.dataBase, " + ",
                 p.dataInit.size(), " data words overlap heapBase ",
                 p.heapBase);
    }
    return p;
}

void
saveObjectFile(const Program &program, const std::string &path)
{
    fault::site("objfile.write");
    std::ofstream os(path, std::ios::binary);
    if (!os)
        pe_fatal("cannot write '", path, "'");
    saveObject(program, os);
    if (!os)
        pe_fatal("write to '", path, "' failed");
}

Program
loadObjectFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        pe_fatal("cannot open '", path, "'");
    return loadObject(is);
}

} // namespace pe::isa
