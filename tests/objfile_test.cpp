/**
 * @file
 * Object-format tests: round-tripping every workload program through
 * the binary encoding preserves behaviour bit-for-bit, and malformed
 * inputs produce clean diagnostics — including fields that decode but
 * that the simulator cannot run.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "src/core/engine.hh"
#include "src/isa/objfile.hh"
#include "src/minic/compiler.hh"
#include "src/support/status.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;

isa::Program
roundTrip(const isa::Program &program)
{
    std::stringstream buf;
    isa::saveObject(program, buf);
    return isa::loadObject(buf);
}

TEST(ObjFile, PreservesEveryField)
{
    auto program = minic::compile(R"(
int g = 5;
int t[3] = {1, 2};
int helper(int a) { return a * 2; }
int main() {
    assert(helper(g) == 10, 71);
    print_int(t[1]);
    return 0;
}
)",
                                  "roundtrip");
    auto loaded = roundTrip(program);

    EXPECT_EQ(loaded.name, program.name);
    EXPECT_EQ(loaded.dataBase, program.dataBase);
    EXPECT_EQ(loaded.heapBase, program.heapBase);
    EXPECT_EQ(loaded.entry, program.entry);
    EXPECT_EQ(loaded.blankAddr, program.blankAddr);
    ASSERT_EQ(loaded.code.size(), program.code.size());
    for (size_t i = 0; i < program.code.size(); ++i)
        EXPECT_EQ(loaded.code[i], program.code[i]) << "pc " << i;
    EXPECT_EQ(loaded.dataInit, program.dataInit);
    ASSERT_EQ(loaded.funcs.size(), program.funcs.size());
    for (size_t i = 0; i < program.funcs.size(); ++i) {
        EXPECT_EQ(loaded.funcs[i].name, program.funcs[i].name);
        EXPECT_EQ(loaded.funcs[i].startPc, program.funcs[i].startPc);
        EXPECT_EQ(loaded.funcs[i].endPc, program.funcs[i].endPc);
    }
    ASSERT_TRUE(loaded.assertLocs.count(71));
    EXPECT_EQ(loaded.assertLocs.at(71).line,
              program.assertLocs.at(71).line);
    EXPECT_EQ(loaded.locOf(5).line, program.locOf(5).line);
}

class ObjFileWorkloads
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(ObjFileWorkloads, LoadedProgramBehavesIdentically)
{
    const auto &w = workloads::getWorkload(GetParam());
    auto original = minic::compile(w.source, w.name);
    auto loaded = roundTrip(original);

    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = w.maxNtPathLength;
    detect::WatchChecker ca;
    detect::WatchChecker cb;
    core::PathExpanderEngine a(original, cfg, &ca);
    core::PathExpanderEngine b(loaded, cfg, &cb);
    auto ra = a.run(w.benignInputs[0]);
    auto rb = b.run(w.benignInputs[0]);

    EXPECT_EQ(ra.io.charOutput, rb.io.charOutput);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.ntPathsSpawned, rb.ntPathsSpawned);
    EXPECT_EQ(ra.memoryDigest, rb.memoryDigest);
    EXPECT_EQ(ra.monitor.numDistinctSites(),
              rb.monitor.numDistinctSites());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ObjFileWorkloads,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(ObjFile, RejectsGarbage)
{
    std::stringstream notMagic("hello world, not an object");
    EXPECT_THROW(isa::loadObject(notMagic), FatalError);
}

TEST(ObjFile, RejectsTruncation)
{
    auto program = minic::compile(
        "int main() { print_int(1); return 0; }", "tiny");
    std::stringstream buf;
    isa::saveObject(program, buf);
    std::string bytes = buf.str();
    for (size_t cut : {bytes.size() / 4, bytes.size() / 2,
                       bytes.size() - 3}) {
        std::stringstream truncated(bytes.substr(0, cut));
        EXPECT_THROW(isa::loadObject(truncated), FatalError)
            << "cut at " << cut;
    }
}

/** The saved bytes of a tiny program, with @p patch applied. */
std::string
patchedObject(const std::function<void(std::string &)> &patch)
{
    isa::Program program;
    program.name = "p";
    program.code = {isa::makeLi(8, 1), isa::makeR(isa::Opcode::Add, 9, 8, 8),
                    isa::makeSys(isa::Syscall::Exit)};
    program.dataInit = {5, 6};
    program.heapBase = program.dataBase + 2;
    std::stringstream buf;
    isa::saveObject(program, buf);
    std::string bytes = buf.str();
    patch(bytes);
    return bytes;
}

// magic (8) + name (4 + 1) + dataBase, heapBase, entry, blankAddr +
// code count (4): the first code word starts here.
constexpr size_t kDataBaseAt = 8 + 4 + 1;
constexpr size_t kCodeAt = kDataBaseAt + 4 * 4 + 4;

void
putLe(std::string &bytes, size_t at, uint64_t v, int width)
{
    for (int i = 0; i < width; ++i)
        bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/** Loading @p bytes throws a FatalError whose message names @p what. */
void
expectRefused(const std::string &bytes, const std::string &what)
{
    std::stringstream in(bytes);
    try {
        isa::loadObject(in);
        ADD_FAILURE() << "loaded a malformed object; expected: " << what;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(ObjFile, RejectsOpcodeOutOfRange)
{
    // Instruction 1's opcode byte (the top byte of its code word).
    expectRefused(patchedObject([](std::string &b) {
                      putLe(b, kCodeAt + 8 + 7, 200, 1);
                  }),
                  "instruction 1: opcode byte 200");
}

TEST(ObjFile, RejectsRegisterOutOfRange)
{
    // Instruction 1 (add r9, r8, r8) with rd = 40: bits [55:50].
    isa::Instruction add = isa::makeR(isa::Opcode::Add, 9, 8, 8);
    uint64_t word = isa::encode(add);
    word = (word & ~(uint64_t{0x3f} << 50)) | (uint64_t{40} << 50);
    expectRefused(patchedObject([&](std::string &b) {
                      putLe(b, kCodeAt + 8, word, 8);
                  }),
                  "instruction 1: rd register 40");
}

TEST(ObjFile, RejectsUnknownSyscall)
{
    // Instruction 2 (sys exit) with selector 9: the immediate.
    expectRefused(patchedObject([](std::string &b) {
                      putLe(b, kCodeAt + 16, 9, 4);
                  }),
                  "instruction 2: sys selector 9");
}

TEST(ObjFile, RejectsDataSegmentPastTheHeap)
{
    expectRefused(patchedObject([](std::string &b) {
                      putLe(b, kDataBaseAt, 0xfffff000u, 4);
                  }),
                  "dataBase 4294963200");
}

TEST(ObjFile, FileRoundTrip)
{
    auto program = minic::compile(
        "int main() { print_int(7); return 0; }", "file");
    std::string path = ::testing::TempDir() + "/pe_objfile_test.po";
    isa::saveObjectFile(program, path);
    auto loaded = isa::loadObjectFile(path);
    EXPECT_EQ(loaded.code.size(), program.code.size());
    EXPECT_THROW(isa::loadObjectFile("/nonexistent/x.po"),
                 FatalError);
}

} // namespace
