/**
 * @file
 * State-file tests: the one checkpoint container behind explorer and
 * fleet resume must refuse every foreign, stale or damaged file with a
 * FatalError that names what is wrong — never abort, never resume a
 * different session.
 *
 * The damaged files are made two ways: fleet checkpoints through
 * loadFleetCheckpoint -> edit -> saveFleetCheckpoint (well-formed
 * bytes, one wrong size), explorer checkpoints by editing bytes at the
 * offsets a layout walker finds.  The byte-flip sweeps XOR every
 * header byte, every length-prefix byte and a seeded sample of the
 * rest with 0x5a, and drive the same load-and-restore code `--resume`
 * and `--fleet-resume` run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/explore/explorer.hh"
#include "src/fleet/checkpoint.hh"
#include "src/fleet/coordinator.hh"
#include "src/minic/compiler.hh"
#include "src/support/rng.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace
{

using namespace pe;

/**
 * A small branchy program: its prime-path build is cheap enough for a
 * few hundred resumes, and its runs still admit a corpus.
 */
const char *kClassifySource = R"(
int main() {
    int n = read_int();
    int sum = 0;
    int i = 0;
    while (i < n && i < 16) {
        int v = read_int();
        if (v < 0) {
            sum = sum - v;
        } else if (v > 100) {
            sum = sum + 2 * v;
        } else if (v % 7 == 3) {
            sum = sum + 7;
        } else {
            sum = sum + 1;
        }
        i = i + 1;
    }
    if (sum > 500) {
        print_int(1);
    } else {
        print_int(0);
    }
    return 0;
}
)";

const isa::Program &
program()
{
    static const isa::Program compiled =
        minic::compile(kClassifySource, "classify");
    return compiled;
}

std::vector<std::vector<int32_t>>
seeds()
{
    return {{3, 5, -2, 150}, {4, 10, 200, 3, 17}, {2, 0, 0}};
}

/** Path objective on, so the path tracker's state is in the file. */
explore::ExploreOptions
explorerOptions(uint64_t maxRuns)
{
    explore::ExploreOptions opts;
    opts.config = core::PeConfig::forMode(core::PeMode::Off);
    opts.config.recordEdgeTrace = true;
    opts.pathObjective = true;
    opts.budget.maxRuns = maxRuns;
    opts.batchSize = 4;
    opts.seed = 0x5157;
    opts.threads = 1;
    return opts;
}

fleet::FleetOptions
fleetOptions(uint64_t maxRuns)
{
    fleet::FleetOptions opts;
    opts.base = explorerOptions(maxRuns);
    opts.base.batchSize = 8;
    opts.shards = 3;
    opts.workerThreads = 1;
    return opts;
}

/** A per-process temp path: ctest runs these tests concurrently. */
std::string
path(const char *name)
{
    return testing::TempDir() + "state_file_" +
           std::to_string(::getpid()) + "_" + name + ".ckpt";
}

/** Removes its file when the test binary exits. */
struct TempFile
{
    std::string path;
    ~TempFile() { std::remove(path.c_str()); }
};

std::string
readBytes(const std::string &file)
{
    std::ifstream is(file, std::ios::binary);
    std::ostringstream raw;
    raw << is.rdbuf();
    return raw.str();
}

void
writeBytes(const std::string &file, const std::string &bytes)
{
    std::ofstream os(file, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A 24-run explorer checkpoint (written once per test binary). */
const std::string &
explorerCheckpoint()
{
    static const TempFile file{path("explorer")};
    static const bool written = [] {
        auto opts = explorerOptions(24);
        opts.checkpointPath = file.path;
        explore::Explorer(program(), seeds(), opts).run();
        return true;
    }();
    (void)written;
    return file.path;
}

/** A 3-shard, 120-run fork fleet's final checkpoint. */
const std::string &
fleetCheckpoint()
{
    static const TempFile file{path("fleet")};
    static const bool written = [] {
        auto opts = fleetOptions(120);
        opts.checkpointPath = file.path;
        fleet::runFleet(program(), seeds(), opts);
        return true;
    }();
    (void)written;
    return file.path;
}

/**
 * Resume an explorer from @p file with the options that wrote it.  The
 * budget equals the checkpoint's run count, so a resume that succeeds
 * stops before running anything.  Returns the FatalError text, or ""
 * for a clean resume.
 */
std::string
resumeExplorer(const std::string &file,
               explore::ExploreOptions opts = explorerOptions(24),
               std::vector<std::vector<int32_t>> seeds = seeds())
{
    opts.resumeFrom = file;
    explore::Explorer explorer(program(), std::move(seeds), opts);
    try {
        explorer.run();
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

/**
 * Resume a fork fleet from @p file.  Everything `--fleet-resume` does
 * before reattaching runs — load, identity check, restore — and then
 * the fork transport refuses to reattach, so an intact file ends in
 * that refusal.  Returns the FatalError text, or "" when the restored
 * state already met a stop condition.
 */
std::string
resumeFleet(const std::string &file)
{
    auto opts = fleetOptions(240);
    opts.resumeFrom = file;
    try {
        fleet::runFleet(program(), seeds(), opts);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

/**
 * Offsets of a state file's length prefixes, found by walking the
 * layout serialize.hh and fleet/checkpoint.hh define.  Throws
 * WireError if the bytes do not follow it.
 */
class LayoutWalker
{
  public:
    explicit LayoutWalker(const std::string &bytes)
        : size(bytes.size()), dec(bytes)
    {}

    /** End of the state-file header plus the identity record. */
    static constexpr size_t kHeaderEnd = 16 + 5 * 8 + 4 + 8;

    std::vector<size_t> prefixes;
    size_t frontierTaken = 0;

    void explorer()
    {
        skip(kHeaderEnd + 5 * 8 + 4 + 3 * 8);
        corpus();
        vec(13 * 8);    // batch history
        dec.expectEnd("walked explorer checkpoint");
    }

    void fleet()
    {
        skip(kHeaderEnd + 6 * 8 + 3 * 4);
        corpus();
        vec(4);         // entry origins
        uint32_t shards = count();
        for (uint32_t s = 0; s < shards; ++s) {
            skip(4 + 4 * 8 + 4 + 2);
            vec(8);
            vec(8);
            skip(8 + 1 + 8);
            vec(1);     // replay payload
        }
        dec.expectEnd("walked fleet checkpoint");
    }

  private:
    size_t at() const { return size - dec.remaining(); }

    void skip(size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            dec.u8("walk");
    }

    uint32_t count()
    {
        prefixes.push_back(at());
        return dec.u32("walk count");
    }

    size_t vec(size_t elemBytes)
    {
        size_t off = at();
        skip(count() * elemBytes);
        return off;
    }

    void corpus()
    {
        frontierTaken = vec(8);
        vec(8);
        vec(4);         // exercise counts
        skip(8);
        uint32_t entries = count();
        for (uint32_t e = 0; e < entries; ++e) {
            vec(4);     // input
            vec(8);
            vec(8);
            skip(6 * 8 + 1);
        }
        size_t blob = at();
        uint32_t len = count();
        if (len > 0) {
            // The path tracker's own word-count prefix.
            prefixes.push_back(blob + 4 + 4 * 8);
        }
        skip(len);
    }

    size_t size;
    wire::Decoder dec;
};

bool
mentions(const std::string &what, const std::string &needle)
{
    return what.find(needle) != std::string::npos;
}

// --- Wrong sizes: refused with the field, never an abort ------------

TEST(StateFile, ExplorerFrontierWordsShortIsRefused)
{
    std::string bytes = readBytes(explorerCheckpoint());
    LayoutWalker walk(bytes);
    walk.explorer();

    // Drop the last taken-frontier word and shrink its length prefix.
    uint32_t words;
    std::memcpy(&words, bytes.data() + walk.frontierTaken, 4);
    ASSERT_GT(words, 0u);
    uint32_t shorter = words - 1;
    std::memcpy(bytes.data() + walk.frontierTaken, &shorter, 4);
    bytes.erase(walk.frontierTaken + 4 + shorter * 8, 8);
    std::string file = path("explorer_short_frontier");
    writeBytes(file, bytes);

    std::string what = resumeExplorer(file);
    EXPECT_TRUE(mentions(what, "frontier taken words size mismatch"))
        << what;
    EXPECT_TRUE(mentions(what, "expected " + std::to_string(words) +
                                   ", found " + std::to_string(shorter)))
        << what;
    std::remove(file.c_str());
}

class FleetSizeTest : public ::testing::Test
{
  protected:
    /** Load the fleet checkpoint, let @p edit damage it, resume. */
    template <typename Edit>
    std::string resumeEdited(const char *name, Edit edit)
    {
        fleet::FleetCheckpoint ckpt =
            fleet::loadFleetCheckpoint(fleetCheckpoint(),
                                       program());
        edit(ckpt);
        std::string file = path(name);
        fleet::saveFleetCheckpoint(file, ckpt);
        std::string what = resumeFleet(file);
        std::remove(file.c_str());
        return what;
    }
};

TEST_F(FleetSizeTest, PathWordsLongIsRefused)
{
    std::string what = resumeEdited("path_long", [](auto &ckpt) {
        // PathCoverage state: four u64 counters, then the word vector.
        std::string &blob = ckpt.corpus.pathState;
        ASSERT_GT(blob.size(), 36u);
        uint32_t words;
        std::memcpy(&words, blob.data() + 32, 4);
        ++words;
        std::memcpy(blob.data() + 32, &words, 4);
        blob.append(8, '\0');
    });
    EXPECT_TRUE(mentions(what, "path completion words")) << what;
    EXPECT_TRUE(mentions(what, "expected")) << what;
}

TEST_F(FleetSizeTest, ShardStateMissingIsRefused)
{
    std::string what = resumeEdited("shard_missing", [](auto &ckpt) {
        ckpt.shardStates.pop_back();
    });
    EXPECT_TRUE(mentions(what, "shard states size mismatch: expected 3, "
                               "found 2"))
        << what;
}

TEST_F(FleetSizeTest, FrontierWordsShortIsRefused)
{
    std::string what = resumeEdited("frontier_short", [](auto &ckpt) {
        ckpt.corpus.frontierTaken.pop_back();
    });
    EXPECT_TRUE(mentions(what, "frontier taken words size mismatch"))
        << what;
}

TEST_F(FleetSizeTest, ExerciseCountsShortIsRefused)
{
    std::string what = resumeEdited("exercise_short", [](auto &ckpt) {
        ckpt.corpus.exerciseCounts.pop_back();
    });
    EXPECT_TRUE(mentions(what, "exercise counts size mismatch")) << what;
}

TEST_F(FleetSizeTest, ShardCursorShortIsRefused)
{
    std::string what = resumeEdited("cursor_short", [](auto &ckpt) {
        ckpt.shardStates[1].sentTaken.pop_back();
    });
    EXPECT_TRUE(mentions(what, "shard sent taken words size mismatch"))
        << what;
}

TEST_F(FleetSizeTest, IntactCheckpointReachesTheForkRefusal)
{
    // The control: an undamaged file loads and restores, and only the
    // fork transport's missing reconnect support stops the resume.
    std::string what = resumeEdited("intact", [](auto &) {});
    EXPECT_TRUE(mentions(what, "reconnect support")) << what;
}

// --- Byte flips: resume or a FatalError, nothing else ----------------

/**
 * Flip every header byte, every length-prefix byte and @p samples
 * seeded other bytes of @p bytes; @p resume must return normally or
 * with a FatalError text for each.  Returns how many were refused.
 */
template <typename Resume>
size_t
sweep(const std::string &bytes, const std::vector<size_t> &prefixes,
      size_t samples, const std::string &file, Resume resume)
{
    std::set<size_t> offsets;
    for (size_t i = 0; i < LayoutWalker::kHeaderEnd; ++i)
        offsets.insert(i);
    for (size_t p : prefixes)
        for (size_t i = 0; i < 4; ++i)
            offsets.insert(p + i);
    Rng rng(0xf11b);
    while (offsets.size() <
           LayoutWalker::kHeaderEnd + 4 * prefixes.size() + samples)
        offsets.insert(rng.nextBelow(bytes.size()));

    size_t refused = 0;
    for (size_t at : offsets) {
        std::string flipped = bytes;
        flipped[at] = static_cast<char>(flipped[at] ^ 0x5a);
        writeBytes(file, flipped);
        try {
            refused += resume(file).empty() ? 0 : 1;
        } catch (const std::exception &err) {
            ADD_FAILURE() << "byte " << at << ": " << err.what();
        }
    }
    std::remove(file.c_str());
    return refused;
}

TEST(StateFile, ExplorerByteFlipsResumeOrRefuse)
{
    const std::string bytes = readBytes(explorerCheckpoint());
    LayoutWalker walk(bytes);
    walk.explorer();
    ASSERT_GT(walk.prefixes.size(), 10u);

    size_t refused = sweep(bytes, walk.prefixes, 250,
                           path("explorer_flip"), [](const auto &f) {
                               return resumeExplorer(f);
                           });
    // Every header byte is identity or format: each flip is refused.
    EXPECT_GE(refused, LayoutWalker::kHeaderEnd);
}

TEST(StateFile, FleetByteFlipsResumeOrRefuse)
{
    const std::string bytes = readBytes(fleetCheckpoint());
    LayoutWalker walk(bytes);
    walk.fleet();
    ASSERT_GT(walk.prefixes.size(), 10u);

    sweep(bytes, walk.prefixes, 250, path("fleet_flip"),
          [](const auto &f) { return resumeFleet(f); });
}

// --- Session identity ------------------------------------------------

TEST(StateFile, ExplorerResumeRefusesOtherSeeds)
{
    std::string what = resumeExplorer(explorerCheckpoint(),
                                      explorerOptions(48), {{1, 2, 3}});
    // This session's digest is expected; the checkpoint's is found.
    EXPECT_TRUE(mentions(
        what, "seeds digest mismatch: expected " +
                  fmtHex(explore::seedsDigest({{1, 2, 3}})) +
                  ", found " + fmtHex(explore::seedsDigest(seeds()))))
        << what;
}

TEST(StateFile, ExplorerResumeRefusesOtherBatchSize)
{
    auto opts = explorerOptions(48);
    opts.batchSize = 7;
    std::string what = resumeExplorer(explorerCheckpoint(), opts);
    EXPECT_TRUE(mentions(what, "session word mismatch")) << what;
}

TEST(StateFile, MatchingSessionResumesCleanly)
{
    EXPECT_EQ(resumeExplorer(explorerCheckpoint()), "");
}

// --- Earlier formats ---------------------------------------------------

TEST(StateFile, EarlierCheckpointFormatsAreRefusedByMagic)
{
    // The explorer's v3 file and the fleet's v2 file started with
    // their own magics and versions; the container refuses both,
    // naming the magic it expected and the one it found.
    auto earlier = [](const char (&magic)[8], uint32_t version) {
        wire::Encoder enc;
        enc.bytes(magic, 8);
        enc.u32(version);
        enc.u64(0x1111);
        return enc.take();
    };
    std::string file = path("earlier");

    writeBytes(file, earlier({'P', 'E', 'X', 'C', 'K', 'P', '2', '\0'}, 3));
    std::string what = resumeExplorer(file);
    EXPECT_TRUE(mentions(what, "bad-magic")) << what;
    EXPECT_TRUE(mentions(what, "expected magic \"PESTATE.\", found "
                               "\"PEXCKP2.\""))
        << what;

    writeBytes(file, earlier({'P', 'E', 'F', 'C', 'K', 'P', '1', '\0'}, 2));
    try {
        fleet::loadFleetCheckpoint(file, program());
        ADD_FAILURE() << "a fleet v2 checkpoint was accepted";
    } catch (const FatalError &err) {
        EXPECT_TRUE(mentions(err.what(), "found \"PEFCKP1.\"")) << err.what();
    }

    // A current-magic file of another version is refused by version.
    std::string bytes = readBytes(explorerCheckpoint());
    bytes[8] = 3;
    writeBytes(file, bytes);
    what = resumeExplorer(file);
    EXPECT_TRUE(mentions(what, "version mismatch: expected 4, found 3"))
        << what;

    // And an explorer checkpoint is no fleet checkpoint.
    EXPECT_TRUE(mentions(resumeFleet(explorerCheckpoint()),
                         "kind mismatch: expected fleet checkpoint, "
                         "found explorer checkpoint"));
    std::remove(file.c_str());
}

} // namespace
