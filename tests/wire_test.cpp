/**
 * @file
 * Wire-module tests: the versioned serialization substrate shared by
 * the explorer's checkpoints and the fleet's IPC frames.
 *
 * The headline property: encode → decode → encode is byte-identical
 * for random corpus entries, frontier states and RNG states, so a
 * checkpoint and an IPC frame describing the same state hold the same
 * bytes.  The failure surface is exercised just as explicitly —
 * every truncated prefix of a payload is rejected as a structured
 * WireError (never a crash, never a silent partial decode), frames
 * with foreign magic or bumped versions are refused with the expected
 * and found values attached, and checkpoint-header corruption names
 * the exact disagreeing field.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "src/explore/explorer.hh"
#include "src/explore/serialize.hh"
#include "src/fleet/protocol.hh"
#include "src/fleet/wire.hh"
#include "src/minic/compiler.hh"
#include "src/support/rng.hh"
#include "src/support/status.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;

const isa::Program &
testProgram()
{
    static const isa::Program program = [] {
        const auto &workload = workloads::getWorkload("schedule");
        return minic::compile(workload.source, "schedule");
    }();
    return program;
}

/** A random but internally consistent corpus entry. */
explore::CorpusEntry
randomEntry(Rng &rng)
{
    const isa::Program &program = testProgram();
    std::vector<int32_t> input(1 + rng.nextBelow(16));
    for (int32_t &v : input)
        v = static_cast<int32_t>(rng.next64());

    coverage::BranchCoverage cov(program);
    size_t pcs = program.code.size();
    for (size_t i = 0, n = rng.nextBelow(64); i < n; ++i) {
        uint32_t pc = static_cast<uint32_t>(rng.nextBelow(pcs));
        if (rng.nextBool())
            cov.onTakenEdge(pc, rng.nextBool());
        else
            cov.onNtEdge(pc, rng.nextBool());
    }

    explore::CorpusEntry entry(std::move(input), std::move(cov));
    entry.newEdges = rng.nextBelow(100);
    entry.rareEdges = rng.nextBelow(100);
    entry.ntEarlyStops = rng.next64();
    entry.ntSpawned = rng.next64();
    entry.batchAdmitted = rng.nextBelow(1000);
    entry.timesScheduled = rng.nextBelow(1000);
    entry.foreign = rng.nextBool();
    return entry;
}

std::string
encodeOne(const explore::CorpusEntry &entry)
{
    wire::Encoder enc;
    explore::encodeEntry(enc, entry);
    return enc.buffer();
}

TEST(Wire, PrimitivesRoundTrip)
{
    wire::Encoder enc;
    enc.u8(0xab);
    enc.u32(0xdeadbeef);
    enc.u64(0x0123456789abcdefull);
    enc.i32(-42);
    enc.str("hello wire");
    enc.u64vec({1, 2, 3});
    enc.u32vec({});
    enc.i32vec({-1, 0, 1});

    wire::Decoder dec(enc.buffer());
    EXPECT_EQ(dec.u8("a"), 0xab);
    EXPECT_EQ(dec.u32("b"), 0xdeadbeefu);
    EXPECT_EQ(dec.u64("c"), 0x0123456789abcdefull);
    EXPECT_EQ(dec.i32("d"), -42);
    EXPECT_EQ(dec.str("e"), "hello wire");
    EXPECT_EQ(dec.u64vec("f"), (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_TRUE(dec.u32vec("g").empty());
    EXPECT_EQ(dec.i32vec("h"), (std::vector<int32_t>{-1, 0, 1}));
    EXPECT_TRUE(dec.atEnd());
    EXPECT_NO_THROW(dec.expectEnd("primitives"));
}

TEST(Wire, DecoderRejectsImplausibleCounts)
{
    wire::Encoder enc;
    enc.u32(wire::Decoder::kSanityCap + 1);
    wire::Decoder dec(enc.buffer());
    try {
        dec.count("bogus count");
        FAIL() << "implausible count was accepted";
    } catch (const wire::WireError &err) {
        EXPECT_EQ(err.kind(), wire::WireErrorKind::Implausible);
        EXPECT_EQ(err.found(), wire::Decoder::kSanityCap + 1);
    }
}

TEST(Wire, ExpectEndRejectsTrailingBytes)
{
    wire::Encoder enc;
    enc.u32(7);
    enc.u8(1);
    wire::Decoder dec(enc.buffer());
    dec.u32("value");
    try {
        dec.expectEnd("trailing");
        FAIL() << "trailing byte was accepted";
    } catch (const wire::WireError &err) {
        EXPECT_EQ(err.kind(), wire::WireErrorKind::BadFrame);
    }
}

/** encode → decode → encode is byte-identical for random entries. */
TEST(Wire, EntryRoundTripIsByteIdentical)
{
    Rng rng(0xc0ffee);
    for (int i = 0; i < 200; ++i) {
        explore::CorpusEntry entry = randomEntry(rng);
        std::string first = encodeOne(entry);

        wire::Decoder dec(first);
        explore::CorpusEntry decoded =
            explore::decodeEntry(dec, testProgram());
        EXPECT_TRUE(dec.atEnd());

        EXPECT_EQ(decoded.input, entry.input);
        EXPECT_EQ(decoded.coverage.takenWords(),
                  entry.coverage.takenWords());
        EXPECT_EQ(decoded.coverage.ntWords(),
                  entry.coverage.ntWords());
        EXPECT_EQ(decoded.foreign, entry.foreign);
        EXPECT_EQ(encodeOne(decoded), first) << "iteration " << i;
    }
}

/** Frontier words and RNG states survive a round trip bit-exactly. */
TEST(Wire, FrontierAndRngStateRoundTrip)
{
    Rng rng(0x5eed);
    coverage::BranchCoverage cov(testProgram());
    for (int i = 0; i < 300; ++i) {
        uint32_t pc = static_cast<uint32_t>(
            rng.nextBelow(testProgram().code.size()));
        cov.onTakenEdge(pc, rng.nextBool());
        cov.onNtEdge(pc, rng.nextBool());
    }
    uint64_t rngState = rng.rawState();

    wire::Encoder enc;
    enc.u64vec(cov.takenWords());
    enc.u64vec(cov.ntWords());
    enc.u64(rngState);
    std::string first = enc.buffer();

    wire::Decoder dec(first);
    auto taken = dec.u64vec("taken");
    auto nt = dec.u64vec("nt");
    uint64_t state = dec.u64("rng");

    wire::Encoder enc2;
    enc2.u64vec(taken);
    enc2.u64vec(nt);
    enc2.u64(state);
    EXPECT_EQ(enc2.buffer(), first);

    // The digest — the fleet's reproducibility witness — must agree
    // between the original tracker and a restored copy.
    coverage::BranchCoverage restored(testProgram());
    restored.restoreWords(taken, nt);
    EXPECT_EQ(explore::coverageDigest(restored),
              explore::coverageDigest(cov));
}

/** Every truncated prefix is a structured Truncated error. */
TEST(Wire, TruncatedEntryPrefixesAreRejected)
{
    Rng rng(0x77);
    explore::CorpusEntry entry = randomEntry(rng);
    std::string full = encodeOne(entry);
    ASSERT_GT(full.size(), 8u);

    for (size_t cut = 0; cut < full.size(); ++cut) {
        wire::Decoder dec(std::string_view(full.data(), cut));
        try {
            explore::decodeEntry(dec, testProgram());
            FAIL() << "prefix of " << cut << "/" << full.size()
                   << " bytes decoded";
        } catch (const wire::WireError &err) {
            EXPECT_EQ(err.kind(), wire::WireErrorKind::Truncated)
                << "prefix " << cut;
        }
    }
}

/** Entries from a different edge universe are refused, not aborted. */
TEST(Wire, ForeignProgramEntryIsMismatch)
{
    Rng rng(0xfeed);
    explore::CorpusEntry entry = randomEntry(rng);
    std::string bytes = encodeOne(entry);

    // Any workload with a different-size edge universe will do.
    isa::Program foreign;
    bool found = false;
    for (const std::string &name : workloads::workloadNames()) {
        auto candidate = minic::compile(
            workloads::getWorkload(name).source, name);
        if (coverage::BranchCoverage(candidate).takenWords().size() !=
            entry.coverage.takenWords().size()) {
            foreign = std::move(candidate);
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found)
        << "every workload shares schedule's bitmap size?";
    wire::Decoder dec(bytes);
    try {
        explore::decodeEntry(dec, foreign);
        FAIL() << "entry for another program decoded";
    } catch (const wire::WireError &err) {
        EXPECT_EQ(err.kind(), wire::WireErrorKind::Mismatch);
        EXPECT_NE(err.expected(), err.found());
    }
}

// --- Framing over real fds ------------------------------------------

TEST(Wire, FrameRoundTripOverPipe)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);

    wire::writeFrame(fds[1], wire::FrameType::RoundStart, "payload");
    wire::writeFrame(fds[1], wire::FrameType::Stop, "");
    close(fds[1]);

    auto first = wire::readFrame(fds[0]);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->type, wire::FrameType::RoundStart);
    EXPECT_EQ(first->payload, "payload");

    auto second = wire::readFrame(fds[0]);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->type, wire::FrameType::Stop);
    EXPECT_TRUE(second->payload.empty());

    // Clean EOF at a frame boundary is a normal shutdown.
    EXPECT_FALSE(wire::readFrame(fds[0]).has_value());
    close(fds[0]);
}

TEST(Wire, MidFrameEofIsTruncated)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);

    // A full header promising 100 payload bytes, then silence.
    wire::Encoder header;
    header.u32(0x31464550);     // kFrameMagic "PEF1"
    header.u32(100);
    header.u32(static_cast<uint32_t>(wire::FrameType::RoundDelta));
    ASSERT_EQ(write(fds[1], header.buffer().data(), header.size()),
              static_cast<ssize_t>(header.size()));
    close(fds[1]);

    try {
        wire::readFrame(fds[0]);
        FAIL() << "truncated frame was accepted";
    } catch (const wire::WireError &err) {
        EXPECT_EQ(err.kind(), wire::WireErrorKind::Truncated);
    }
    close(fds[0]);
}

TEST(Wire, BadMagicIsRejected)
{
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);

    wire::Encoder header;
    header.u32(0x46454542);     // not our magic
    header.u32(0);
    header.u32(1);
    ASSERT_EQ(write(fds[1], header.buffer().data(), header.size()),
              static_cast<ssize_t>(header.size()));
    close(fds[1]);

    try {
        wire::readFrame(fds[0]);
        FAIL() << "foreign magic was accepted";
    } catch (const wire::WireError &err) {
        EXPECT_EQ(err.kind(), wire::WireErrorKind::BadMagic);
        EXPECT_EQ(err.found(), 0x46454542u);
    }
    close(fds[0]);
}

// --- Frame reader state machine -------------------------------------

constexpr uint32_t kTestFrameMagic = 0x31464550; // "PEF1"

/** Raw bytes of one well-formed frame. */
std::string
frameBytes(wire::FrameType type, std::string_view payload)
{
    wire::Encoder enc;
    enc.u32(kTestFrameMagic);
    enc.u32(static_cast<uint32_t>(payload.size()));
    enc.u32(static_cast<uint32_t>(type));
    std::string out = enc.take();
    out.append(payload.data(), payload.size());
    return out;
}

/**
 * The incremental reader must be delivery-agnostic: a stream of
 * random frames fed one byte at a time yields exactly the frames a
 * single bulk feed yields, in order, with byte-identical payloads and
 * no residue at the end.
 */
TEST(Wire, FrameReaderByteAtATimeMatchesBulkFeed)
{
    Rng rng(0xf00df4a6);
    const wire::FrameType kinds[] = {
        wire::FrameType::Hello,      wire::FrameType::HelloReply,
        wire::FrameType::RoundStart, wire::FrameType::RoundDelta,
        wire::FrameType::Stop,       wire::FrameType::Goodbye,
        wire::FrameType::Error,      wire::FrameType::Join,
    };
    std::string stream;
    std::vector<std::pair<wire::FrameType, std::string>> sent;
    for (int i = 0; i < 25; ++i) {
        std::string payload(rng.nextBelow(200), '\0');
        for (char &c : payload)
            c = static_cast<char>(rng.next64());
        wire::FrameType type = kinds[rng.nextBelow(8)];
        sent.emplace_back(type, payload);
        stream += frameBytes(type, payload);
    }

    wire::FrameReader bulk;
    wire::FrameReader trickle;
    bulk.feed(stream.data(), stream.size());
    for (char c : stream)
        trickle.feed(&c, 1);

    EXPECT_EQ(bulk.pendingFrames(), sent.size());
    EXPECT_EQ(trickle.pendingFrames(), sent.size());
    for (const auto &[type, payload] : sent) {
        auto a = bulk.next();
        auto b = trickle.next();
        ASSERT_TRUE(a.has_value());
        ASSERT_TRUE(b.has_value());
        EXPECT_EQ(a->type, type);
        EXPECT_EQ(a->payload, payload);
        EXPECT_EQ(b->type, type);
        EXPECT_EQ(b->payload, payload);
    }
    EXPECT_FALSE(bulk.next().has_value());
    EXPECT_FALSE(trickle.next().has_value());
    EXPECT_FALSE(bulk.midFrame());
    EXPECT_FALSE(trickle.midFrame());
}

/** Reassembly is split-point-independent, including inside headers. */
TEST(Wire, FrameReaderReassemblesAcrossEverySplitPoint)
{
    std::string stream =
        frameBytes(wire::FrameType::RoundStart, "alpha") +
        frameBytes(wire::FrameType::Stop, "") +
        frameBytes(wire::FrameType::Goodbye, "omega payload");

    for (size_t cut = 0; cut <= stream.size(); ++cut) {
        wire::FrameReader reader;
        reader.feed(stream.data(), cut);
        reader.feed(stream.data() + cut, stream.size() - cut);

        auto first = reader.next();
        ASSERT_TRUE(first.has_value()) << "cut " << cut;
        EXPECT_EQ(first->type, wire::FrameType::RoundStart);
        EXPECT_EQ(first->payload, "alpha");
        auto second = reader.next();
        ASSERT_TRUE(second.has_value()) << "cut " << cut;
        EXPECT_EQ(second->type, wire::FrameType::Stop);
        EXPECT_TRUE(second->payload.empty());
        auto third = reader.next();
        ASSERT_TRUE(third.has_value()) << "cut " << cut;
        EXPECT_EQ(third->payload, "omega payload");
        EXPECT_FALSE(reader.next().has_value()) << "cut " << cut;
        EXPECT_FALSE(reader.midFrame()) << "cut " << cut;
    }
}

/**
 * Fuzz the header state machine: random 12-byte headers fed one byte
 * at a time.  A malformed header must throw a structured WireError
 * (BadMagic for foreign bytes, BadFrame for an implausible length)
 * exactly when its 12th byte lands — never earlier, never after
 * buffering payload it should not believe — and a well-formed header
 * must never throw.
 */
TEST(Wire, FrameReaderRejectsRandomHeadersTheMomentTheyComplete)
{
    Rng rng(0x8eade4);
    int sawBadMagic = 0;
    int sawBadLength = 0;
    int sawWellFormed = 0;

    for (int iter = 0; iter < 3000; ++iter) {
        uint32_t magic;
        uint32_t len;
        switch (iter % 3) {
          case 0:   // fully random header; magic is ~never ours
            magic = static_cast<uint32_t>(rng.next64());
            len = static_cast<uint32_t>(rng.next64());
            break;
          case 1:   // our magic, random (usually implausible) length
            magic = kTestFrameMagic;
            len = static_cast<uint32_t>(rng.next64());
            break;
          default:  // fully well-formed header
            magic = kTestFrameMagic;
            len = static_cast<uint32_t>(rng.nextBelow(4096));
            break;
        }
        wire::Encoder enc;
        enc.u32(magic);
        enc.u32(len);
        enc.u32(static_cast<uint32_t>(rng.next64())); // type: any u32
        const std::string &head = enc.buffer();
        ASSERT_EQ(head.size(), 12u);

        const bool badMagic = magic != kTestFrameMagic;
        const bool badLen = !badMagic && len > wire::kMaxFramePayload;

        wire::FrameReader reader;
        size_t fed = 0;
        bool threw = false;
        try {
            for (char c : head) {
                ++fed;
                reader.feed(&c, 1);
            }
        } catch (const wire::WireError &err) {
            threw = true;
            EXPECT_EQ(fed, 12u) << "threw before the header completed";
            if (badMagic) {
                EXPECT_EQ(err.kind(), wire::WireErrorKind::BadMagic);
                EXPECT_EQ(err.found(), magic);
                ++sawBadMagic;
            } else {
                EXPECT_EQ(err.kind(), wire::WireErrorKind::BadFrame);
                EXPECT_EQ(err.found(), len);
                ++sawBadLength;
            }
        }
        EXPECT_EQ(threw, badMagic || badLen) << "iteration " << iter;
        if (threw)
            continue;

        ++sawWellFormed;
        // Nothing completed yet unless the frame was empty; a partial
        // payload never yields a frame and never over-reads.
        if (len == 0) {
            EXPECT_EQ(reader.pendingFrames(), 1u);
            EXPECT_FALSE(reader.midFrame());
        } else {
            EXPECT_EQ(reader.pendingFrames(), 0u);
            EXPECT_TRUE(reader.midFrame());
            std::string part(std::min<size_t>(len - 1, 64), 'x');
            reader.feed(part.data(), part.size());
            EXPECT_EQ(reader.pendingFrames(), 0u);
            EXPECT_TRUE(reader.midFrame());
        }
    }
    // The fuzz loop actually exercised all three classes.
    EXPECT_GT(sawBadMagic, 0);
    EXPECT_GT(sawBadLength, 0);
    EXPECT_GT(sawWellFormed, 0);
}

/** After garbage, reset() returns the reader to a clean state. */
TEST(Wire, FrameReaderResetRecoversAfterGarbage)
{
    wire::FrameReader reader;
    std::string garbage(12, '\x5a');
    EXPECT_THROW(reader.feed(garbage.data(), garbage.size()),
                 wire::WireError);

    reader.reset();
    EXPECT_FALSE(reader.midFrame());
    EXPECT_EQ(reader.pendingFrames(), 0u);

    std::string good = frameBytes(wire::FrameType::Stop, "ok");
    reader.feed(good.data(), good.size());
    auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, wire::FrameType::Stop);
    EXPECT_EQ(frame->payload, "ok");
}

// --- Join identity (TCP transport handshake) ------------------------

TEST(Wire, JoinIdentityMismatchNamesTheField)
{
    fleet::Join want;
    want.id.shards = 3;
    want.id.configHash = 0x1111;
    want.id.sessionWord = 0xaaaa;
    want.id.seedsDigest = 0x5e5e;

    fleet::Join got = want;
    got.id.seedsDigest = 0x6f6f;
    try {
        fleet::validateJoin(got, want);
        FAIL() << "seeds-digest mismatch was accepted";
    } catch (const wire::WireError &err) {
        EXPECT_EQ(err.kind(), wire::WireErrorKind::Mismatch);
        EXPECT_EQ(err.expected(), 0x5e5eu);
        EXPECT_EQ(err.found(), 0x6f6fu);
        EXPECT_NE(std::string(err.what()).find("seeds digest"),
                  std::string::npos);
    }

    got = want;
    got.id.sessionWord = 0xbbbb;
    try {
        fleet::validateJoin(got, want);
        FAIL() << "session-word mismatch was accepted";
    } catch (const wire::WireError &err) {
        EXPECT_EQ(err.kind(), wire::WireErrorKind::Mismatch);
        EXPECT_NE(std::string(err.what()).find("session word"),
                  std::string::npos);
    }

    got = want;
    got.wireVersion = wire::kWireVersion + 1;
    try {
        fleet::validateJoin(got, want);
        FAIL() << "future wire version was accepted";
    } catch (const wire::WireError &err) {
        EXPECT_EQ(err.kind(), wire::WireErrorKind::BadVersion);
        EXPECT_EQ(err.expected(), wire::kWireVersion);
        EXPECT_EQ(err.found(), wire::kWireVersion + 1);
    }

    // desiredShard and lastAckedRound are negotiation, not identity.
    got = want;
    got.desiredShard = 2;
    got.lastAckedRound = 7;
    EXPECT_NO_THROW(fleet::validateJoin(got, want));
}

TEST(Wire, PreviousVersionJoinIsRefusedByVersion)
{
    auto expectRefused = [](const std::string &bytes, uint32_t version) {
        wire::Decoder dec(bytes);
        fleet::Join got = fleet::decodeJoin(dec);
        try {
            fleet::validateJoin(got, fleet::Join{});
            FAIL() << "a v" << version << " join was accepted";
        } catch (const wire::WireError &err) {
            EXPECT_EQ(err.kind(), wire::WireErrorKind::BadVersion);
            EXPECT_EQ(err.expected(), wire::kWireVersion);
            EXPECT_EQ(err.found(), version);
            EXPECT_NE(std::string(err.what()).find(
                          "expected " +
                          std::to_string(wire::kWireVersion) +
                          ", found " + std::to_string(version)),
                      std::string::npos);
        }
    };

    // A v4 Join: version, desired shard, then the identity fields in
    // that build's order.  Its layout is not ours, so it must be
    // refused by version, with both numbers, not by a decode error.
    wire::Encoder v4;
    v4.u32(4);
    v4.u32(fleet::kAnyShard);
    v4.u32(3);
    for (int i = 0; i < 7; ++i)
        v4.u64(0x1111);
    expectRefused(v4.buffer(), 4);

    // A v5 Join has today's layout, but a v5 peer expects a Hello
    // that still carries the heartbeat interval, so it too must be
    // refused at the Join, by version.
    fleet::Join v5Join;
    v5Join.wireVersion = 5;
    wire::Encoder v5;
    fleet::encodeJoin(v5, v5Join);
    expectRefused(v5.buffer(), 5);
}

/**
 * The session word must move with every off-wire knob that changes
 * worker behavior — it is what stops a TCP worker started with
 * different flags from silently forking the deterministic merge.
 */
TEST(Wire, SessionWordTracksOffWireKnobs)
{
    explore::ExploreOptions base;
    uint64_t word = fleet::sessionWord(base);
    EXPECT_EQ(word, fleet::sessionWord(base));

    explore::ExploreOptions batch = base;
    batch.batchSize = base.batchSize + 1;
    EXPECT_NE(fleet::sessionWord(batch), word);

    explore::ExploreOptions pct = base;
    pct.rarePercentile = base.rarePercentile + 0.1;
    EXPECT_NE(fleet::sessionWord(pct), word);

    explore::ExploreOptions pol = base;
    pol.policy = explore::SchedulePolicy::UniformRandom;
    ASSERT_NE(pol.policy, base.policy);
    EXPECT_NE(fleet::sessionWord(pol), word);
}

// --- Checkpoint corruption reporting --------------------------------

class WireCheckpointTest : public ::testing::Test
{
  protected:
    std::string
    path(const char *name)
    {
        return testing::TempDir() + "wire_ckp_" + name + ".bin";
    }

    /** Run a short exploration that leaves a checkpoint behind. */
    void
    writeCheckpoint(const std::string &file)
    {
        const auto &workload = workloads::getWorkload("schedule");
        explore::ExploreOptions opts;
        opts.config = core::PeConfig::forMode(core::PeMode::Off);
        opts.budget.maxRuns = 24;
        opts.batchSize = 4;
        opts.checkpointPath = file;
        explore::Explorer explorer(testProgram(),
                                   workload.benignInputs, opts);
        explorer.run();
    }
};

TEST_F(WireCheckpointTest, VersionCorruptionReportsExpectedAndFound)
{
    std::string file = path("version");
    writeCheckpoint(file);

    // The u32 version lives right after the 8-byte magic.
    {
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(8);
        uint32_t bogus = 77;
        f.write(reinterpret_cast<const char *>(&bogus), 4);
    }

    const auto &workload = workloads::getWorkload("schedule");
    explore::ExploreOptions opts;
    opts.config = core::PeConfig::forMode(core::PeMode::Off);
    opts.budget.maxRuns = 48;
    opts.batchSize = 4;
    opts.resumeFrom = file;
    explore::Explorer explorer(testProgram(), workload.benignInputs,
                               opts);
    try {
        explorer.run();
        FAIL() << "corrupt checkpoint version was accepted";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("version mismatch"), std::string::npos);
        EXPECT_NE(what.find("expected 4"), std::string::npos);
        EXPECT_NE(what.find("found 77"), std::string::npos);
    }
    std::remove(file.c_str());
}

TEST_F(WireCheckpointTest, TruncatedCheckpointIsStructuredError)
{
    std::string file = path("truncated");
    writeCheckpoint(file);

    // Chop the file at two thirds: decode must fail as Truncated,
    // surfaced through the explorer as a FatalError naming the kind.
    std::string bytes;
    {
        std::ifstream f(file, std::ios::binary);
        std::ostringstream raw;
        raw << f.rdbuf();
        bytes = raw.str();
    }
    ASSERT_GT(bytes.size(), 32u);
    {
        std::ofstream f(file, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size() * 2 / 3));
    }

    const auto &workload = workloads::getWorkload("schedule");
    explore::ExploreOptions opts;
    opts.config = core::PeConfig::forMode(core::PeMode::Off);
    opts.budget.maxRuns = 48;
    opts.batchSize = 4;
    opts.resumeFrom = file;
    explore::Explorer explorer(testProgram(), workload.benignInputs,
                               opts);
    try {
        explorer.run();
        FAIL() << "truncated checkpoint was accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("truncated"),
                  std::string::npos);
    }
    std::remove(file.c_str());
}

} // namespace
