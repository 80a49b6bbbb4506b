/**
 * @file
 * Versioned binary serialization and length-prefixed framing.
 *
 * One codec for two transports: the explorer's on-disk checkpoints
 * (PR 4's format, extracted here) and the fleet's IPC frames over
 * pipes/socketpairs.  Both need the same guarantees — little-endian
 * fixed-width primitives, explicit versioning, structured rejection
 * of truncated or foreign bytes — so they share one Encoder/Decoder
 * pair instead of two hand-rolled put/get stacks.
 *
 * Errors are *structured*: every decode failure throws WireError
 * carrying a kind (Truncated / BadMagic / BadVersion / Implausible /
 * BadFrame / Io / Mismatch) plus the expected and found values, so a
 * fleet misconfiguration reads "config hash mismatch: expected
 * 0xabc..., found 0xdef..." rather than a bare "mismatch", and tests
 * can assert on the kind rather than grepping message text.
 *
 * Framing: `[u32 magic][u32 payload length][u32 type][payload]` with
 * a sanity cap on the length.  writeFrame/readFrame speak it over
 * raw fds (EINTR-safe, SIGPIPE-suppressed on sockets); a clean EOF
 * at a frame boundary is a normal shutdown (readFrame returns
 * nullopt), EOF inside a frame is WireError{Truncated}.
 */

#ifndef PE_FLEET_WIRE_HH
#define PE_FLEET_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pe::wire
{

/**
 * Protocol revision spoken by this build's coordinator + workers.
 * v2 added the Join frame (TCP workers dialing in, with
 * reconnect/resume); v3 added the Heartbeat/HeartbeatAck liveness
 * frames and the heartbeat interval in Hello; v4 appended the
 * prime-path completion words to RoundStart/RoundDelta (empty when
 * the path tracker is off); v5 made Join (version, desired shard,
 * last acked round, session identity record) open every (re)attach
 * of forked and dialing workers alike, and cut Hello to the assigned
 * shard + heartbeat interval and HelloReply to the shard; v6 dropped
 * the heartbeat frames and cut Hello to the assigned shard alone (the
 * round deadline is the one liveness rule).
 */
constexpr uint32_t kWireVersion = 6;

/** Why a decode was refused. */
enum class WireErrorKind : uint8_t
{
    Truncated,      //!< ran out of bytes mid-value or mid-frame
    BadMagic,       //!< leading bytes are not ours
    BadVersion,     //!< version word outside what we speak
    Implausible,    //!< a count/length fails the sanity cap
    BadFrame,       //!< malformed frame header
    Io,             //!< read/write syscall failed
    Mismatch,       //!< header field disagrees with this session
};

const char *wireErrorKindName(WireErrorKind kind);

/** Structured decode/transport failure: kind + expected/found. */
class WireError : public std::runtime_error
{
  public:
    WireError(WireErrorKind kind, const std::string &what,
              uint64_t expected = 0, uint64_t found = 0)
        : std::runtime_error(what), errKind(kind),
          expectedVal(expected), foundVal(found)
    {}

    WireErrorKind kind() const { return errKind; }
    uint64_t expected() const { return expectedVal; }
    uint64_t found() const { return foundVal; }

  private:
    WireErrorKind errKind;
    uint64_t expectedVal;
    uint64_t foundVal;
};

/** Append-only little-endian encoder over a byte buffer. */
class Encoder
{
  public:
    void u8(uint8_t v) { buf.push_back(static_cast<char>(v)); }

    void u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }

    void bytes(const void *p, size_t n)
    {
        buf.append(static_cast<const char *>(p), n);
    }

    /** u32 length prefix + raw bytes. */
    void str(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf.append(s.data(), s.size());
    }

    void u64vec(const std::vector<uint64_t> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        for (uint64_t w : v)
            u64(w);
    }

    void u32vec(const std::vector<uint32_t> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        for (uint32_t w : v)
            u32(w);
    }

    void i32vec(const std::vector<int32_t> &v)
    {
        u32(static_cast<uint32_t>(v.size()));
        for (int32_t w : v)
            i32(w);
    }

    const std::string &buffer() const { return buf; }
    std::string take() { return std::move(buf); }
    size_t size() const { return buf.size(); }

  private:
    std::string buf;
};

/**
 * Bounds-checked little-endian decoder over a byte view.  Every
 * shortfall throws WireError{Truncated} naming the field being read;
 * counts above the sanity cap throw WireError{Implausible} before
 * any allocation is attempted.
 */
class Decoder
{
  public:
    /** Counts/lengths above this are rejected as implausible. */
    static constexpr uint32_t kSanityCap = 1u << 26;

    explicit Decoder(std::string_view data) : data(data) {}

    uint8_t u8(const char *what);
    uint32_t u32(const char *what);
    uint64_t u64(const char *what);
    int32_t i32(const char *what);
    std::string str(const char *what);
    std::vector<uint64_t> u64vec(const char *what);
    std::vector<uint32_t> u32vec(const char *what);
    std::vector<int32_t> i32vec(const char *what);

    /** A u32 count checked against the sanity cap. */
    uint32_t count(const char *what);

    size_t remaining() const { return data.size() - pos; }
    bool atEnd() const { return pos == data.size(); }

    /** Throw WireError{BadFrame} unless all bytes were consumed. */
    void expectEnd(const char *what) const;

  private:
    void need(size_t n, const char *what) const;

    std::string_view data;
    size_t pos = 0;
};

/** IPC frame kinds for the fleet protocol (see coordinator.hh). */
enum class FrameType : uint32_t
{
    Hello = 1,      //!< coordinator -> worker: join accepted, shard
    HelloReply,     //!< worker -> coordinator: explorer built, ready
    RoundStart,     //!< coordinator -> worker: budget + merged delta
    RoundDelta,     //!< worker -> coordinator: frontier/corpus delta
    Stop,           //!< coordinator -> worker: shut down cleanly
    Goodbye,        //!< worker -> coordinator: final summary
    Error,          //!< either way: refusal or fatal error text
    Join,           //!< worker -> coordinator: identify/(re)attach
};

const char *frameTypeName(FrameType type);

struct Frame
{
    FrameType type = FrameType::Error;
    std::string payload;
};

/** Frames above this payload size are rejected (64 MiB). */
constexpr uint32_t kMaxFramePayload = 64u << 20;

/**
 * Write one `[magic][len][type][payload]` frame to @p fd.  EINTR is
 * retried; on sockets SIGPIPE is suppressed (a dead peer surfaces as
 * WireError{Io} instead of killing the process).
 */
void writeFrame(int fd, FrameType type, std::string_view payload);

/**
 * Read one frame from @p fd.  Returns nullopt on clean EOF at a
 * frame boundary (peer closed); throws WireError{Truncated} on EOF
 * mid-frame, {BadMagic}/{BadFrame} on garbage, {Io} on errno.
 */
std::optional<Frame> readFrame(int fd);

/**
 * Incremental frame reassembly for poll-multiplexed fds.
 *
 * The blocking readFrame() above parks a thread until a whole frame
 * has arrived — fine for a worker with one peer, wrong for a
 * coordinator multiplexing a fleet.  FrameReader is the non-blocking
 * half: feed() it whatever bytes a read() returned (any split, down
 * to one byte at a time) and poll next() for the frames completed so
 * far.  The 12-byte header is validated the moment it completes —
 * bad magic or an implausible length throws the same structured
 * WireError the blocking path would, *before* any payload is
 * buffered, so a garbage peer cannot make the reader allocate or
 * hang.
 */
class FrameReader
{
  public:
    /**
     * Append @p n raw bytes from the peer.  Completed frames queue
     * for next(); throws WireError{BadMagic}/{BadFrame} the moment a
     * malformed header completes.
     */
    void feed(const char *p, size_t n);

    /** Pop the next completed frame, in arrival order. */
    std::optional<Frame> next();

    /**
     * True when a partial frame is buffered — EOF now means the peer
     * died mid-frame (Truncated), not a clean close.
     */
    bool midFrame() const { return fill > 0; }

    /** Completed frames waiting in next()'s queue. */
    size_t pendingFrames() const { return ready.size(); }

    /** Drop all buffered state (a reconnected peer starts clean). */
    void reset();

  private:
    std::deque<Frame> ready;
    /** Partial frame: header then payload, contiguous. */
    std::string buf;
    size_t fill = 0;
    /** Payload length once the header is complete; SIZE_MAX before. */
    size_t payloadLen = SIZE_MAX;
    FrameType type = FrameType::Error;
};

/** Outcome of one drain of a non-blocking fd into a FrameReader. */
enum class FillStatus : uint8_t
{
    Progress,   //!< read at least one byte
    Drained,    //!< nothing available right now (EAGAIN)
    Eof,        //!< peer closed
};

/**
 * Read whatever @p fd has (until EAGAIN or EOF) into @p reader.
 * Intended for O_NONBLOCK fds inside a poll loop; on a blocking fd
 * it reads exactly once (call only after poll reports readable).
 * Throws WireError{Io} on errno, and whatever feed() throws on
 * malformed headers.
 */
FillStatus fillFromFd(int fd, FrameReader &reader);

/**
 * readFrame with a deadline: poll + reassemble until one frame
 * completes, EOF (nullopt), or @p timeoutMs elapses — the timeout
 * throws WireError{Io}, so a wedged peer can never park the caller
 * forever.  Works on blocking and non-blocking fds.  Reassembly goes
 * through @p buffer when given (a reactor's per-peer reader, which
 * keeps any bytes past the frame); without one, bytes beyond the
 * first frame are discarded, so use it only for lockstep exchanges.
 */
std::optional<Frame> readFrameTimeout(int fd, int timeoutMs,
                                      FrameReader *buffer = nullptr);

/** Set O_NONBLOCK; throws WireError{Io} on failure. */
void setNonBlocking(int fd);

} // namespace pe::wire

#endif // PE_FLEET_WIRE_HH
