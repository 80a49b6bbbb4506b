/**
 * @file
 * Wire codec + frame transport implementation.
 */

#include "src/fleet/wire.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <mutex>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::wire
{

const char *
wireErrorKindName(WireErrorKind kind)
{
    switch (kind) {
      case WireErrorKind::Truncated: return "truncated";
      case WireErrorKind::BadMagic: return "bad-magic";
      case WireErrorKind::BadVersion: return "bad-version";
      case WireErrorKind::Implausible: return "implausible";
      case WireErrorKind::BadFrame: return "bad-frame";
      case WireErrorKind::Io: return "io";
      case WireErrorKind::Mismatch: return "mismatch";
    }
    return "?";
}

const char *
frameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::Hello: return "hello";
      case FrameType::HelloReply: return "hello-reply";
      case FrameType::RoundStart: return "round-start";
      case FrameType::RoundDelta: return "round-delta";
      case FrameType::Stop: return "stop";
      case FrameType::Goodbye: return "goodbye";
      case FrameType::Error: return "error";
      case FrameType::Join: return "join";
    }
    return "?";
}

void
Decoder::need(size_t n, const char *what) const
{
    if (data.size() - pos < n) {
        throw WireError(WireErrorKind::Truncated,
                        detail::concat("truncated while reading ",
                                       what, ": need ", n,
                                       " bytes, have ",
                                       data.size() - pos),
                        n, data.size() - pos);
    }
}

uint8_t
Decoder::u8(const char *what)
{
    need(1, what);
    return static_cast<uint8_t>(data[pos++]);
}

uint32_t
Decoder::u32(const char *what)
{
    need(4, what);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<uint32_t>(
                 static_cast<unsigned char>(data[pos + i]))
             << (8 * i);
    }
    pos += 4;
    return v;
}

uint64_t
Decoder::u64(const char *what)
{
    uint64_t lo = u32(what);
    uint64_t hi = u32(what);
    return lo | (hi << 32);
}

int32_t
Decoder::i32(const char *what)
{
    return static_cast<int32_t>(u32(what));
}

uint32_t
Decoder::count(const char *what)
{
    uint32_t n = u32(what);
    if (n > kSanityCap) {
        throw WireError(WireErrorKind::Implausible,
                        detail::concat(what, " count implausible: ",
                                       n, " > cap ", kSanityCap),
                        kSanityCap, n);
    }
    return n;
}

std::string
Decoder::str(const char *what)
{
    uint32_t n = count(what);
    need(n, what);
    std::string s(data.substr(pos, n));
    pos += n;
    return s;
}

std::vector<uint64_t>
Decoder::u64vec(const char *what)
{
    uint32_t n = count(what);
    need(size_t{n} * 8, what);
    std::vector<uint64_t> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        v.push_back(u64(what));
    return v;
}

std::vector<uint32_t>
Decoder::u32vec(const char *what)
{
    uint32_t n = count(what);
    need(size_t{n} * 4, what);
    std::vector<uint32_t> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        v.push_back(u32(what));
    return v;
}

std::vector<int32_t>
Decoder::i32vec(const char *what)
{
    uint32_t n = count(what);
    need(size_t{n} * 4, what);
    std::vector<int32_t> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        v.push_back(i32(what));
    return v;
}

void
Decoder::expectEnd(const char *what) const
{
    if (pos != data.size()) {
        throw WireError(WireErrorKind::BadFrame,
                        detail::concat(what, ": ",
                                       data.size() - pos,
                                       " trailing bytes after payload"),
                        0, data.size() - pos);
    }
}

namespace
{

constexpr uint32_t kFrameMagic = 0x31464550; // "PEF1" little-endian
constexpr size_t kFrameHeader = 12;

/**
 * Validate a complete 12-byte header; returns payload length + type.
 * One implementation for both the blocking readFrame and the
 * incremental FrameReader, so the two paths can never disagree on
 * what a malformed header is.
 */
std::pair<uint32_t, FrameType>
parseFrameHeader(const char *head)
{
    Decoder dec(std::string_view(head, kFrameHeader));
    uint32_t magic = dec.u32("frame magic");
    if (magic != kFrameMagic) {
        throw WireError(WireErrorKind::BadMagic,
                        detail::concat("bad frame magic: expected ",
                                       fmtHex(kFrameMagic),
                                       ", found ", fmtHex(magic)),
                        kFrameMagic, magic);
    }
    uint32_t len = dec.u32("frame length");
    uint32_t type = dec.u32("frame type");
    if (len > kMaxFramePayload) {
        throw WireError(WireErrorKind::BadFrame,
                        detail::concat("frame payload length ", len,
                                       " exceeds cap ",
                                       kMaxFramePayload),
                        kMaxFramePayload, len);
    }
    return {len, static_cast<FrameType>(type)};
}

/**
 * Write to a non-socket fd without risking SIGPIPE: the first time
 * the send(MSG_NOSIGNAL) path reports ENOTSOCK (a plain pipe — test
 * harnesses, fd redirection), ignore SIGPIPE process-wide so a dead
 * reader surfaces as EPIPE -> WireError{Io} instead of killing the
 * coordinator.  Sockets never reach this path, so fleets over
 * socketpairs/TCP leave the process disposition untouched.
 */
ssize_t
writeNonSocket(int fd, const char *p, size_t n)
{
    static std::once_flag once;
    std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
    return ::write(fd, p, n);
}

/**
 * write() that survives EINTR, EAGAIN (non-blocking reactor fds
 * block in poll until writable) and short writes, and never raises
 * SIGPIPE: sockets use send(MSG_NOSIGNAL), plain pipes ignore the
 * signal — either way a dead peer is WireError{Io}, handled like any
 * other worker loss.
 */
void
writeAll(int fd, const char *p, size_t n)
{
    while (n > 0) {
        ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
        if (w < 0 && errno == ENOTSOCK)
            w = writeNonSocket(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                struct pollfd pfd = {fd, POLLOUT, 0};
                if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) {
                    throw WireError(
                        WireErrorKind::Io,
                        detail::concat("frame write poll failed: ",
                                       std::strerror(errno)));
                }
                continue;
            }
            throw WireError(WireErrorKind::Io,
                            detail::concat("frame write failed: ",
                                           std::strerror(errno)));
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
}

/**
 * Read exactly @p n bytes.  Returns false on EOF before the first
 * byte (clean close); throws on EOF mid-read or errno.
 */
bool
readAll(int fd, char *p, size_t n, const char *what)
{
    size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throw WireError(WireErrorKind::Io,
                            detail::concat("frame read failed: ",
                                           std::strerror(errno)));
        }
        if (r == 0) {
            if (got == 0)
                return false;
            throw WireError(WireErrorKind::Truncated,
                            detail::concat("peer closed mid-", what,
                                           ": got ", got, " of ", n,
                                           " bytes"),
                            n, got);
        }
        got += static_cast<size_t>(r);
    }
    return true;
}

} // namespace

void
writeFrame(int fd, FrameType type, std::string_view payload)
{
    pe_assert(payload.size() <= kMaxFramePayload,
              "oversized frame payload");
    Encoder header;
    header.u32(kFrameMagic);
    header.u32(static_cast<uint32_t>(payload.size()));
    header.u32(static_cast<uint32_t>(type));
    // One buffer, one writev-equivalent: small frames (the common
    // case) leave in a single syscall.
    std::string buf = header.take();
    buf.append(payload.data(), payload.size());
    writeAll(fd, buf.data(), buf.size());
}

std::optional<Frame>
readFrame(int fd)
{
    char head[kFrameHeader];
    if (!readAll(fd, head, sizeof(head), "frame header"))
        return std::nullopt;

    auto [len, type] = parseFrameHeader(head);
    Frame frame;
    frame.type = type;
    frame.payload.resize(len);
    if (len > 0 &&
        !readAll(fd, frame.payload.data(), len, "frame payload")) {
        throw WireError(WireErrorKind::Truncated,
                        "peer closed between frame header and payload",
                        len, 0);
    }
    return frame;
}

void
FrameReader::feed(const char *p, size_t n)
{
    while (n > 0) {
        if (payloadLen == SIZE_MAX) {
            // Accumulating the header.  Validate the moment byte 12
            // lands: garbage is refused before any payload is
            // buffered or believed.
            size_t want = kFrameHeader - fill;
            size_t take = std::min(want, n);
            buf.append(p, take);
            fill += take;
            p += take;
            n -= take;
            if (fill < kFrameHeader)
                return;
            auto [len, t] = parseFrameHeader(buf.data());
            payloadLen = len;
            type = t;
        }
        size_t have = fill - kFrameHeader;
        size_t take = std::min(payloadLen - have, n);
        buf.append(p, take);
        fill += take;
        p += take;
        n -= take;
        if (fill - kFrameHeader < payloadLen)
            return;
        Frame frame;
        frame.type = type;
        frame.payload = buf.substr(kFrameHeader, payloadLen);
        ready.push_back(std::move(frame));
        buf.clear();
        fill = 0;
        payloadLen = SIZE_MAX;
    }
}

std::optional<Frame>
FrameReader::next()
{
    if (ready.empty())
        return std::nullopt;
    Frame frame = std::move(ready.front());
    ready.pop_front();
    return frame;
}

void
FrameReader::reset()
{
    ready.clear();
    buf.clear();
    fill = 0;
    payloadLen = SIZE_MAX;
}

FillStatus
fillFromFd(int fd, FrameReader &reader)
{
    char tmp[64 * 1024];
    bool progressed = false;
    for (;;) {
        ssize_t r = ::read(fd, tmp, sizeof(tmp));
        if (r > 0) {
            reader.feed(tmp, static_cast<size_t>(r));
            progressed = true;
            // A short read means the fd is drained; on a blocking fd
            // this is also the bail-out that keeps us from parking.
            if (static_cast<size_t>(r) < sizeof(tmp))
                return FillStatus::Progress;
            continue;
        }
        if (r == 0)
            return FillStatus::Eof;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return progressed ? FillStatus::Progress
                              : FillStatus::Drained;
        throw WireError(WireErrorKind::Io,
                        detail::concat("frame read failed: ",
                                       std::strerror(errno)));
    }
}

std::optional<Frame>
readFrameTimeout(int fd, int timeoutMs, FrameReader *buffer)
{
    using clock = std::chrono::steady_clock;
    auto deadline = clock::now() +
                    std::chrono::milliseconds(timeoutMs);
    FrameReader local;
    FrameReader &reader = buffer ? *buffer : local;
    for (;;) {
        if (auto frame = reader.next())
            return frame;
        auto left = std::chrono::duration_cast<
                        std::chrono::milliseconds>(deadline -
                                                   clock::now())
                        .count();
        if (left <= 0) {
            throw WireError(WireErrorKind::Io,
                            detail::concat("timed out after ",
                                           timeoutMs,
                                           " ms waiting for a frame"),
                            static_cast<uint64_t>(timeoutMs), 0);
        }
        struct pollfd pfd = {fd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, static_cast<int>(left));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throw WireError(WireErrorKind::Io,
                            detail::concat("frame poll failed: ",
                                           std::strerror(errno)));
        }
        if (rc == 0)
            continue;   // recompute `left`, then throw above
        if (fillFromFd(fd, reader) == FillStatus::Eof) {
            if (auto frame = reader.next())
                return frame;
            if (reader.midFrame()) {
                throw WireError(WireErrorKind::Truncated,
                                "peer closed mid-frame");
            }
            return std::nullopt;
        }
    }
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        throw WireError(WireErrorKind::Io,
                        detail::concat("O_NONBLOCK failed: ",
                                       std::strerror(errno)));
    }
}

} // namespace pe::wire
