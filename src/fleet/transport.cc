/**
 * @file
 * Fleet transport implementations: fork/socketpair and TCP.
 */

#include "src/fleet/transport.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ostream>
#include <thread>
#include <utility>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::fleet
{

namespace
{

/** Poll slice while waiting for the fleet to form (stopFlag checks). */
constexpr int kEstablishPollMs = 200;

/** `host:port` -> (host, service); empty host = every interface. */
std::pair<std::string, std::string>
splitHostPort(const std::string &spec)
{
    size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
        pe_fatal("tcp address '", spec, "' is not host:port");
    }
    return {spec.substr(0, colon), spec.substr(colon + 1)};
}

/**
 * Resolve @p spec and return the first address's socket that takes:
 * bound and listening (@p passive), or connected.  An empty host means
 * every interface to a listener and loopback to a dialer.  Throws
 * FatalError with the last failure.
 */
int
openTcp(const std::string &spec, bool passive)
{
    auto [host, service] = splitHostPort(spec);
    struct addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = passive ? AI_PASSIVE : 0;
    const char *node = !host.empty() ? host.c_str()
                       : passive     ? nullptr
                                     : "127.0.0.1";
    struct addrinfo *res = nullptr;
    int rc = ::getaddrinfo(node, service.c_str(), &hints, &res);
    if (rc != 0)
        pe_fatal("cannot resolve '", spec, "': ", ::gai_strerror(rc));

    int fd = -1;
    std::string lastErr = "no usable address";
    for (struct addrinfo *ai = res; ai && fd < 0; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            lastErr = std::strerror(errno);
            continue;
        }
        int one = 1;
        if (passive)
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        bool ok = passive ? ::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
                                ::listen(fd, SOMAXCONN) == 0
                          : ::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0;
        if (!ok) {
            lastErr = std::strerror(errno);
            ::close(fd);
            fd = -1;
        }
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        pe_fatal("cannot ", passive ? "listen on" : "connect to", " '",
                 spec, "': ", lastErr);
    }
    return fd;
}

} // namespace

// --- ForkTransport ---------------------------------------------------

std::vector<int>
ForkTransport::establish(const FleetIdentity &id,
                         const std::vector<WorkerConfig> &configs,
                         const std::atomic<bool> *stopFlag)
{
    (void)stopFlag;   // fork is immediate; nothing to wait for
    pe_assert(children.empty(), "fork transport establishes once");
    std::vector<int> fds;
    fds.reserve(configs.size());
    for (const WorkerConfig &cfg : configs) {
        children.push_back(proc::spawnChild([this, cfg](int fd) {
            return workerMain(fd, program, cfg);
        }));
        fds.push_back(children.back().fd());
    }
    // Every child opens with the Join a dialing worker sends, pinned
    // to the slot whose socketpair it inherited.  The Joins come
    // before any explorer is built, so reading them in order is cheap.
    for (size_t s = 0; s < fds.size(); ++s) {
        try {
            Join join = readJoin(fds[s], id);
            if (join.desiredShard != configs[s].shard)
                throw wire::WireError(
                    wire::WireErrorKind::Mismatch,
                    detail::concat("forked worker for shard ",
                                   configs[s].shard, " asked for shard ",
                                   join.desiredShard),
                    configs[s].shard, join.desiredShard);
        } catch (const wire::WireError &err) {
            sendErrorBestEffort(fds[s], err.what());
            closeChannel(static_cast<uint32_t>(s));
            fds[s] = -1;
        }
    }
    return fds;
}

void
ForkTransport::closeChannel(uint32_t shard)
{
    if (shard < children.size())
        children[shard].closeFd();
}

void
ForkTransport::shutdown(int reapTimeoutMs)
{
    // Two passes: give every child the EOF + grace period first, then
    // reap — so N stragglers share one timeout instead of serializing
    // N of them.
    for (proc::ChildProcess &child : children)
        child.closeFd();
    for (proc::ChildProcess &child : children) {
        if (!child.valid())
            continue;
        if (!child.waitFor(reapTimeoutMs)) {
            child.kill(SIGKILL);
            child.wait();
        }
    }
    children.clear();
}

// --- TcpTransport ----------------------------------------------------

TcpTransport::TcpTransport(const std::string &listenSpec,
                           std::ostream *status)
    : status(status)
{
    listenSock = openTcp(listenSpec, /*passive=*/true);
    // Non-blocking: acceptOne() is drained in a loop after poll()
    // reports the listener readable, and the call that finds the
    // backlog empty must return nullopt (EAGAIN), not park the
    // reactor in accept(2) forever.
    wire::setNonBlocking(listenSock);

    struct sockaddr_storage addr = {};
    socklen_t len = sizeof(addr);
    if (::getsockname(listenSock,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      &len) == 0) {
        if (addr.ss_family == AF_INET) {
            boundPort = ntohs(
                reinterpret_cast<struct sockaddr_in *>(&addr)
                    ->sin_port);
        } else if (addr.ss_family == AF_INET6) {
            boundPort = ntohs(
                reinterpret_cast<struct sockaddr_in6 *>(&addr)
                    ->sin6_port);
        }
    }
}

TcpTransport::~TcpTransport()
{
    shutdown(0);
}

std::optional<PeerJoin>
TcpTransport::acceptOne(
    const std::function<bool(uint32_t, bool)> &mayJoin)
{
    int fd = ::accept(listenSock, nullptr, nullptr);
    if (fd < 0) {
        if (errno == EINTR || errno == EAGAIN ||
            errno == EWOULDBLOCK || errno == ECONNABORTED)
            return std::nullopt;
        pe_fatal("accept failed: ", std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto refuse = [&](const std::string &why) {
        if (status)
            *status << "[fleet] refused tcp peer: " << why << "\n";
        sendErrorBestEffort(fd, why);
        ::close(fd);
        return std::nullopt;
    };
    Join got;
    try {
        got = readJoin(fd, identity);
    } catch (const wire::WireError &err) {
        return refuse(err.what());
    }

    // Resolve the shard slot: a wildcard takes the lowest
    // never-assigned slot, an explicit id takes exactly that slot.
    uint32_t shard = got.desiredShard;
    if (shard == kAnyShard) {
        for (uint32_t s = 0; s < identity.shards; ++s) {
            if (!assigned[s]) {
                shard = s;
                break;
            }
        }
    }
    if (shard >= identity.shards)
        return refuse("no free shard slot");
    if (slots[shard] >= 0)
        return refuse(
            detail::concat("shard ", shard, " is already connected"));
    if (!mayJoin(shard, assigned[shard]))
        return refuse(
            detail::concat("shard ", shard, " is not accepting peers"));

    PeerJoin peer;
    peer.shard = shard;
    peer.fd = fd;
    peer.lastAckedRound = got.lastAckedRound;
    peer.rejoin = assigned[shard];
    slots[shard] = fd;
    assigned[shard] = true;
    if (status)
        *status << "[fleet] shard " << shard << " "
                << (peer.rejoin ? "reconnected" : "connected")
                << " over tcp\n";
    return peer;
}

std::vector<int>
TcpTransport::establish(const FleetIdentity &id,
                        const std::vector<WorkerConfig> &configs,
                        const std::atomic<bool> *stopFlag)
{
    (void)configs;   // remote workers bring their own options
    identity = id;
    slots.assign(id.shards, -1);
    assigned.assign(id.shards, false);

    if (status)
        *status << "[fleet] waiting for " << id.shards
                << " worker(s) on tcp port " << boundPort << "\n";

    size_t joined = 0;
    while (joined < id.shards) {
        if (stopFlag &&
            stopFlag->load(std::memory_order_relaxed)) {
            pe_fatal("interrupted while waiting for tcp workers (",
                     joined, "/", id.shards, " joined)");
        }
        struct pollfd pfd = {listenSock, POLLIN, 0};
        int rc = ::poll(&pfd, 1, kEstablishPollMs);
        if (rc < 0 && errno != EINTR)
            pe_fatal("poll failed: ", std::strerror(errno));
        if (rc <= 0)
            continue;
        // During formation every unattached slot may join (first
        // attach only; nothing has ever disconnected yet).
        if (acceptOne([](uint32_t, bool) { return true; }))
            ++joined;
    }
    return slots;
}

void
TcpTransport::prepareResume(const FleetIdentity &id)
{
    identity = id;
    // Every slot was held by the dead coordinator's session; the
    // workers are still out there redialing.  Marking the slots
    // assigned-but-detached routes their Joins through the same
    // accept path a mid-session reconnect takes.
    slots.assign(id.shards, -1);
    assigned.assign(id.shards, true);
    if (status)
        *status << "[fleet] resuming: waiting for workers to redial "
                   "on tcp port "
                << boundPort << "\n";
}

std::optional<PeerJoin>
TcpTransport::acceptPeer(
    const std::function<bool(uint32_t, bool)> &mayJoin)
{
    return acceptOne(mayJoin);
}

void
TcpTransport::closeChannel(uint32_t shard)
{
    if (shard < slots.size() && slots[shard] >= 0) {
        ::close(slots[shard]);
        slots[shard] = -1;
    }
}

void
TcpTransport::shutdown(int reapTimeoutMs)
{
    (void)reapTimeoutMs;   // remote processes reap themselves
    for (int &fd : slots) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    if (listenSock >= 0) {
        ::close(listenSock);
        listenSock = -1;
    }
}

// --- Worker-side dialing ---------------------------------------------

int
tcpDial(const std::string &hostPort)
{
    int fd = openTcp(hostPort, /*passive=*/false);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

} // namespace pe::fleet
