/**
 * @file
 * Pluggable fleet transports: how coordinator and workers get wired.
 *
 * The wire layer speaks versioned 'PEF1' frames over any fd; the
 * protocol layer defines what crosses them.  Transport owns the one
 * thing that differs between deployments — where a worker's channel
 * comes from — and nothing else:
 *
 *  - ForkTransport — fork-without-exec over socketpairs.  Each child
 *    inherits the program image and its options by memory and runs
 *    workerMain on its socketpair.  No reconnect: a broken socketpair
 *    means the process is gone.
 *
 *  - TcpTransport — the coordinator binds a listening socket and
 *    remote `explore --connect host:port` processes dial in.  A
 *    wildcard Join takes the lowest free shard slot, a pinned one its
 *    own slot.  Reconnect is first-class: a worker whose connection
 *    drops dials again with its shard id and last acked round, and
 *    the coordinator replays the RoundStart it missed.
 *
 * Either way every channel opens with the same Join, read and
 * validated by the one protocol.hh routine (readJoin) before a shard
 * is handed out; a refused peer gets a best-effort Error frame and a
 * close.  The coordinator then runs the rest of the attach exchange
 * (Hello, the ready HelloReply) and the round protocol over the fds —
 * the transport never interprets rounds, only channels.
 */

#ifndef PE_FLEET_TRANSPORT_HH
#define PE_FLEET_TRANSPORT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/fleet/protocol.hh"
#include "src/fleet/worker.hh"
#include "src/support/status.hh"
#include "src/support/subprocess.hh"

namespace pe::fleet
{

/** A peer (re)attached to a shard slot by acceptPeer(). */
struct PeerJoin
{
    uint32_t shard = 0;
    int fd = -1;
    uint64_t lastAckedRound = 0;
    bool rejoin = false;    //!< slot was held before (reconnect)
};

/**
 * Coordinator-side channel factory.  The coordinator owns the
 * protocol; the transport owns fd lifetimes (creation, per-shard
 * close, teardown) and nothing else.
 */
class Transport
{
  public:
    virtual ~Transport() = default;

    virtual const char *name() const = 0;

    /**
     * Bring up the initial channel for every shard and return the
     * per-shard fds, each past a Join validated against @p id.  Fork:
     * spawns the children from @p configs; a child whose Join is
     * refused gets fd -1.  TCP: accepts dialing peers (configs are
     * unused — remote workers bring their own) and blocks until the
     * fleet is complete; honors @p stopFlag; throws FatalError if the
     * fleet cannot form.
     */
    virtual std::vector<int>
    establish(const FleetIdentity &id,
              const std::vector<WorkerConfig> &configs,
              const std::atomic<bool> *stopFlag) = 0;

    /** fd to include in poll() for reconnecting peers; -1 = none. */
    virtual int acceptFd() const { return -1; }

    /** Whether a lost channel may ever come back. */
    virtual bool supportsReconnect() const { return false; }

    /**
     * Accept one pending peer on acceptFd(): readJoin, resolve the
     * shard slot, and ask @p mayJoin(shard, rejoin) whether the
     * coordinator will take it (a dead or still-connected shard
     * refuses).  Refused or invalid peers get a best-effort Error
     * frame and a close.  Returns the attachment, or nullopt.
     */
    virtual std::optional<PeerJoin>
    acceptPeer(const std::function<bool(uint32_t, bool)> &mayJoin)
    {
        (void)mayJoin;
        return std::nullopt;
    }

    /**
     * Prepare for a resumed session instead of establish(): adopt
     * @p id as the fleet identity and mark every shard slot as
     * previously assigned but detached, so the session's workers can
     * redial through acceptPeer() as reconnects.  Only meaningful on
     * transports with reconnect support — the default refuses,
     * because fork workers die with the coordinator and there is
     * nothing left to re-attach.
     */
    virtual void prepareResume(const FleetIdentity &id)
    {
        (void)id;
        pe_fatal("fleet resume requires a transport with reconnect "
                 "support (tcp), not ", name());
    }

    /** Close shard's channel; the slot may rejoin if supported. */
    virtual void closeChannel(uint32_t shard) = 0;

    /**
     * Tear down everything.  Fork: reap children, escalating to
     * SIGKILL after @p reapTimeoutMs per straggler so a wedged
     * worker cannot hang shutdown.  TCP: close sockets.
     */
    virtual void shutdown(int reapTimeoutMs) = 0;
};

/** Fork + socketpair channels: one forked worker per shard. */
class ForkTransport final : public Transport
{
  public:
    explicit ForkTransport(const isa::Program &program)
        : program(program)
    {}

    const char *name() const override { return "fork"; }
    std::vector<int>
    establish(const FleetIdentity &id,
              const std::vector<WorkerConfig> &configs,
              const std::atomic<bool> *stopFlag) override;
    void closeChannel(uint32_t shard) override;
    void shutdown(int reapTimeoutMs) override;

  private:
    const isa::Program &program;
    std::vector<proc::ChildProcess> children;
};

/** Coordinator listens; `explore --connect` workers dial in. */
class TcpTransport final : public Transport
{
  public:
    /**
     * Bind + listen immediately (so port() is answerable before any
     * worker exists).  @p listenSpec is `host:port`; an empty host
     * means every interface, port 0 picks an ephemeral port.
     * @p status receives human progress lines; may be null.
     */
    TcpTransport(const std::string &listenSpec,
                 std::ostream *status = nullptr);
    ~TcpTransport() override;

    /** The bound TCP port (resolves port 0). */
    uint16_t port() const { return boundPort; }

    const char *name() const override { return "tcp"; }
    std::vector<int>
    establish(const FleetIdentity &id,
              const std::vector<WorkerConfig> &configs,
              const std::atomic<bool> *stopFlag) override;
    int acceptFd() const override { return listenSock; }
    bool supportsReconnect() const override { return true; }
    void prepareResume(const FleetIdentity &id) override;
    std::optional<PeerJoin>
    acceptPeer(const std::function<bool(uint32_t, bool)> &mayJoin)
        override;
    void closeChannel(uint32_t shard) override;
    void shutdown(int reapTimeoutMs) override;

  private:
    std::optional<PeerJoin>
    acceptOne(const std::function<bool(uint32_t, bool)> &mayJoin);

    FleetIdentity identity;
    std::ostream *status = nullptr;
    int listenSock = -1;
    uint16_t boundPort = 0;
    /** Per-shard live fd (-1 = unattached). */
    std::vector<int> slots;
    /** Slots that have ever been held (rejoin vs first join). */
    std::vector<bool> assigned;
};

/**
 * Worker side: dial `host:port` (blocking connect).  Returns the
 * connected fd; throws FatalError on resolve/connect failure (the
 * caller owns retry policy).
 */
int tcpDial(const std::string &hostPort);

} // namespace pe::fleet

#endif // PE_FLEET_TRANSPORT_HH
