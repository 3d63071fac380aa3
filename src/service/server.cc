#include "service/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hh"
#include "util/failpoint.hh"

namespace mica::service
{

// ---------------------------------------------------------------------------
// Address parsing

bool
parseAddress(const std::string &spec, SocketAddress *out,
             std::string *err)
{
    *out = SocketAddress();
    auto fail = [&](const std::string &m) {
        if (err)
            *err = "bad address '" + spec + "': " + m;
        return false;
    };
    if (spec.empty())
        return fail("empty");

    std::string rest = spec;
    if (rest.rfind("unix:", 0) == 0) {
        out->isUnix = true;
        out->path = rest.substr(5);
        if (out->path.empty())
            return fail("empty unix path");
        if (out->path.size() >= sizeof(sockaddr_un{}.sun_path))
            return fail("unix path too long");
        return true;
    }
    if (rest.rfind("tcp:", 0) == 0)
        rest = rest.substr(4);
    else if (rest.find('/') != std::string::npos) {
        // A bare path is a unix socket; no TCP endpoint contains '/'.
        out->isUnix = true;
        out->path = rest;
        if (out->path.size() >= sizeof(sockaddr_un{}.sun_path))
            return fail("unix path too long");
        return true;
    }

    const size_t colon = rest.rfind(':');
    std::string host = colon == std::string::npos
        ? std::string()
        : rest.substr(0, colon);
    const std::string portStr =
        colon == std::string::npos ? rest : rest.substr(colon + 1);
    if (portStr.empty() ||
        portStr.find_first_not_of("0123456789") != std::string::npos)
        return fail("port must be numeric");
    const unsigned long port = std::strtoul(portStr.c_str(), nullptr, 10);
    if (port > 65535)
        return fail("port out of range");
    out->isUnix = false;
    out->host = host.empty() ? "127.0.0.1" : host;
    out->port = static_cast<uint16_t>(port);
    return true;
}

// ---------------------------------------------------------------------------
// SnapshotHolder

SnapshotHolder::SnapshotHolder(
    std::shared_ptr<const ServerSnapshot> initial)
    : snap_(std::move(initial))
{
}

std::shared_ptr<const ServerSnapshot>
SnapshotHolder::get() const
{
    return std::atomic_load(&snap_);
}

void
SnapshotHolder::swap(std::shared_ptr<const ServerSnapshot> next)
{
    std::atomic_store(&snap_, std::move(next));
}

// ---------------------------------------------------------------------------
// Server

namespace
{

bool
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Apply a fired failpoint decision to a socket op: Delay sleeps and
 *  proceeds, everything else becomes a synthetic errno failure. */
bool
failDecisionFails(const util::FailDecision &d)
{
    if (d.op == util::FailOp::Delay) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(d.param));
        return false;
    }
    errno = d.err != 0 ? d.err : EIO;
    return true;
}

/** Every op, in enum order: telemetry tables are indexed by Op. */
constexpr Op kOps[] = {Op::Ping,   Op::Stats,     Op::Profile,
                       Op::Knn,    Op::Radius,    Op::Redundant,
                       Op::Suites, Op::Reindex};

/** @return the per-op request counter for @p op (static registry). */
obs::Counter &
opCounter(Op op)
{
    static std::vector<obs::Counter> counters = [] {
        std::vector<obs::Counter> c;
        for (Op o : kOps)
            c.emplace_back(std::string("serve.request.op.") + opName(o));
        return c;
    }();
    return counters[static_cast<size_t>(op)];
}

/**
 * Where one query op's time goes, named like micabench's layers, in
 * nanoseconds: most phases take well under a microsecond.
 */
struct PhaseHistograms
{
    obs::Histogram parse;
    obs::Histogram execute;
    obs::Histogram serialize;

    explicit PhaseHistograms(const std::string &op)
        : parse("serve." + op + ".parse_ns"),
          execute("serve." + op + ".execute_ns"),
          serialize("serve." + op + ".serialize_ns")
    {
    }
};

/** @return the phase histograms of a query op (reindex has none). */
PhaseHistograms &
opPhases(Op op)
{
    static std::vector<PhaseHistograms> table = [] {
        std::vector<PhaseHistograms> t;
        for (Op o : kOps) {
            if (o != Op::Reindex)
                t.emplace_back(opName(o));
        }
        return t;
    }();
    return table[static_cast<size_t>(op)];
}

/**
 * Serialize an envelope as one reply line; count it in
 * serve.request.error when it failed and its time since @p t0.
 */
std::string
replyLine(const JsonValue &resp, uint64_t t0)
{
    static obs::Counter errors("serve.request.error");
    static obs::Histogram latency("serve.request.us");
    // Every envelope carries "ok" (makeResponse/makeError).
    if (!resp.find("ok")->asBool())
        errors.add(1);
    std::string line = serializeResponse(resp);
    line += '\n';
    latency.record((obs::nowNs() - t0) / 1000);
    return line;
}

/** One accepted client, owned by one loop for its whole life. */
struct Connection
{
    Connection() = default;
    Connection(const Connection &) = delete;   // its address is mailed
    Connection &operator=(const Connection &) = delete;

    int fd = -1;
    std::string in;            ///< request bytes not yet answered
    std::string out;           ///< reply bytes awaiting flush
    bool sawEof = false;       ///< client half-closed its write side
    bool closeAfterFlush = false;
    bool awaitingReindex = false;   ///< reply due from the reindex thread
    bool dead = false;         ///< closed; reaped once no reply is due

    bool hasLine() const { return in.find('\n') != std::string::npos; }

    /** Whether the loop has a line (or an EOF) of this client to act on. */
    bool
    answerable() const
    {
        return !dead && out.empty() && !awaitingReindex &&
            !closeAfterFlush && (sawEof || hasLine());
    }

    /** Whether to read more: nothing buffered or owed, stream open. */
    bool
    readable() const
    {
        return out.empty() && !awaitingReindex && !closeAfterFlush &&
            !sawEof && !hasLine();
    }
};

/** What crosses threads to a loop: a client to adopt or a reply. */
struct Mail
{
    int fd = -1;                   ///< a new connection, or -1
    Connection *conn = nullptr;    ///< the reindex reply's connection
    std::string reply;
};

/** One event loop: its connections, its mailbox and its self-pipe. */
struct Loop
{
    Loop() = default;
    Loop(const Loop &) = delete;   // owns fds; its address is mailed to
    Loop &operator=(const Loop &) = delete;

    int wakeRead = -1;
    int wakeWrite = -1;
    std::mutex mu;                 ///< guards mailbox
    std::vector<Mail> mailbox;
    std::vector<std::unique_ptr<Connection>> conns;   ///< loop thread only

    ~Loop()
    {
        // run() closes every connection, mailed ones included.
        if (wakeRead >= 0)
            ::close(wakeRead);
        if (wakeWrite >= 0)
            ::close(wakeWrite);
    }

    void
    wake() noexcept
    {
        if (wakeWrite < 0)
            return;
        const char b = 'w';
        // A full pipe already guarantees a pending wakeup.
        [[maybe_unused]] ssize_t n = ::write(wakeWrite, &b, 1);
    }

    void
    post(Mail m)
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            mailbox.push_back(std::move(m));
        }
        wake();
    }
};

} // namespace

struct Server::Impl
{
    ServerOptions opt;
    SocketAddress addr;
    SnapshotHolder holder;
    experiments::DatasetConfig cfg;
    SpaceChoice sc;
    CollectFn collect;

    int listenFd = -1;         ///< loop 0 only, once run() starts
    std::string bound;         ///< canonical bound-address string
    bool unlinkOnClose = false;

    std::vector<std::unique_ptr<Loop>> loops;   ///< fixed by start()
    size_t nextLoop = 0;       ///< round-robin cursor (loop 0)
    std::atomic<size_t> live{0};   ///< open connections, all loops
    std::atomic<bool> stopping{false};
    std::atomic<bool> reindexing{false};
    std::atomic<uint64_t> generation{0};

    /**
     * The reindex thread. Started and joined only by the loop that
     * wins `reindexing`, which it clears when it delivers the reply,
     * and joined last by run() once every loop has exited.
     */
    std::thread reindexer;

    Impl(ServerOptions o, std::shared_ptr<const ServerSnapshot> snap,
         experiments::DatasetConfig c, SpaceChoice s, CollectFn col)
        : opt(std::move(o)), holder(std::move(snap)),
          cfg(std::move(c)), sc(std::move(s)), collect(std::move(col))
    {
    }

    ~Impl()
    {
        if (reindexer.joinable())
            reindexer.join();
        if (listenFd >= 0)
            ::close(listenFd);
        if (unlinkOnClose)
            ::unlink(addr.path.c_str());
    }

    void
    wakeAll() noexcept
    {
        for (const auto &lp : loops)
            lp->wake();
    }

    bool start(std::string *err);
    int run();
    int runLoop(Loop &lp);
    void takeMail(Loop &lp);
    void acceptClients();
    void readClient(Connection &c);
    void answerOne(Loop &lp, Connection &c);
    void respond(Loop &lp, Connection &c, const std::string &line);
    bool startReindex(Loop &lp, Connection &c, const Request &req,
                      uint64_t t0);
    JsonValue rebuild(const Request &req);
    void flushClient(Connection &c);
    void closeConnection(Connection &c, bool quarantine);
    void closeAllConnections(Loop &lp);
};

bool
Server::Impl::start(std::string *err)
{
    auto fail = [&](const char *what) {
        if (err)
            *err = std::string(what) + ": " + std::strerror(errno);
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
        return false;
    };

    if (!parseAddress(opt.address, &addr, err))
        return false;

    const size_t nLoops = opt.jobs
        ? opt.jobs
        : std::max(1u, std::thread::hardware_concurrency());
    for (size_t i = 0; i < nLoops; ++i) {
        auto lp = std::make_unique<Loop>();
        int pipeFds[2] = {-1, -1};
        if (pipe(pipeFds) != 0)
            return fail("pipe");
        lp->wakeRead = pipeFds[0];
        lp->wakeWrite = pipeFds[1];
        setNonBlocking(lp->wakeRead);
        setNonBlocking(lp->wakeWrite);
        loops.push_back(std::move(lp));
    }

    if (addr.isUnix) {
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd < 0)
            return fail("socket");
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        std::strncpy(sa.sun_path, addr.path.c_str(),
                     sizeof(sa.sun_path) - 1);
        // A stale socket file from a dead daemon would make bind fail
        // forever; remove it only when nothing is listening there.
        ::unlink(addr.path.c_str());
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&sa),
                   sizeof(sa)) != 0)
            return fail("bind");
        unlinkOnClose = true;
        bound = "unix:" + addr.path;
    } else {
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            return fail("socket");
        const int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in sa{};
        sa.sin_family = AF_INET;
        sa.sin_port = htons(addr.port);
        if (inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
            errno = EINVAL;
            return fail("host");
        }
        if (::bind(listenFd, reinterpret_cast<sockaddr *>(&sa),
                   sizeof(sa)) != 0)
            return fail("bind");
        sockaddr_in actual{};
        socklen_t len = sizeof(actual);
        ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&actual),
                      &len);
        addr.port = ntohs(actual.sin_port);
        bound = "tcp:" + addr.host + ":" + std::to_string(addr.port);
    }
    if (::listen(listenFd, 64) != 0)
        return fail("listen");
    if (!setNonBlocking(listenFd))
        return fail("fcntl");
    return true;
}

void
Server::Impl::closeConnection(Connection &c, bool quarantine)
{
    static obs::Counter quarantined("serve.conn.quarantined");
    static obs::Gauge open("serve.conn.open");
    if (c.dead)
        return;
    if (quarantine)
        quarantined.add(1);
    open.add(-1);
    live.fetch_sub(1);
    ::close(c.fd);
    c.fd = -1;
    c.dead = true;
}

void
Server::Impl::closeAllConnections(Loop &lp)
{
    // Shutdown teardown: every connection still live leaves through
    // the same gauge that counted it in, so serve.conn.open reads 0
    // after any exit, not just a quiet one.
    for (auto &c : lp.conns)
        closeConnection(*c, false);
}

void
Server::Impl::takeMail(Loop &lp)
{
    std::vector<Mail> mail;
    {
        std::lock_guard<std::mutex> lk(lp.mu);
        mail.swap(lp.mailbox);
    }
    for (Mail &m : mail) {
        if (m.fd >= 0) {
            auto conn = std::make_unique<Connection>();
            conn->fd = m.fd;
            lp.conns.push_back(std::move(conn));
            continue;
        }
        Connection &c = *m.conn;
        c.awaitingReindex = false;
        if (!c.dead)
            c.out = std::move(m.reply);
        reindexing.store(false);
    }
}

void
Server::Impl::acceptClients()
{
    static util::Failpoint fp("serve.accept");
    static obs::Counter accepted("serve.conn.accepted");
    static obs::Counter rejected("serve.conn.rejected");
    static obs::Gauge open("serve.conn.open");
    for (;;) {
        if (auto d = fp.eval()) {
            if (failDecisionFails(d)) {
                // The would-be client is the casualty, not the daemon:
                // accept it, then drop it.
                const int fd = ::accept(listenFd, nullptr, nullptr);
                rejected.add(1);
                if (fd < 0)
                    return;
                ::close(fd);
                continue;
            }
        }
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;   // EAGAIN (drained) or transient error: move on
        if (live.load() >= opt.maxConnections) {
            rejected.add(1);
            ::close(fd);
            continue;
        }
        setNonBlocking(fd);
        live.fetch_add(1);
        accepted.add(1);
        open.add(1);
        loops[nextLoop++ % loops.size()]->post({fd, nullptr, {}});
    }
}

void
Server::Impl::readClient(Connection &c)
{
    static util::Failpoint fp("serve.read");
    char buf[4096];
    for (;;) {
        if (auto d = fp.eval()) {
            if (failDecisionFails(d)) {
                closeConnection(c, true);
                return;
            }
        }
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.in.append(buf, static_cast<size_t>(n));
            // Stop at the first complete line: the rest stays in the
            // kernel until this client's lines are answered.
            if (std::memchr(buf, '\n', static_cast<size_t>(n)))
                return;
            if (c.in.size() > kMaxLineBytes) {
                // Reply before closing so the client learns why.
                c.out = serializeResponse(makeError(
                    Request(), ErrorCode::LineTooLong,
                    "request exceeds " + std::to_string(kMaxLineBytes) +
                        " bytes"));
                c.out += '\n';
                c.in.clear();
                c.closeAfterFlush = true;
                return;
            }
            if (n < static_cast<ssize_t>(sizeof(buf)))
                return;
            continue;
        }
        if (n == 0) {
            c.sawEof = true;
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            return;
        closeConnection(c, true);
        return;
    }
}

void
Server::Impl::answerOne(Loop &lp, Connection &c)
{
    if (!c.answerable())
        return;
    for (size_t nl; (nl = c.in.find('\n')) != std::string::npos;) {
        std::string line = c.in.substr(0, nl);
        c.in.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        // Blank keep-alive lines are ignored, like a newline-only
        // probe from `nc`.
        if (!line.empty()) {
            respond(lp, c, line);
            return;
        }
    }
    if (c.sawEof) {
        // Half-closed mid-line: answer the fragment (almost always
        // bad_json) so the client still gets a reply.
        if (!c.in.empty()) {
            std::string line;
            line.swap(c.in);
            respond(lp, c, line);
        }
        c.closeAfterFlush = true;
    }
}

void
Server::Impl::respond(Loop &lp, Connection &c, const std::string &line)
{
    static obs::Counter requests("serve.request.count");
    requests.add(1);
    obs::ObsSpan span("serve.request");
    span.arg("bytes", static_cast<uint64_t>(line.size()));
    const uint64_t t0 = obs::nowNs();
    Request req;
    ErrorCode code = ErrorCode::Internal;
    std::string message;
    if (!parseRequest(line, &req, &code, &message)) {
        c.out = replyLine(makeError(req, code, message), t0);
        return;
    }
    span.arg("op", opName(req.op));
    opCounter(req.op).add(1);
    if (req.op == Op::Reindex) {
        if (!startReindex(lp, c, req, t0))
            c.out = replyLine(makeError(req, ErrorCode::Unavailable,
                                        "a reindex is already running"),
                              t0);
        return;
    }
    const uint64_t t1 = obs::nowNs();
    const JsonValue resp =
        executeRequest(*holder.get(), req, /*serverMode=*/true);
    const uint64_t t2 = obs::nowNs();
    c.out = replyLine(resp, t0);
    PhaseHistograms &phases = opPhases(req.op);
    phases.parse.record(t1 - t0);
    phases.execute.record(t2 - t1);
    phases.serialize.record(obs::nowNs() - t2);
}

bool
Server::Impl::startReindex(Loop &lp, Connection &c, const Request &req,
                           uint64_t t0)
{
    bool expected = false;
    if (!reindexing.compare_exchange_strong(expected, true))
        return false;
    // The previous rebuild's reply was delivered before `reindexing`
    // was cleared, so its thread is done or about to be.
    if (reindexer.joinable())
        reindexer.join();
    c.awaitingReindex = true;
    reindexer = std::thread([this, &lp, conn = &c, req, t0] {
        JsonValue resp;
        try {
            resp = rebuild(req);
        } catch (const std::exception &e) {
            // The client still gets a reply, and `reindexing` clears.
            resp = makeError(req, ErrorCode::Internal, e.what());
        }
        lp.post({-1, conn, replyLine(resp, t0)});
    });
    return true;
}

JsonValue
Server::Impl::rebuild(const Request &req)
{
    static obs::Counter swaps("serve.snapshot.swap");
    // Every loop keeps answering from the current snapshot while this
    // builds; the swap below is the only publication point. Serial
    // build (no pool): the loops keep the other cores.
    const uint64_t gen = generation.load() + 1;
    std::string err;
    auto next = buildServerSnapshot(cfg, sc, nullptr, gen, collect, &err);
    if (!next)
        return makeError(req, ErrorCode::Internal, err);
    holder.swap(next);
    generation.store(gen);
    swaps.add(1);

    JsonValue result = JsonValue::object();
    result.set("generation", JsonValue::number(gen));
    result.set("benchmarks",
               JsonValue::number(
                   static_cast<uint64_t>(next->ds.benchmarks.size())));
    return makeResponse(req, std::move(result));
}

void
Server::Impl::flushClient(Connection &c)
{
    static util::Failpoint fp("serve.write");
    while (!c.out.empty()) {
        if (auto d = fp.eval()) {
            if (failDecisionFails(d)) {
                closeConnection(c, true);
                return;
            }
        }
        const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                                 MSG_NOSIGNAL);
        if (n > 0) {
            c.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            return;   // kernel buffer full; POLLOUT will resume
        closeConnection(c, true);
        return;
    }
    if (c.closeAfterFlush && !c.awaitingReindex)
        closeConnection(c, false);
}

int
Server::Impl::runLoop(Loop &lp)
{
    using Clock = std::chrono::steady_clock;
    const bool owner = &lp == loops.front().get();
    bool draining = false;
    Clock::time_point drainStart{};
    const bool periodicMetrics = owner && !opt.metricsPath.empty() &&
        opt.metricsIntervalMs > 0;
    Clock::time_point lastFlush = Clock::now();
    std::vector<pollfd> fds;
    std::vector<Connection *> who;

    takeMail(lp);
    for (;;) {
        if (stopping.load() && !draining) {
            draining = true;
            drainStart = Clock::now();
            if (owner && listenFd >= 0) {
                ::close(listenFd);
                listenFd = -1;
            }
        }
        if (draining) {
            const bool pending = std::any_of(
                lp.conns.begin(), lp.conns.end(),
                [](const std::unique_ptr<Connection> &c) {
                    return !c->dead &&
                        (c->awaitingReindex || !c->out.empty() ||
                         c->answerable());
                });
            const auto waited =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - drainStart)
                    .count();
            if (!pending ||
                waited >= static_cast<int64_t>(opt.drainDeadlineMs)) {
                closeAllConnections(lp);
                return 0;
            }
        }

        fds.clear();
        who.clear();
        fds.push_back({lp.wakeRead, POLLIN, 0});
        who.push_back(nullptr);
        if (owner && listenFd >= 0) {
            fds.push_back({listenFd, POLLIN, 0});
            who.push_back(nullptr);
        }
        bool ready = false;   // some client already has work to answer
        for (auto &c : lp.conns) {
            if (c->dead)
                continue;
            ready = ready || c->answerable();
            const short ev = static_cast<short>(
                (c->readable() ? POLLIN : 0) |
                (c->out.empty() ? 0 : POLLOUT));
            if (ev == 0)
                continue;
            fds.push_back({c->fd, ev, 0});
            who.push_back(c.get());
        }

        int timeoutMs = ready ? 0 : draining ? 20 : 1000;
        if (periodicMetrics && !draining) {
            const auto sinceFlush =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - lastFlush)
                    .count();
            const int64_t untilFlush =
                static_cast<int64_t>(opt.metricsIntervalMs) - sinceFlush;
            if (untilFlush <= 0) {
                // Best-effort: a transiently unwritable sink skips one
                // interval rather than killing the daemon.
                obs::writeMetricsJson(opt.metricsPath);
                lastFlush = Clock::now();
            } else if (untilFlush < timeoutMs) {
                timeoutMs = static_cast<int>(untilFlush);
            }
        }
        const int rc = ::poll(fds.data(), fds.size(), timeoutMs);
        if (rc < 0 && errno != EINTR) {
            closeAllConnections(lp);
            return 1;
        }

        if (rc > 0) {
            for (size_t i = 0; i < fds.size(); ++i) {
                if (fds[i].revents == 0)
                    continue;
                if (fds[i].fd == lp.wakeRead) {
                    char buf[64];
                    while (::read(lp.wakeRead, buf, sizeof(buf)) > 0) {
                    }
                    takeMail(lp);
                    continue;
                }
                if (owner && fds[i].fd == listenFd) {
                    acceptClients();
                    continue;
                }
                Connection *c = who[i];
                if (!c || c->dead)
                    continue;
                if (fds[i].revents & (POLLHUP | POLLERR)) {
                    // Peer reset. Anything readable is still drained
                    // below; a pure error means quarantine.
                    if (!(fds[i].revents & (POLLIN | POLLOUT))) {
                        closeConnection(*c, true);
                        continue;
                    }
                }
                if (fds[i].revents & POLLIN)
                    readClient(*c);
                if (!c->dead && (fds[i].revents & POLLOUT))
                    flushClient(*c);
            }
        }

        // Answer at most one line per client, then send what is owed.
        for (auto &c : lp.conns) {
            if (c->dead)
                continue;
            answerOne(lp, *c);
            flushClient(*c);
        }
        lp.conns.erase(
            std::remove_if(lp.conns.begin(), lp.conns.end(),
                           [](const std::unique_ptr<Connection> &c) {
                               return c->dead && !c->awaitingReindex;
                           }),
            lp.conns.end());
    }
}

int
Server::Impl::run()
{
    if (loops.empty())
        return 1;
    std::vector<int> rcs(loops.size(), 0);
    std::vector<std::thread> others;
    for (size_t i = 1; i < loops.size(); ++i)
        others.emplace_back(
            [this, &rcs, i] { rcs[i] = runLoop(*loops[i]); });
    rcs[0] = runLoop(*loops[0]);
    // Loop 0 returns on a drain or a failure; either way the rest stop.
    stopping.store(true);
    wakeAll();
    for (auto &t : others)
        t.join();
    if (reindexer.joinable())
        reindexer.join();
    // A client dealt or a reply posted after its loop had exited.
    for (auto &lp : loops) {
        takeMail(*lp);
        closeAllConnections(*lp);
    }
    return *std::max_element(rcs.begin(), rcs.end());
}

Server::Server(ServerOptions opt,
               std::shared_ptr<const ServerSnapshot> initial,
               experiments::DatasetConfig cfg, SpaceChoice sc,
               CollectFn collect)
    : impl_(std::make_unique<Impl>(std::move(opt), std::move(initial),
                                   std::move(cfg), std::move(sc),
                                   std::move(collect)))
{
}

Server::~Server() = default;

bool
Server::start(std::string *err)
{
    return impl_->start(err);
}

std::string
Server::boundAddress() const
{
    return impl_->bound;
}

int
Server::run()
{
    return impl_->run();
}

void
Server::requestStop() noexcept
{
    impl_->stopping.store(true);
    impl_->wakeAll();
}

std::shared_ptr<const ServerSnapshot>
Server::snapshot() const
{
    return impl_->holder.get();
}

} // namespace mica::service
