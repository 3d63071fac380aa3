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
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"
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

/** @return the per-op request counter for @p op (static registry). */
obs::Counter &
opCounter(Op op)
{
    static obs::Counter ping("serve.request.op.ping");
    static obs::Counter stats("serve.request.op.stats");
    static obs::Counter profile("serve.request.op.profile");
    static obs::Counter knn("serve.request.op.knn");
    static obs::Counter radius("serve.request.op.radius");
    static obs::Counter redundant("serve.request.op.redundant");
    static obs::Counter suites("serve.request.op.suites");
    static obs::Counter reindex("serve.request.op.reindex");
    switch (op) {
    case Op::Ping:
        return ping;
    case Op::Stats:
        return stats;
    case Op::Profile:
        return profile;
    case Op::Knn:
        return knn;
    case Op::Radius:
        return radius;
    case Op::Redundant:
        return redundant;
    case Op::Suites:
        return suites;
    case Op::Reindex:
        break;
    }
    return reindex;
}

/** One accepted client. Sockets are touched only by the event loop;
 *  workers append to `out` under `mu` and wake the loop. */
struct Connection
{
    int fd = -1;
    std::string in;            ///< unparsed request bytes
    std::atomic<bool> busy{false};   ///< a request is on a worker
    bool sawEof = false;       ///< client half-closed its write side
    bool closeAfterFlush = false;
    bool dead = false;         ///< quarantined; reap when not busy

    std::mutex mu;
    std::string out;           ///< response bytes awaiting flush
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

    int listenFd = -1;
    int wakeRead = -1;
    int wakeWrite = -1;
    std::string bound;         ///< canonical bound-address string
    bool unlinkOnClose = false;

    std::unique_ptr<pipeline::ThreadPool> pool;
    std::vector<std::unique_ptr<Connection>> conns;
    std::atomic<bool> stopping{false};
    std::atomic<bool> reindexing{false};
    std::atomic<uint64_t> generation{0};

    Impl(ServerOptions o, std::shared_ptr<const ServerSnapshot> snap,
         experiments::DatasetConfig c, SpaceChoice s, CollectFn col)
        : opt(std::move(o)), holder(std::move(snap)),
          cfg(std::move(c)), sc(std::move(s)), collect(std::move(col))
    {
    }

    ~Impl()
    {
        // Workers reference connections; they must retire first.
        pool.reset();
        for (auto &c : conns) {
            if (c->fd >= 0)
                ::close(c->fd);
        }
        if (listenFd >= 0)
            ::close(listenFd);
        if (wakeRead >= 0)
            ::close(wakeRead);
        if (wakeWrite >= 0)
            ::close(wakeWrite);
        if (unlinkOnClose)
            ::unlink(addr.path.c_str());
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

    bool start(std::string *err);
    int run();
    void acceptClients();
    void readClient(Connection &c);
    void flushClient(Connection &c);
    void dispatchLines(Connection &c);
    void submitRequest(Connection &c, std::string line);
    JsonValue handleReindex(const Request &req);
    void quarantine(Connection &c);
    void closeAllConnections();
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

    int pipeFds[2] = {-1, -1};
    if (pipe(pipeFds) != 0)
        return fail("pipe");
    wakeRead = pipeFds[0];
    wakeWrite = pipeFds[1];
    setNonBlocking(wakeRead);
    setNonBlocking(wakeWrite);

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

    pool = std::make_unique<pipeline::ThreadPool>(
        static_cast<unsigned>(opt.jobs));
    return true;
}

void
Server::Impl::quarantine(Connection &c)
{
    static obs::Counter quarantined("serve.conn.quarantined");
    static obs::Gauge open("serve.conn.open");
    if (c.dead)
        return;
    quarantined.add(1);
    open.add(-1);
    if (c.fd >= 0) {
        ::close(c.fd);
        c.fd = -1;
    }
    c.dead = true;
}

void
Server::Impl::closeAllConnections()
{
    // Shutdown teardown: every connection still live leaves through
    // the same gauge that counted it in, so serve.conn.open reads 0
    // after any exit, not just a quiet one.
    static obs::Gauge open("serve.conn.open");
    for (auto &c : conns) {
        if (c->dead)
            continue;
        open.add(-1);
        if (c->fd >= 0) {
            ::close(c->fd);
            c->fd = -1;
        }
        c->dead = true;
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
        size_t live = 0;
        for (const auto &c : conns) {
            if (!c->dead)
                ++live;
        }
        if (live >= opt.maxConnections) {
            rejected.add(1);
            ::close(fd);
            continue;
        }
        setNonBlocking(fd);
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conns.push_back(std::move(conn));
        accepted.add(1);
        open.add(1);
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
                quarantine(c);
                return;
            }
        }
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            c.in.append(buf, static_cast<size_t>(n));
            if (c.in.size() > kMaxLineBytes &&
                c.in.find('\n') == std::string::npos) {
                // Reply before closing so the client learns why.
                Request req;
                std::lock_guard<std::mutex> lk(c.mu);
                c.out += serializeResponse(makeError(
                    req, ErrorCode::LineTooLong,
                    "request exceeds " +
                        std::to_string(kMaxLineBytes) + " bytes"));
                c.out += '\n';
                c.in.clear();
                c.closeAfterFlush = true;
                return;
            }
            if (n < static_cast<ssize_t>(sizeof(buf)))
                break;
            continue;
        }
        if (n == 0) {
            c.sawEof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            break;
        quarantine(c);
        return;
    }
    dispatchLines(c);
}

void
Server::Impl::dispatchLines(Connection &c)
{
    if (c.busy || c.dead || c.closeAfterFlush)
        return;
    const size_t nl = c.in.find('\n');
    if (nl != std::string::npos) {
        std::string line = c.in.substr(0, nl);
        c.in.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty()) {
            // Blank keep-alive lines are ignored, like a newline-only
            // probe from `nc`.
            dispatchLines(c);
            return;
        }
        submitRequest(c, std::move(line));
        return;
    }
    if (c.sawEof) {
        if (!c.in.empty()) {
            // Half-closed mid-line: answer the fragment (almost
            // always bad_json) so the client still gets a reply.
            std::string line;
            line.swap(c.in);
            submitRequest(c, std::move(line));
            c.closeAfterFlush = true;
            return;
        }
        std::lock_guard<std::mutex> lk(c.mu);
        c.closeAfterFlush = true;
    }
}

void
Server::Impl::submitRequest(Connection &c, std::string line)
{
    static obs::Counter requests("serve.request.count");
    static obs::Counter errors("serve.request.error");
    static obs::Histogram latency("serve.request.us");
    c.busy = true;
    Connection *conn = &c;
    pool->submit([this, conn, line = std::move(line)] {
        requests.add(1);
        const uint64_t t0 = obs::nowNs();
        std::string reply;
        {
            obs::ObsSpan span("serve.request");
            span.arg("bytes", static_cast<uint64_t>(line.size()));
            Request req;
            ErrorCode code = ErrorCode::Internal;
            std::string message;
            JsonValue resp;
            if (!parseRequest(line, &req, &code, &message)) {
                resp = makeError(req, code, message);
            } else if (req.op == Op::Reindex) {
                span.arg("op", opName(req.op));
                opCounter(req.op).add(1);
                resp = handleReindex(req);
            } else {
                span.arg("op", opName(req.op));
                opCounter(req.op).add(1);
                const auto snap = holder.get();
                resp = executeRequest(*snap, req, /*serverMode=*/true);
            }
            // Every envelope carries "ok" (makeResponse/makeError).
            if (!resp.find("ok")->asBool())
                errors.add(1);
            reply = serializeResponse(resp);
        }
        latency.record((obs::nowNs() - t0) / 1000);
        {
            std::lock_guard<std::mutex> lk(conn->mu);
            conn->out += reply;
            conn->out += '\n';
            conn->busy = false;
        }
        wake();
    });
}

JsonValue
Server::Impl::handleReindex(const Request &req)
{
    static obs::Counter swaps("serve.snapshot.swap");
    bool expected = false;
    if (!reindexing.compare_exchange_strong(expected, true)) {
        return makeError(req, ErrorCode::Unavailable,
                         "a reindex is already running");
    }
    // Rebuild on this worker while every other worker keeps answering
    // from the current snapshot; the swap below is the only publication
    // point. Serial build (no pool): the query pool must stay free for
    // queries, and nested parallelBlocks is not allowed anyway.
    const uint64_t gen = generation.load() + 1;
    std::string err;
    auto next = buildServerSnapshot(cfg, sc, nullptr, gen, collect, &err);
    if (!next) {
        reindexing.store(false);
        return makeError(req, ErrorCode::Internal, err);
    }
    holder.swap(next);
    generation.store(gen);
    swaps.add(1);
    reindexing.store(false);

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
    std::unique_lock<std::mutex> lk(c.mu);
    while (!c.out.empty()) {
        if (auto d = fp.eval()) {
            if (failDecisionFails(d)) {
                lk.unlock();
                quarantine(c);
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
        lk.unlock();
        quarantine(c);
        return;
    }
    if (c.closeAfterFlush && !c.busy) {
        static obs::Gauge open("serve.conn.open");
        open.add(-1);
        ::close(c.fd);
        c.fd = -1;
        c.dead = true;
    }
}

int
Server::Impl::run()
{
    using Clock = std::chrono::steady_clock;
    bool draining = false;
    Clock::time_point drainStart{};
    const bool periodicMetrics =
        !opt.metricsPath.empty() && opt.metricsIntervalMs > 0;
    Clock::time_point lastFlush = Clock::now();

    for (;;) {
        if (stopping.load() && !draining) {
            draining = true;
            drainStart = Clock::now();
            if (listenFd >= 0) {
                ::close(listenFd);
                listenFd = -1;
            }
        }
        if (draining) {
            bool pending = false;
            for (const auto &c : conns) {
                if (c->dead)
                    continue;
                std::lock_guard<std::mutex> lk(c->mu);
                if (c->busy || !c->out.empty())
                    pending = true;
            }
            const auto waited =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - drainStart)
                    .count();
            if (!pending ||
                waited >= static_cast<int64_t>(opt.drainDeadlineMs)) {
                closeAllConnections();
                return 0;
            }
        }

        std::vector<pollfd> fds;
        std::vector<Connection *> who;
        fds.push_back({wakeRead, POLLIN, 0});
        who.push_back(nullptr);
        if (listenFd >= 0) {
            fds.push_back({listenFd, POLLIN, 0});
            who.push_back(nullptr);
        }
        for (auto &c : conns) {
            if (c->dead || c->fd < 0)
                continue;
            short ev = 0;
            // Reading while busy would let one client queue unbounded
            // work; its bytes stay in the kernel until the reply goes.
            if (!c->busy && !c->closeAfterFlush && !c->sawEof)
                ev |= POLLIN;
            {
                std::lock_guard<std::mutex> lk(c->mu);
                if (!c->out.empty() || (c->closeAfterFlush && !c->busy))
                    ev |= POLLOUT;
            }
            if (ev == 0)
                continue;
            fds.push_back({c->fd, ev, 0});
            who.push_back(c.get());
        }

        int timeoutMs = draining ? 20 : 1000;
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
            closeAllConnections();
            return 1;
        }

        if (rc > 0) {
            for (size_t i = 0; i < fds.size(); ++i) {
                if (fds[i].revents == 0)
                    continue;
                if (fds[i].fd == wakeRead) {
                    char buf[64];
                    while (::read(wakeRead, buf, sizeof(buf)) > 0) {
                    }
                    continue;
                }
                if (listenFd >= 0 && fds[i].fd == listenFd) {
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
                        quarantine(*c);
                        continue;
                    }
                }
                if (fds[i].revents & POLLIN)
                    readClient(*c);
                if (c->dead)
                    continue;
                if (fds[i].revents & POLLOUT)
                    flushClient(*c);
            }
        }

        // A worker finishing may have unblocked the next queued line.
        for (auto &c : conns) {
            if (!c->dead && c->fd >= 0) {
                dispatchLines(*c);
                flushClient(*c);
            }
        }
        conns.erase(
            std::remove_if(conns.begin(), conns.end(),
                           [](const std::unique_ptr<Connection> &c) {
                               return c->dead && !c->busy;
                           }),
            conns.end());
    }
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
    impl_->wake();
}

std::shared_ptr<const ServerSnapshot>
Server::snapshot() const
{
    return impl_->holder.get();
}

} // namespace mica::service
