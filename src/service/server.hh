/**
 * @file
 * The `mica serve` daemon: a concurrent similarity-query server over
 * line-delimited JSON.
 *
 * Threading model — N event loops, inline execution, zero reader
 * locks:
 *
 *  - ServerOptions::jobs **event loops** (Server::run's thread is
 *    loop 0; the others are threads run() starts and joins). Loop 0
 *    also owns the listener: it accepts and deals connections to the
 *    loops round-robin. A connection stays on its loop for life, and
 *    the loop alone reads it, parses each request line, executes it
 *    against the snapshot, serializes the reply and sends it, all on
 *    its own thread. Sockets are nonblocking.
 *
 *  - **Backpressure.** A loop answers at most one line per connection
 *    per pass, and reads a connection only while it has no complete
 *    line buffered and no unflushed reply. Replies stay in request
 *    order per client, a client that does not read its replies stops
 *    being read, and different connections on different loops run
 *    concurrently.
 *
 *  - Queries read the current snapshot via SnapshotHolder::get(): an
 *    atomic shared_ptr load, no lock, never blocked by a writer. Its
 *    answer tables make `redundant` and `suites` as cheap as a kNN.
 *
 *  - **reindex** is the one long job. It runs on a background thread
 *    (one at a time), which builds a whole new ServerSnapshot while
 *    every loop keeps answering from the old one, and publishes it
 *    with one atomic pointer swap — a reader sees the old snapshot or
 *    the new one, complete either way, never a mix. The reindexing
 *    connection reads nothing more until its reply arrives.
 *
 *  - Each loop has one mailbox and one self-pipe to wake it. Only two
 *    things cross threads: a new connection's fd (loop 0 → its
 *    loop) and a finished reindex reply (reindex thread → the
 *    connection's loop). The pipe's write end is async-signal-safe,
 *    so signal handlers may call requestStop directly.
 *
 * Failure containment: the serve.accept/read/write failpoints (and
 * real socket errors) quarantine exactly one connection — close it,
 * count it (serve.conn.quarantined), keep serving everyone else. A
 * request line that fails to parse gets an error *reply*, not a
 * dropped connection; a line that exceeds kMaxLineBytes gets a
 * line_too_long reply and then the connection is closed (the buffer
 * is the resource being protected).
 *
 * Shutdown (SIGINT/SIGTERM → requestStop): stop accepting; each loop
 * answers the lines it holds, waits for a pending reindex reply and
 * flushes every reply (bounded by drainDeadlineMs), closes its
 * connections; run() joins the loops and returns 0.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "service/query_engine.hh"

namespace mica::service
{

/** One parsed listen/connect endpoint. */
struct SocketAddress
{
    bool isUnix = false;
    std::string path;          ///< unix: filesystem path
    std::string host;          ///< tcp: numeric host (default loopback)
    uint16_t port = 0;         ///< tcp: port (0 = ephemeral)
};

/**
 * Parse an address spec: "unix:PATH", "tcp:HOST:PORT", "tcp:PORT",
 * "HOST:PORT", "PORT", or a bare path containing '/' (unix).
 * @return false with *err naming the problem
 */
bool parseAddress(const std::string &spec, SocketAddress *out,
                  std::string *err);

/**
 * The one mutable cell of the service: the current snapshot pointer.
 * get() is an atomic load of a shared_ptr — wait-free for readers —
 * and swap() is an atomic store, so publication is a single pointer
 * move and old readers keep their (complete, immutable) snapshot
 * alive until they drop it.
 */
class SnapshotHolder
{
  public:
    explicit SnapshotHolder(
        std::shared_ptr<const ServerSnapshot> initial);

    std::shared_ptr<const ServerSnapshot> get() const;

    void swap(std::shared_ptr<const ServerSnapshot> next);

  private:
    // C++17: free atomic_load/atomic_store on shared_ptr (the
    // std::atomic<shared_ptr> specialization is C++20).
    std::shared_ptr<const ServerSnapshot> snap_;
};

/** Daemon knobs, all optional beyond the address. */
struct ServerOptions
{
    std::string address = "unix:mica.sock";
    size_t jobs = 0;               ///< event loops (0 = hardware)
    size_t maxConnections = 256;   ///< accepted clients at once

    /** Drain budget for graceful shutdown, milliseconds. */
    uint64_t drainDeadlineMs = 5000;

    /**
     * Live-introspection sink: while serving, rewrite this file
     * (atomically) with obs::metricsJson() every metricsIntervalMs.
     * Empty path or zero interval disables the periodic flush; the
     * CLI's --metrics epilogue still writes the final state either
     * way.
     */
    std::string metricsPath;
    uint64_t metricsIntervalMs = 0;
};

class Server
{
  public:
    /**
     * @param opt      listen address and sizing
     * @param initial  the startup snapshot (generation 0)
     * @param cfg      collection config, kept for `reindex` rebuilds
     * @param sc       space knobs, kept for `reindex` rebuilds
     * @param collect  dataset-collection hook (CLI quarantine wrapper)
     */
    Server(ServerOptions opt,
           std::shared_ptr<const ServerSnapshot> initial,
           experiments::DatasetConfig cfg, SpaceChoice sc,
           CollectFn collect = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind + listen. Separate from run() so callers learn the bound
     * address (ephemeral TCP ports, tests) before serving.
     * @return false with *err on bind/listen failure
     */
    bool start(std::string *err);

    /** Address actually bound ("unix:PATH" / "tcp:HOST:PORT"). */
    std::string boundAddress() const;

    /**
     * Serve until requestStop(). Blocks the calling thread, which
     * runs loop 0 (the CLI runs this on main; tests run it on a
     * std::thread), and joins the other loops before returning.
     * @return 0 on clean drain, 1 when a loop's poll failed
     */
    int run();

    /**
     * Ask the loops to shut down gracefully. Async-signal-safe (one
     * write() to each loop's self-pipe) and idempotent.
     */
    void requestStop() noexcept;

    /** Current snapshot accessor (tests; loops use it per request). */
    std::shared_ptr<const ServerSnapshot> snapshot() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace mica::service
