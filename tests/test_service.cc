/**
 * @file
 * Tests for the service layer: address parsing, request validation,
 * the query engine against direct index calls, CLI↔server
 * byte-identity, concurrent snapshot swap (readers see a complete old
 * or a complete new snapshot, never a mix), and wire-protocol fuzz
 * (oversized lines, bad JSON, half-closed sockets get error replies,
 * never a crash).
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/experiments.hh"
#include "index/fingerprint_index.hh"
#include "index/snapshot.hh"
#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/query_engine.hh"
#include "service/server.hh"
#include "stats/rng.hh"

namespace mica::service
{
namespace
{

/** Self-cleaning temp directory. */
struct TempDir
{
    std::string dir;

    TempDir()
    {
        char tmpl[] = "/tmp/mica_test_service_XXXXXX";
        const char *made = mkdtemp(tmpl);
        dir = made ? made : "/tmp/mica_test_service_fallback";
    }

    ~TempDir() { std::filesystem::remove_all(dir); }
};

/**
 * The shared small dataset config: CommBench only, reduced budget,
 * profile store in a per-process temp dir so the first collection
 * pays and every later one is a store hit.
 */
const experiments::DatasetConfig &
testConfig()
{
    static TempDir *cache = new TempDir();
    static experiments::DatasetConfig cfg = [] {
        experiments::DatasetConfig c;
        c.maxInsts = 30000;
        c.suites = {"CommBench"};
        c.cacheDir = cache->dir;
        return c;
    }();
    return cfg;
}

/** One snapshot shared by the engine tests (immutable, so sharing is safe). */
std::shared_ptr<const ServerSnapshot>
testSnapshot()
{
    static std::shared_ptr<const ServerSnapshot> snap = [] {
        std::string err;
        auto s = buildServerSnapshot(testConfig(), SpaceChoice{},
                                     nullptr, 0, {}, &err);
        EXPECT_NE(s, nullptr) << err;
        return s;
    }();
    return snap;
}

/** A synthetic self-consistent snapshot for swap tests. */
std::shared_ptr<const ServerSnapshot>
syntheticSnapshot(size_t rows, uint64_t generation)
{
    Matrix m;
    Rng rng(17 + generation);
    for (size_t r = 0; r < rows; ++r) {
        std::vector<double> v(6);
        for (auto &x : v)
            x = rng.gauss();
        m.appendRow(v);
        m.rowNames.push_back("bench" + std::to_string(r));
    }
    auto s = std::make_shared<ServerSnapshot>();
    s->idx = index::FingerprintIndex::build(m);
    s->space = "mica";
    s->key = "gen:" + std::to_string(generation) + ":" +
             std::to_string(rows);
    s->maxPairDist = static_cast<double>(rows);
    s->generation = generation;
    return s;
}

// ----------------------------------------------------------------------
// Address parsing.
// ----------------------------------------------------------------------

TEST(ServiceAddressTest, ParsesEveryAcceptedForm)
{
    SocketAddress a;
    std::string err;
    ASSERT_TRUE(parseAddress("unix:/tmp/x.sock", &a, &err)) << err;
    EXPECT_TRUE(a.isUnix);
    EXPECT_EQ(a.path, "/tmp/x.sock");

    ASSERT_TRUE(parseAddress("tcp:127.0.0.1:9000", &a, &err)) << err;
    EXPECT_FALSE(a.isUnix);
    EXPECT_EQ(a.host, "127.0.0.1");
    EXPECT_EQ(a.port, 9000);

    ASSERT_TRUE(parseAddress("tcp:9001", &a, &err)) << err;
    EXPECT_EQ(a.host, "127.0.0.1");
    EXPECT_EQ(a.port, 9001);

    ASSERT_TRUE(parseAddress("127.0.0.1:9002", &a, &err)) << err;
    EXPECT_FALSE(a.isUnix);
    EXPECT_EQ(a.port, 9002);

    ASSERT_TRUE(parseAddress("9003", &a, &err)) << err;
    EXPECT_FALSE(a.isUnix);
    EXPECT_EQ(a.port, 9003);

    // A bare path with a slash is a unix socket.
    ASSERT_TRUE(parseAddress("/run/mica.sock", &a, &err)) << err;
    EXPECT_TRUE(a.isUnix);
}

TEST(ServiceAddressTest, RejectsMalformedSpecs)
{
    SocketAddress a;
    std::string err;
    EXPECT_FALSE(parseAddress("", &a, &err));
    EXPECT_FALSE(parseAddress("unix:", &a, &err));
    EXPECT_FALSE(parseAddress("tcp:", &a, &err));
    EXPECT_FALSE(parseAddress("tcp:host:99999", &a, &err));
    EXPECT_FALSE(parseAddress("notaport", &a, &err));
}

// ----------------------------------------------------------------------
// Request validation.
// ----------------------------------------------------------------------

TEST(ServiceProtocolTest, ValidatesRequests)
{
    Request req;
    ErrorCode code;
    std::string msg;

    EXPECT_TRUE(parseRequest("{\"op\":\"ping\"}", &req, &code, &msg));
    EXPECT_EQ(req.op, Op::Ping);

    EXPECT_TRUE(parseRequest(
        "{\"op\":\"knn\",\"bench\":\"a/b.c\",\"k\":3,\"brute\":true}",
        &req, &code, &msg));
    EXPECT_EQ(req.op, Op::Knn);
    EXPECT_EQ(req.bench, "a/b.c");
    EXPECT_EQ(req.k, 3u);   // an unknown field ("brute") is ignored

    EXPECT_FALSE(parseRequest("not json", &req, &code, &msg));
    EXPECT_EQ(code, ErrorCode::BadJson);

    EXPECT_FALSE(parseRequest("[1,2]", &req, &code, &msg));
    EXPECT_EQ(code, ErrorCode::BadJson);

    EXPECT_FALSE(parseRequest("{\"op\":\"teleport\"}", &req, &code,
                              &msg));
    EXPECT_EQ(code, ErrorCode::UnknownOp);

    EXPECT_FALSE(parseRequest("{\"op\":\"knn\"}", &req, &code, &msg));
    EXPECT_EQ(code, ErrorCode::BadRequest);

    EXPECT_FALSE(parseRequest("{\"op\":\"knn\",\"bench\":\"x\","
                              "\"k\":-1}",
                              &req, &code, &msg));
    EXPECT_EQ(code, ErrorCode::BadRequest);

    EXPECT_FALSE(parseRequest("{\"op\":\"radius\",\"bench\":\"x\"}",
                              &req, &code, &msg));
    EXPECT_EQ(code, ErrorCode::BadRequest);
}

TEST(ServiceProtocolTest, IdSurvivesValidationFailure)
{
    Request req;
    ErrorCode code;
    std::string msg;
    ASSERT_FALSE(parseRequest("{\"id\":42,\"op\":\"nope\"}", &req,
                              &code, &msg));
    ASSERT_TRUE(req.hasId);
    const std::string line =
        serializeResponse(makeError(req, code, msg));
    EXPECT_NE(line.find("\"id\":42"), std::string::npos) << line;
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
    EXPECT_NE(line.find("\"unknown_op\""), std::string::npos) << line;
}

// ----------------------------------------------------------------------
// Query engine vs direct index calls.
// ----------------------------------------------------------------------

TEST(ServiceEngineTest, KnnMatchesDirectIndexCall)
{
    auto snap = testSnapshot();
    ASSERT_NE(snap, nullptr);
    ASSERT_GT(snap->idx.size(), 0u);
    const std::string bench = snap->idx.nameOf(0);

    Request req;
    req.op = Op::Knn;
    req.bench = bench;
    req.k = 5;
    const JsonValue resp = executeRequest(*snap, req);
    const JsonValue *ok = resp.find("ok");
    ASSERT_NE(ok, nullptr);
    ASSERT_TRUE(ok->asBool()) << serializeResponse(resp);
    const JsonValue *neighbors = resp.find("result")->find("neighbors");
    ASSERT_NE(neighbors, nullptr);

    const auto direct = snap->idx.knn(0, 5);
    ASSERT_EQ(neighbors->items().size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
        const JsonValue &one = neighbors->items()[i];
        EXPECT_EQ(one.find("bench")->asString(),
                  snap->idx.nameOf(direct[i].id));
        EXPECT_EQ(one.find("dist")->asDouble(), direct[i].dist);
    }
}

TEST(ServiceEngineTest, TreeAndBruteAnswersAgree)
{
    // Older clients may still send a "brute" flag: like any field an
    // op does not read, it must not change the reply.
    auto snap = testSnapshot();
    ASSERT_NE(snap, nullptr);
    const std::string bench = snap->idx.nameOf(1);
    for (const std::string body :
         {"\"op\":\"knn\",\"bench\":\"" + bench + "\",\"k\":4",
          "\"op\":\"radius\",\"bench\":\"" + bench + "\",\"r\":2.5",
          std::string("\"op\":\"redundant\",\"top\":5")}) {
        const std::string plain = executeLine(*snap, "{" + body + "}");
        EXPECT_NE(plain.find("\"ok\":true"), std::string::npos) << plain;
        EXPECT_EQ(executeLine(*snap, "{" + body + ",\"brute\":true}"),
                  plain);
    }
}

TEST(ServiceEngineTest, UnknownBenchAndBadLinesGetErrorEnvelopes)
{
    auto snap = testSnapshot();
    ASSERT_NE(snap, nullptr);
    const std::string miss = executeLine(
        *snap, "{\"op\":\"knn\",\"bench\":\"no/such.bench\"}");
    EXPECT_NE(miss.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(miss.find("\"unknown_bench\""), std::string::npos);

    const std::string garbage = executeLine(*snap, "{{{{");
    EXPECT_NE(garbage.find("\"bad_json\""), std::string::npos);

    // reindex is daemon-only; the one-shot path reports unavailable.
    const std::string reindex =
        executeLine(*snap, "{\"op\":\"reindex\"}");
    EXPECT_NE(reindex.find("\"unavailable\""), std::string::npos);
}

TEST(ServiceEngineTest, StatsReflectsTheSnapshot)
{
    auto snap = testSnapshot();
    ASSERT_NE(snap, nullptr);
    const JsonValue resp = [&] {
        Request req;
        req.op = Op::Stats;
        return executeRequest(*snap, req);
    }();
    const JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("indexed")->asCount(),
              static_cast<int64_t>(snap->idx.size()));
    EXPECT_EQ(result->find("space")->asString(), snap->space);
    EXPECT_EQ(result->find("generation")->asCount(), 0);
}

// ----------------------------------------------------------------------
// Snapshot opening: the stored space is adopted unless one is given.
// ----------------------------------------------------------------------

/** testConfig() over its own cache, so a key-space index stays local. */
experiments::DatasetConfig
privateConfig(const TempDir &dir)
{
    experiments::DatasetConfig cfg = testConfig();
    cfg.cacheDir = dir.dir;
    return cfg;
}

SpaceChoice
givenSpace(const std::string &space)
{
    SpaceChoice sc;
    sc.space = space;
    sc.given = true;
    return sc;
}

TEST(ServiceSnapshotTest, ReopensInTheStoredSpaceUnlessOneIsGiven)
{
    TempDir dir;
    const auto cfg = privateConfig(dir);
    std::string err;
    const auto built =
        buildServerSnapshot(cfg, givenSpace("key"), nullptr, 0, {}, &err);
    ASSERT_NE(built, nullptr) << err;
    EXPECT_EQ(built->space, "key");

    const auto reopened =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(reopened, nullptr) << err;
    EXPECT_EQ(reopened->space, "key");
    EXPECT_EQ(reopened->key, built->key);
    EXPECT_EQ(reopened->idx.fingerprints().data,
              built->idx.fingerprints().data);

    // An explicit choice beats the stored space.
    const auto pinned =
        buildServerSnapshot(cfg, givenSpace("mica"), nullptr, 0, {}, &err);
    ASSERT_NE(pinned, nullptr) << err;
    EXPECT_EQ(pinned->space, "mica");
}

TEST(ServiceSnapshotTest, VersionOneCacheKeepsItsSpaceAndIsRewritten)
{
    TempDir dir;
    const auto cfg = privateConfig(dir);
    std::string err;
    ASSERT_NE(buildServerSnapshot(cfg, givenSpace("key"), nullptr, 0, {},
                                  &err),
              nullptr)
        << err;

    // Mark the file as the previous format: same header, so only the
    // version field changes.
    const std::string path = index::snapshotPath(dir.dir);
    const auto readVersion = [&] {
        uint32_t v = 0;
        std::ifstream in(path, std::ios::binary);
        in.seekg(8);
        in.read(reinterpret_cast<char *>(&v), sizeof(v));
        return v;
    };
    {
        std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
        const uint32_t v1 = 1;
        f.seekp(8);
        f.write(reinterpret_cast<const char *>(&v1), sizeof(v1));
    }
    ASSERT_EQ(readVersion(), 1u);

    const auto snap =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(snap, nullptr) << err;
    EXPECT_EQ(snap->space, "key");
    EXPECT_EQ(readVersion(), index::kSnapshotVersion);
    index::FingerprintIndex reloaded;
    ASSERT_TRUE(index::loadIndexSnapshot(path, snap->key, &reloaded, &err))
        << err;
    EXPECT_EQ(reloaded.fingerprints().data, snap->idx.fingerprints().data);
}

// ----------------------------------------------------------------------
// Concurrent snapshot swap.
// ----------------------------------------------------------------------

/**
 * Readers hammer SnapshotHolder::get() while a writer swaps between
 * two self-consistent snapshots. Every observation must be one of the
 * two complete states — the (generation, key, maxPairDist, size)
 * tuple always internally consistent, never a mix.
 */
void
swapTortureTest(size_t readers)
{
    auto a = syntheticSnapshot(8, 0);
    auto b = syntheticSnapshot(16, 1);
    SnapshotHolder holder(a);
    std::atomic<bool> stop{false};
    std::atomic<size_t> torn{0};

    std::vector<std::thread> pool;
    for (size_t r = 0; r < readers; ++r) {
        pool.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                auto s = holder.get();
                const size_t rows = s->generation == 0 ? 8 : 16;
                const std::string key =
                    "gen:" + std::to_string(s->generation) + ":" +
                    std::to_string(rows);
                if (s->idx.size() != rows || s->key != key ||
                    s->maxPairDist != static_cast<double>(rows))
                    torn.fetch_add(1);
                // The snapshot must stay answerable mid-swap.
                Request req;
                req.op = Op::Knn;
                req.bench = s->idx.nameOf(0);
                req.k = 3;
                const JsonValue resp = executeRequest(*s, req);
                if (!resp.find("ok")->asBool())
                    torn.fetch_add(1);
            }
        });
    }
    for (int i = 0; i < 400; ++i)
        holder.swap(i % 2 == 0 ? b : a);
    stop.store(true);
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(torn.load(), 0u);
}

TEST(ServiceSwapTest, ReadersNeverSeeAMixSingleReader)
{
    swapTortureTest(1);
}

TEST(ServiceSwapTest, ReadersNeverSeeAMixEightReaders)
{
    swapTortureTest(8);
}

// ----------------------------------------------------------------------
// Server end-to-end over a unix socket.
// ----------------------------------------------------------------------

/** A running daemon on a temp unix socket, torn down on scope exit. */
struct RunningServer
{
    TempDir dir;
    std::unique_ptr<Server> server;
    std::thread loop;
    int rc = -1;

    explicit RunningServer(size_t jobs = 2)
    {
        ServerOptions opt;
        opt.address = "unix:" + dir.dir + "/srv.sock";
        opt.jobs = jobs;
        server = std::make_unique<Server>(opt, testSnapshot(),
                                          testConfig(), SpaceChoice{});
        std::string err;
        if (!server->start(&err)) {
            ADD_FAILURE() << "start: " << err;
            return;
        }
        loop = std::thread([this] { rc = server->run(); });
    }

    std::string address() const { return server->boundAddress(); }

    ~RunningServer()
    {
        if (loop.joinable()) {
            server->requestStop();
            loop.join();
            EXPECT_EQ(rc, 0);
        }
    }
};

TEST(ServiceServerTest, AnswersIdenticallyToTheOneShotPath)
{
    RunningServer rs;
    auto snap = testSnapshot();
    const std::string bench = snap->idx.nameOf(0);
    // stats is deliberately absent: a daemon enriches it with live
    // introspection (uptime, per-op counters), so only the other ops
    // keep the byte-identity contract.
    const std::vector<std::string> lines = {
        "{\"op\":\"ping\"}",
        "{\"id\":9,\"op\":\"knn\",\"bench\":\"" + bench +
            "\",\"k\":5}",
        "{\"op\":\"redundant\",\"top\":4}",
        "{\"op\":\"suites\"}",
        "{\"op\":\"nope\"}",
    };
    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(rs.address(), &err)) << err;
    for (const auto &line : lines) {
        std::string reply;
        ASSERT_TRUE(client.request(line, &reply, &err)) << err;
        EXPECT_EQ(reply, executeLine(*snap, line, true)) << line;
    }
}

TEST(ServiceServerTest, DaemonStatsCarriesLiveIntrospection)
{
    RunningServer rs;
    ServiceClient client;
    std::string err;
    ASSERT_TRUE(client.connect(rs.address(), &err)) << err;
    std::string reply;
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", &reply, &err))
        << err;
    JsonValue doc;
    ASSERT_TRUE(parseJson(reply, &doc, &err)) << err;
    ASSERT_TRUE(doc.find("ok") && doc.find("ok")->asBool());
    const JsonValue *result = doc.find("result");
    ASSERT_NE(result, nullptr);
    const JsonValue *uptime = result->find("uptime_s");
    ASSERT_NE(uptime, nullptr);
    const JsonValue *requests = result->find("requests");
    ASSERT_NE(requests, nullptr);
    const JsonValue *byOp = requests->find("by_op");
    ASSERT_NE(byOp, nullptr);
    const JsonValue *statsCount = byOp->find("stats");
    ASSERT_NE(statsCount, nullptr);
    const JsonValue *conns = result->find("connections");
    ASSERT_NE(conns, nullptr);
    const JsonValue *open = conns->find("open");
    ASSERT_NE(open, nullptr);
#if MICA_OBS
    // The block is fed by live telemetry: this reply answers its own
    // stats request and the querying client itself holds a connection
    // right now. Compiled-out telemetry reads everything as zero, so
    // only the structure is asserted on that leg.
    EXPECT_GT(uptime->asDouble(), 0.0);
    EXPECT_GE(statsCount->asDouble(), 1.0);
    EXPECT_GE(open->asDouble(), 1.0);

    // requests.errors counts failed envelopes: three failures (each
    // a different error code) and one success add exactly three.
    const auto errorCount = [&]() -> int64_t {
        std::string r, e;
        JsonValue d;
        if (!client.request("{\"op\":\"stats\"}", &r, &e) ||
            !parseJson(r, &d, &e))
            return -1;
        return d.find("result")->find("requests")->find("errors")
            ->asCount();
    };
    const int64_t before = errorCount();
    ASSERT_GE(before, 0);
    for (const std::string line :
         {std::string("not json"), std::string("{\"op\":\"nope\"}"),
          std::string("{\"op\":\"knn\",\"bench\":\"no/such.bench\"}"),
          "{\"op\":\"knn\",\"bench\":\"" +
              testSnapshot()->idx.nameOf(0) + "\",\"k\":3}"}) {
        ASSERT_TRUE(client.request(line, &reply, &err)) << err;
    }
    EXPECT_EQ(errorCount(), before + 3);
#endif
    // The local one-shot path stays unenriched: no introspection
    // block when the same request runs without a daemon.
    auto snap = testSnapshot();
    JsonValue local;
    ASSERT_TRUE(parseJson(
        executeLine(*snap, "{\"op\":\"stats\"}", false), &local, &err))
        << err;
    const JsonValue *localResult = local.find("result");
    ASSERT_NE(localResult, nullptr);
    EXPECT_EQ(localResult->find("uptime_s"), nullptr);
}

TEST(ServiceServerTest, ConcurrentClientsAllGetAnswers)
{
    RunningServer rs(4);
    const std::string bench = testSnapshot()->idx.nameOf(0);
    std::atomic<size_t> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
            ServiceClient client;
            std::string err;
            if (!client.connect(rs.address(), &err)) {
                failures.fetch_add(1);
                return;
            }
            for (int i = 0; i < 25; ++i) {
                const std::string line =
                    i % 2 == 0
                        ? "{\"id\":" + std::to_string(c * 100 + i) +
                              ",\"op\":\"knn\",\"bench\":\"" + bench +
                              "\",\"k\":3}"
                        : "{\"id\":" + std::to_string(c * 100 + i) +
                              ",\"op\":\"stats\"}";
                std::string reply;
                if (!client.request(line, &reply, &err) ||
                    reply.find("\"ok\":true") == std::string::npos ||
                    reply.find("\"id\":" +
                               std::to_string(c * 100 + i)) ==
                        std::string::npos)
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
}

TEST(ServiceServerTest, ReindexSwapsUnderConcurrentQueries)
{
    RunningServer rs(4);
    std::atomic<size_t> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&] {
            ServiceClient client;
            std::string err;
            if (!client.connect(rs.address(), &err)) {
                failures.fetch_add(1);
                return;
            }
            for (int i = 0; i < 20; ++i) {
                std::string reply;
                if (!client.request("{\"op\":\"stats\"}", &reply,
                                    &err) ||
                    reply.find("\"ok\":true") == std::string::npos) {
                    failures.fetch_add(1);
                    continue;
                }
                // Generation is 0 (startup) or 1 (post-reindex) —
                // any other value means a torn snapshot.
                if (reply.find("\"generation\":0") ==
                        std::string::npos &&
                    reply.find("\"generation\":1") ==
                        std::string::npos)
                    failures.fetch_add(1);
            }
        });
    }
    {
        ServiceClient client;
        std::string err, reply;
        ASSERT_TRUE(client.connect(rs.address(), &err)) << err;
        ASSERT_TRUE(client.request("{\"op\":\"reindex\"}", &reply,
                                   &err))
            << err;
        EXPECT_NE(reply.find("\"ok\":true"), std::string::npos)
            << reply;
        EXPECT_NE(reply.find("\"generation\":1"), std::string::npos)
            << reply;
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(rs.server->snapshot()->generation, 1u);
}

// ----------------------------------------------------------------------
// Wire-protocol fuzz: hostile bytes must produce error replies (or a
// clean close), never a crash or a wedged daemon.
// ----------------------------------------------------------------------

TEST(ServiceServerTest, BadJsonGetsErrorReplyAndConnectionSurvives)
{
    RunningServer rs;
    ServiceClient client;
    std::string err, reply;
    ASSERT_TRUE(client.connect(rs.address(), &err)) << err;
    ASSERT_TRUE(client.request("{{{not json", &reply, &err)) << err;
    EXPECT_NE(reply.find("\"bad_json\""), std::string::npos) << reply;
    // Same connection still answers.
    ASSERT_TRUE(client.request("{\"op\":\"ping\"}", &reply, &err))
        << err;
    EXPECT_NE(reply.find("\"pong\":true"), std::string::npos);
}

TEST(ServiceServerTest, OversizedLineGetsLineTooLongThenClose)
{
    RunningServer rs;
    ServiceClient client;
    std::string err, reply;
    ASSERT_TRUE(client.connect(rs.address(), &err)) << err;
    // One line larger than the hard cap; the server must reply
    // line_too_long and close — the send may fail part-way once the
    // server stops reading, which is fine.
    std::string huge(kMaxLineBytes + 4096, 'a');
    (void)client.sendLine(huge, &err);
    ASSERT_TRUE(client.recvLine(&reply, &err)) << err;
    EXPECT_NE(reply.find("\"line_too_long\""), std::string::npos)
        << reply;
    // Then EOF: the connection is gone, the daemon is not.
    EXPECT_FALSE(client.recvLine(&reply, &err));
    ServiceClient again;
    ASSERT_TRUE(again.connect(rs.address(), &err)) << err;
    ASSERT_TRUE(again.request("{\"op\":\"ping\"}", &reply, &err))
        << err;
    EXPECT_NE(reply.find("\"pong\":true"), std::string::npos);
}

TEST(ServiceServerTest, HalfClosedSocketStillGetsItsReply)
{
    RunningServer rs;
    ServiceClient client;
    std::string err, reply;
    ASSERT_TRUE(client.connect(rs.address(), &err)) << err;
    ASSERT_TRUE(client.sendLine("{\"op\":\"ping\"}", &err)) << err;
    client.shutdownWrite();
    ASSERT_TRUE(client.recvLine(&reply, &err)) << err;
    EXPECT_NE(reply.find("\"pong\":true"), std::string::npos);
    EXPECT_FALSE(client.recvLine(&reply, &err));   // then EOF
}

TEST(ServiceServerTest, PartialLineThenEofGetsBadJsonReply)
{
    RunningServer rs;
    SocketAddress addr;
    std::string err;
    ASSERT_TRUE(parseAddress(rs.address(), &addr, &err)) << err;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, addr.path.c_str(),
                 sizeof(sa.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                        sizeof(sa)),
              0);
    // A fragment with no newline, then write-side close: the server
    // must treat the fragment as a (malformed) final line.
    const char frag[] = "{\"op\":\"pi";
    ASSERT_EQ(::send(fd, frag, sizeof(frag) - 1, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(frag) - 1));
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        reply.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(reply.find("\"bad_json\""), std::string::npos) << reply;
}

} // namespace
} // namespace mica::service
