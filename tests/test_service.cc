/**
 * @file
 * Tests for the service layer: address parsing, request validation,
 * the query engine against direct index calls, the snapshot's suite
 * rows against the per-request walk they replace, CLI↔server
 * byte-identity, concurrent snapshot swap (readers see a complete old
 * or a complete new snapshot, never a mix), the event loops (pipelined
 * bursts answered in order, a held-open reindex beside live queries,
 * per-op phase telemetry), and wire-protocol fuzz (oversized lines,
 * bad JSON, half-closed sockets get error replies, never a crash).
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
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
#include "stats/descriptive.hh"
#include "stats/rng.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

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
    // The result is text (a Raw value): walk the serialized line.
    const std::string line = serializeResponse(executeRequest(*snap, req));
    JsonValue resp;
    std::string err;
    ASSERT_TRUE(parseJson(line, &resp, &err)) << err;
    const JsonValue *ok = resp.find("ok");
    ASSERT_NE(ok, nullptr);
    ASSERT_TRUE(ok->asBool()) << line;
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

/**
 * Compare executeLine over @p snap with tests/@p name, a file of
 * request/reply line pairs. @return the number of pairs.
 */
size_t
expectGoldenReplies(const ServerSnapshot &snap, const std::string &name)
{
    std::ifstream in(std::string(MICA_TESTS_DIR) + "/" + name);
    EXPECT_TRUE(in) << "cannot open tests/" << name;
    std::string request, reply;
    size_t pairs = 0;
    while (std::getline(in, request)) {
        if (!std::getline(in, reply)) {
            ADD_FAILURE() << name << ": no reply for " << request;
            break;
        }
        EXPECT_EQ(executeLine(snap, request), reply) << name << ": "
                                                     << request;
        ++pairs;
    }
    return pairs;
}

/**
 * tests/service_replies.golden pins the reply bytes of every op over
 * the shared CommBench snapshot: each request line is followed by the
 * reply line `mica query -` printed for it (knn at k 0, 1, 5 and past
 * n; radius at 0, at an exact neighbour distance, one ulp below it and
 * huge; profile in both spaces and unknown; suites all, one and
 * unknown; redundant at top 0, 1, 5 and 2^20; ping; local stats; every
 * JSON id kind; the error envelopes). To regenerate after an intended
 * change, take the request lines (`sed -n 'p;n'`), pipe them through
 * `mica query - --budget=30000 --suites=CommBench --cache=DIR`, and
 * `paste -d'\n'` requests and replies back together.
 */
TEST(ServiceEngineTest, RepliesMatchTheGoldenBytes)
{
    auto snap = testSnapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_GE(expectGoldenReplies(*snap, "service_replies.golden"), 50u);
}

TEST(ServiceEngineTest, StatsReflectsTheSnapshot)
{
    auto snap = testSnapshot();
    ASSERT_NE(snap, nullptr);
    const JsonValue resp = [&] {
        Request req;
        req.op = Op::Stats;
        JsonValue doc;
        std::string err;
        EXPECT_TRUE(parseJson(serializeResponse(executeRequest(*snap, req)),
                              &doc, &err))
            << err;
        return doc;
    }();
    const JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("indexed")->asCount(),
              static_cast<int64_t>(snap->idx.size()));
    EXPECT_EQ(result->find("space")->asString(), snap->space);
    EXPECT_EQ(result->find("generation")->asCount(), 0);
}

// ----------------------------------------------------------------------
// Answer tables: suite rows against the per-request walk.
// ----------------------------------------------------------------------

/**
 * The suites oracle: the walk every `suites` request made before
 * snapshots kept suite rows. Rows must match it bit for bit.
 */
std::vector<SuiteRow>
suitesWalk(const ServerSnapshot &snap)
{
    std::vector<std::string> suites;
    for (const auto &b : snap.ds.benchmarks) {
        if (std::find(suites.begin(), suites.end(), b.suite) ==
            suites.end())
            suites.push_back(b.suite);
    }
    const index::FingerprintSet &fps = snap.idx.fingerprints();
    const double simCut = 0.2 * snap.maxPairDist;
    std::vector<SuiteRow> rows;
    for (const auto &suite : suites) {
        std::vector<size_t> ids;
        for (const auto &b : snap.ds.benchmarks) {
            const int64_t id = snap.idx.idOf(b.fullName());
            if (b.suite == suite && id >= 0)
                ids.push_back(static_cast<size_t>(id));
        }
        double minD = 0.0, maxD = 0.0, sum = 0.0;
        size_t pairs = 0, redundant = 0;
        for (size_t i = 0; i + 1 < ids.size(); ++i) {
            for (size_t j = i + 1; j < ids.size(); ++j) {
                const double d = index::l2Dist(
                    fps.vec(ids[i]), fps.vec(ids[j]), fps.dim);
                if (pairs == 0 || d < minD)
                    minD = d;
                if (d > maxD)
                    maxD = d;
                sum += d;
                ++pairs;
                if (d <= simCut)
                    ++redundant;
            }
        }
        SuiteRow row;
        row.suite = suite;
        row.count = ids.size();
        row.meanDist = pairs ? sum / static_cast<double>(pairs) : 0.0;
        row.minDist = pairs ? minD : 0.0;
        row.maxDist = pairs ? maxD : 0.0;
        row.within20 = redundant;
        rows.push_back(row);
    }
    return rows;
}

uint64_t
bitsOf(double d)
{
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** One rendered `suites` row equals @p want, doubles bit for bit. */
void
expectSuiteRowJson(const JsonValue &one, const SuiteRow &want)
{
    EXPECT_EQ(one.find("suite")->asString(), want.suite);
    EXPECT_EQ(one.find("count")->asCount(),
              static_cast<int64_t>(want.count));
    EXPECT_EQ(bitsOf(one.find("mean_dist")->asDouble()),
              bitsOf(want.meanDist));
    EXPECT_EQ(bitsOf(one.find("min_dist")->asDouble()),
              bitsOf(want.minDist));
    EXPECT_EQ(bitsOf(one.find("max_dist")->asDouble()),
              bitsOf(want.maxDist));
    EXPECT_EQ(one.find("pairs_within_20pct_max")->asCount(),
              static_cast<int64_t>(want.within20));
}

TEST(ServiceEngineTest, SuiteRowsMatchThePerRequestWalk)
{
    // Four suites, interleaved in dataset order; Solo has one member
    // and so no pairs. The index holds the rows in reverse order and
    // lacks Beta/b2 (a reloaded index may predate a quarantine), so
    // member order is not id order.
    const std::vector<std::pair<std::string, std::string>> members = {
        {"Alpha", "a0"}, {"Beta", "b0"},  {"Alpha", "a1"},
        {"Solo", "s0"},  {"Gamma", "g0"}, {"Beta", "b1"},
        {"Alpha", "a2"}, {"Gamma", "g1"}, {"Beta", "b2"},
        {"Alpha", "a3"}, {"Gamma", "g2"}, {"Beta", "b3"},
        {"Alpha", "a4"}};
    ServerSnapshot snap;
    for (const auto &[suite, program] : members) {
        workloads::BenchmarkInfo b;
        b.suite = suite;
        b.program = program;
        b.input = "ref";
        snap.ds.benchmarks.push_back(b);
    }
    Matrix m;
    Rng rng(23);
    for (size_t r = members.size(); r-- > 0;) {
        if (members[r].second == "b2")
            continue;
        std::vector<double> v(5);
        for (auto &x : v)
            x = rng.gauss();
        m.appendRow(v);
        m.rowNames.push_back(snap.ds.benchmarks[r].fullName());
    }
    snap.idx = index::FingerprintIndex::build(m);
    fillAnswerTables(&snap);

    const std::vector<SuiteRow> want = suitesWalk(snap);
    ASSERT_EQ(want.size(), 4u);
    ASSERT_EQ(snap.suiteRows.size(), want.size());
    EXPECT_EQ(want[2].suite, "Solo");
    EXPECT_EQ(want[2].count, 1u);
    EXPECT_EQ(want[1].count, 3u);   // b2 is not indexed
    for (size_t i = 0; i < want.size(); ++i) {
        const SuiteRow &got = snap.suiteRows[i];
        SCOPED_TRACE(want[i].suite);
        EXPECT_EQ(got.suite, want[i].suite);
        EXPECT_EQ(got.count, want[i].count);
        EXPECT_EQ(bitsOf(got.meanDist), bitsOf(want[i].meanDist));
        EXPECT_EQ(bitsOf(got.minDist), bitsOf(want[i].minDist));
        EXPECT_EQ(bitsOf(got.maxDist), bitsOf(want[i].maxDist));
        EXPECT_EQ(got.within20, want[i].within20);
    }

    // Replies render those rows: all suites, or the one asked for.
    std::string err;
    JsonValue doc;
    ASSERT_TRUE(parseJson(executeLine(snap, "{\"op\":\"suites\"}"), &doc,
                          &err))
        << err;
    const JsonValue *rows = doc.find("result")->find("suites");
    ASSERT_EQ(rows->items().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i)
        expectSuiteRowJson(rows->items()[i], want[i]);
    for (const SuiteRow &row : want) {
        ASSERT_TRUE(parseJson(
            executeLine(snap, "{\"op\":\"suites\",\"suite\":\"" +
                                  row.suite + "\"}"),
            &doc, &err))
            << err;
        rows = doc.find("result")->find("suites");
        ASSERT_EQ(rows->items().size(), 1u);
        expectSuiteRowJson(rows->items()[0], row);
    }
    const std::string unknown =
        executeLine(snap, "{\"op\":\"suites\",\"suite\":\"nope\"}");
    EXPECT_NE(unknown.find("\"unknown_bench\""), std::string::npos)
        << unknown;
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

/** @return every benchmark's kNN reply, as the daemon renders them. */
std::string
allKnnReplies(const ServerSnapshot &snap)
{
    std::string out;
    for (size_t i = 0; i < snap.idx.size(); ++i) {
        out += executeLine(snap, "{\"op\":\"knn\",\"bench\":\"" +
                                     snap.idx.nameOf(i) + "\",\"k\":2}") +
            "\n";
    }
    return out;
}

/**
 * The same request lines in the other spaces: hpc, key, and mica
 * projected onto four principal components. Each golden holds the
 * replies commit c360b97 printed, before knn, radius and the answer
 * tables read one distance matrix: the request lines piped through
 * `mica query - --budget=30000 --suites=CommBench --cache=DIR` with
 * `--space=hpc`, `--space=key` or `--space=mica --pca=4` (regenerate
 * as above). Each space opens on a cache directory of its own, so the
 * shared test cache's record keeps the mica space.
 */
TEST(ServiceEngineTest, RepliesMatchTheGoldenBytesInEverySpace)
{
    struct Golden
    {
        const char *file;
        const char *space;
        size_t pca;
    };
    for (const Golden &g : {Golden{"service_replies_hpc.golden", "hpc", 0},
                            Golden{"service_replies_key.golden", "key", 0},
                            Golden{"service_replies_mica_pca4.golden",
                                   "mica", 4}}) {
        TempDir dir;
        SpaceChoice sc = givenSpace(g.space);
        sc.pca = g.pca;
        std::string err;
        const auto snap = buildServerSnapshot(privateConfig(dir), sc,
                                              nullptr, 0, {}, &err);
        ASSERT_NE(snap, nullptr) << err;
        EXPECT_GE(expectGoldenReplies(*snap, g.file), 50u);
    }
}

/** @return the bytes of @p path. */
std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
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
    index::IndexRecord rec;
    ASSERT_TRUE(index::loadIndexRecord(path, &rec, &err)) << err;
    EXPECT_EQ(rec.key, snap->key);
    EXPECT_EQ(rec.columns, snap->idx.fingerprints().columns);
}

/** Append the bytes of @p v to @p out. */
template <typename T>
void
appendPod(std::string &out, T v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

/** Append a u32 length and the bytes of @p s to @p out. */
void
appendString(std::string &out, const std::string &s)
{
    appendPod(out, static_cast<uint32_t>(s.size()));
    out += s;
}

/**
 * Write the all-column, unprojected index of @p raw to @p path as
 * format 3 stored it: magic, version, fingerprint version, @p key, the
 * payload's FNV-1a, then the whole index (shape, column table, names,
 * normalization, PCA basis and vectors). Format 3 froze each column's
 * mean and population stddev, and an index without PCA stored its
 * PCA mean and basis empty.
 */
void
writeFormatThree(const std::string &path, const Matrix &raw,
                 const std::string &key)
{
    const index::FingerprintIndex idx = index::FingerprintIndex::build(raw);
    const index::FingerprintSet &fps = idx.fingerprints();
    const auto perColumn = [&](double (*stat)(const std::vector<double> &)) {
        std::vector<double> out;
        for (size_t c : fps.columns)
            out.push_back(stat(raw.colVec(c)));
        return out;
    };
    const std::vector<double> colMean = perColumn(mean);
    const std::vector<double> colStddev = perColumn(stddev);
    const std::vector<double> noPca;
    std::string payload;
    for (uint64_t v : {uint64_t{fps.size()}, uint64_t{fps.dim},
                       uint64_t{raw.cols()}, uint64_t{0},
                       uint64_t{fps.columns.size()}})
        appendPod(payload, v);
    for (size_t c : fps.columns)
        appendPod(payload, uint64_t{c});
    for (const std::string &name : fps.names)
        appendString(payload, name);
    for (const auto *v : {&colMean, &colStddev, &noPca, &noPca,
                          &fps.data}) {
        appendPod(payload, uint64_t{v->size()});
        payload.append(reinterpret_cast<const char *>(v->data()),
                       v->size() * sizeof(double));
    }
    std::string file = "MICAIDX\n";
    appendPod(file, uint32_t{3});
    appendPod(file, index::FingerprintSet::kVersion);
    appendString(file, key);
    appendPod(file, fnv1a(payload.data(), payload.size()));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << file << payload;
}

TEST(ServiceSnapshotTest, FormatThreeFileHandsOverItsSpaceAndIsRewritten)
{
    TempDir dir;
    const auto cfg = privateConfig(dir);
    const experiments::SuiteDataset &ds = testSnapshot()->ds;
    const std::string path = index::snapshotPath(dir.dir);
    writeFormatThree(path, ds.hpcMatrix(), indexKey(ds, "hpc", 0));
    ASSERT_GT(std::filesystem::file_size(path), 1024u);

    std::string err;
    const auto snap =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(snap, nullptr) << err;
    EXPECT_EQ(snap->space, "hpc");
    EXPECT_EQ(snap->key, indexKey(ds, "hpc", 0));
    index::IndexRecord rec;
    ASSERT_TRUE(index::loadIndexRecord(path, &rec, &err)) << err;
    EXPECT_EQ(rec.key, snap->key);
    EXPECT_LT(std::filesystem::file_size(path), 1024u);

    // A space this build does not have is not adopted: the open
    // answers in the default space instead of failing.
    writeFormatThree(path, ds.hpcMatrix(), indexKey(ds, "hqc", 0));
    const auto fallback =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(fallback, nullptr) << err;
    EXPECT_EQ(fallback->space, "mica");
    EXPECT_EQ(allKnnReplies(*fallback), allKnnReplies(*testSnapshot()));
}

/** obs counter @p name's current value. */
int64_t
counterValue(const std::string &name)
{
    const obs::MetricsSnapshot ms = obs::snapshotMetrics();
    const auto it = ms.metrics.find(name);
    return it == ms.metrics.end() ? 0 : it->second.value;
}

TEST(ServiceSnapshotTest, WarmKeySpaceOpenRunsNoGa)
{
    TempDir dir;
    const auto cfg = privateConfig(dir);
    std::string err;
    const int64_t cold = counterValue("ga.generation.count");
    const auto built =
        buildServerSnapshot(cfg, givenSpace("key"), nullptr, 0, {}, &err);
    ASSERT_NE(built, nullptr) << err;
    const int64_t warm = counterValue("ga.generation.count");
    EXPECT_GT(warm, cold);

    // Adopted or given, the key space reopens from the recorded
    // columns: the GA does not run again, and every answer is the same.
    for (const SpaceChoice &sc : {SpaceChoice{}, givenSpace("key")}) {
        const auto reopened =
            buildServerSnapshot(cfg, sc, nullptr, 0, {}, &err);
        ASSERT_NE(reopened, nullptr) << err;
        EXPECT_EQ(reopened->space, "key");
        EXPECT_EQ(counterValue("ga.generation.count"), warm);
        EXPECT_EQ(reopened->idx.fingerprints().columns,
                  built->idx.fingerprints().columns);
        EXPECT_EQ(allKnnReplies(*reopened), allKnnReplies(*built));
    }
}

/** Write four random traces under @p dir; @p seed varies the records. */
void
writeRandomTraces(const std::string &dir, uint64_t seed)
{
    std::filesystem::create_directories(dir);
    for (uint64_t i = 0; i < 4; ++i) {
        RandomTraceParams p;
        p.numInsts = 4000;
        p.seed = seed + i;
        p.pLoad = 0.1 + 0.05 * static_cast<double>(i);
        RandomTraceSource src(p);
        TraceFileWriter w(dir + "/rand__t" + std::to_string(i) + ".x.trace");
        InstRecord r;
        while (src.next(r))
            w.append(r);
        w.close();
    }
}

TEST(ServiceSnapshotTest, KeyFollowsTheDatasetNotTheConfig)
{
    TempDir dir;
    writeRandomTraces(dir.dir + "/t1", 1);
    writeRandomTraces(dir.dir + "/t2", 11);
    experiments::DatasetConfig cfg;
    cfg.cacheDir = dir.dir + "/cache";
    cfg.traceDir = dir.dir + "/t1";
    std::string err;
    const auto first =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(first, nullptr) << err;

    // The same config over other traces is another dataset: the shared
    // cache must answer it as a fresh cache does, not with the first
    // dataset's index.
    cfg.traceDir = dir.dir + "/t2";
    const auto second =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(second, nullptr) << err;
    auto freshCfg = cfg;
    freshCfg.cacheDir = dir.dir + "/fresh";
    const auto fresh =
        buildServerSnapshot(freshCfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(fresh, nullptr) << err;
    EXPECT_NE(second->key, first->key);
    EXPECT_EQ(second->key, fresh->key);
    EXPECT_EQ(second->idx.fingerprints().data,
              fresh->idx.fingerprints().data);
    EXPECT_EQ(allKnnReplies(*second), allKnnReplies(*fresh));
    EXPECT_NE(allKnnReplies(*second), allKnnReplies(*first));

    // The same dataset reuses its record instead of choosing columns
    // afresh: the columns of a record planted under its key are the
    // ones the open indexes.
    index::FingerprintOptions three;
    three.columns = {0, 1, 2};
    const Matrix mica = second->ds.micaMatrix();
    const index::FingerprintIndex planted =
        index::FingerprintIndex::build(mica, three);
    ASSERT_TRUE(index::saveIndexRecord(
        {second->key, mica.cols(), three.columns},
        index::snapshotPath(cfg.cacheDir)));
    const auto again =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(again, nullptr) << err;
    EXPECT_EQ(again->key, second->key);
    EXPECT_EQ(again->idx.dim(), 3u);
    EXPECT_EQ(again->idx.fingerprints().data, planted.fingerprints().data);
}

TEST(ServiceSnapshotTest, DamagedSnapshotRebuildsToFreshAnswers)
{
    TempDir dir;
    const auto cfg = privateConfig(dir);
    std::string err;
    const auto built =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(built, nullptr) << err;

    // Flip one bit in the column table near the end of the record.
    const std::string path = index::snapshotPath(dir.dir);
    std::string bytes = readBytes(path);
    ASSERT_GT(bytes.size(), 100u);
    bytes[bytes.size() - 40] ^= 0x10;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    index::IndexRecord rec;
    EXPECT_FALSE(index::loadIndexRecord(path, &rec, &err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;

    const auto rebuilt =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(rebuilt, nullptr) << err;
    EXPECT_EQ(rebuilt->idx.fingerprints().data,
              built->idx.fingerprints().data);
    EXPECT_EQ(allKnnReplies(*rebuilt), allKnnReplies(*built));
    ASSERT_TRUE(index::loadIndexRecord(path, &rec, &err)) << err;
    EXPECT_EQ(rec.key, built->key);
}

/** Replace the first @p from in @p path's bytes with @p to. */
void
editRecord(const std::string &path, const std::string &from,
           const std::string &to)
{
    std::string bytes = readBytes(path);
    const size_t at = bytes.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bytes.replace(at, from.size(), to);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(ServiceSnapshotTest, EditedKeyRejectsTheRecord)
{
    TempDir dir, fresh;
    const auto cfg = privateConfig(dir);
    const std::string path = index::snapshotPath(dir.dir);
    std::string err;

    // pca=0 edited to pca=1: an open asking for one component must
    // not take the record's all-column choice as its own, and answers
    // as a fresh pca=1 index does.
    ASSERT_NE(buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err),
              nullptr)
        << err;
    editRecord(path, "|pca=0", "|pca=1");
    SpaceChoice pca1;
    pca1.pca = 1;
    pca1.given = true;
    const auto edited = buildServerSnapshot(cfg, pca1, nullptr, 0, {}, &err);
    ASSERT_NE(edited, nullptr) << err;
    const auto want = buildServerSnapshot(privateConfig(fresh), pca1,
                                          nullptr, 0, {}, &err);
    ASSERT_NE(want, nullptr) << err;
    EXPECT_EQ(edited->idx.dim(), 1u);
    EXPECT_EQ(allKnnReplies(*edited), allKnnReplies(*want));
    index::IndexRecord rec;
    ASSERT_TRUE(index::loadIndexRecord(path, &rec, &err)) << err;
    EXPECT_EQ(rec.key, want->key);

    // hpc edited to hqc: the record rejects, so the open neither
    // adopts a space that does not exist nor fails; it answers in the
    // default space.
    ASSERT_NE(buildServerSnapshot(cfg, givenSpace("hpc"), nullptr, 0, {},
                                  &err),
              nullptr)
        << err;
    editRecord(path, "|space=hpc", "|space=hqc");
    const auto reopened =
        buildServerSnapshot(cfg, SpaceChoice{}, nullptr, 0, {}, &err);
    ASSERT_NE(reopened, nullptr) << err;
    EXPECT_EQ(reopened->space, "mica");
    EXPECT_EQ(allKnnReplies(*reopened), allKnnReplies(*testSnapshot()));
}

TEST(ServiceSnapshotTest, EveryFlippedRecordByteRebuildsOrHasNoEffect)
{
    TempDir dir;
    const auto cfg = privateConfig(dir);
    std::string err;
    const auto built =
        buildServerSnapshot(cfg, givenSpace("key"), nullptr, 0, {}, &err);
    ASSERT_NE(built, nullptr) << err;
    const std::string path = index::snapshotPath(dir.dir);
    const std::string record = readBytes(path);
    const std::string want = allKnnReplies(*built);

    // Each flip either rejects (the open chooses the columns afresh
    // and rewrites the record) or changes nothing the open reads; no
    // flip fails the open or moves an answer.
    for (size_t at = 0; at < record.size(); ++at) {
        std::string flipped = record;
        flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << flipped;
        const auto snap =
            buildServerSnapshot(cfg, givenSpace("key"), nullptr, 0, {},
                                &err);
        ASSERT_NE(snap, nullptr) << "byte " << at << ": " << err;
        EXPECT_EQ(allKnnReplies(*snap), want) << "byte " << at;
        const std::string after = readBytes(path);
        EXPECT_TRUE(after == record || after == flipped) << "byte " << at;
    }
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

    explicit RunningServer(size_t jobs = 2, CollectFn collect = {})
    {
        ServerOptions opt;
        opt.address = "unix:" + dir.dir + "/srv.sock";
        opt.jobs = jobs;
        server = std::make_unique<Server>(opt, testSnapshot(),
                                          testConfig(), SpaceChoice{},
                                          std::move(collect));
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
    // The block is fed by live telemetry: this reply answers its own
    // stats request and the querying client itself holds a connection
    // right now.
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
// Event loops: pipelined bursts, a held-open reindex, phase telemetry.
// ----------------------------------------------------------------------

/** 512 request lines cycling through all seven query ops, with ids. */
std::vector<std::string>
mixedBurst(const ServerSnapshot &snap)
{
    std::vector<std::string> lines;
    for (size_t i = 0; lines.size() < 512; ++i) {
        const std::string head =
            "{\"id\":" + std::to_string(i) + ",\"op\":";
        const std::string bench =
            "\"bench\":\"" + snap.idx.nameOf(i % snap.idx.size()) + "\"";
        switch (i % 7) {
        case 0:
            lines.push_back(head + "\"ping\"}");
            break;
        case 1:
            lines.push_back(head + "\"stats\"}");
            break;
        case 2:
            lines.push_back(head + "\"profile\"," + bench +
                            (i % 2 ? ",\"space\":\"hpc\"}" : "}"));
            break;
        case 3:
            lines.push_back(head + "\"knn\"," + bench + ",\"k\":" +
                            std::to_string(1 + i % 5) + "}");
            break;
        case 4:
            lines.push_back(head + "\"radius\"," + bench + ",\"r\":" +
                            std::to_string(i % 4) + "}");
            break;
        case 5:
            lines.push_back(head + "\"redundant\",\"top\":" +
                            std::to_string(i % 12) + "}");
            break;
        default:
            lines.push_back(head + "\"suites\"" +
                            (i % 2 ? ",\"suite\":\"CommBench\"}" : "}"));
            break;
        }
    }
    return lines;
}

/**
 * Two clients each write a 512-line burst in one send, then read 512
 * replies: each must equal the one-shot answer, in request order.
 */
void
pipelinedBurstTest(size_t jobs)
{
    RunningServer rs(jobs);
    auto snap = testSnapshot();
    const std::vector<std::string> lines = mixedBurst(*snap);
    std::string burst;
    for (const auto &line : lines)
        burst += line + "\n";
    burst.pop_back();   // sendLine adds the last newline
    std::atomic<size_t> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
        clients.emplace_back([&] {
            ServiceClient client;
            std::string err, reply;
            if (!client.connect(rs.address(), &err) ||
                !client.sendLine(burst, &err)) {
                failures.fetch_add(lines.size());
                return;
            }
            for (size_t i = 0; i < lines.size(); ++i) {
                if (!client.recvLine(&reply, &err)) {
                    failures.fetch_add(lines.size() - i);
                    return;
                }
                // A daemon's stats carry live counters, so only its
                // envelope is fixed.
                const bool same =
                    lines[i].find("\"stats\"") != std::string::npos
                    ? reply.rfind("{\"id\":" + std::to_string(i) +
                                      ",\"ok\":true,\"op\":\"stats\"",
                                  0) == 0
                    : reply == executeLine(*snap, lines[i], true);
                if (!same) {
                    failures.fetch_add(1);
                    ADD_FAILURE() << lines[i] << " -> " << reply;
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0u);
}

TEST(ServiceServerTest, PipelinedBurstAnswersInOrderOnOneLoop)
{
    pipelinedBurstTest(1);
}

TEST(ServiceServerTest, PipelinedBurstAnswersInOrderOnFourLoops)
{
    pipelinedBurstTest(4);
}

/** A collect hook that holds a rebuild open until released. */
struct CollectLatch
{
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;

    CollectFn
    fn()
    {
        return [this](const experiments::DatasetConfig &cfg) {
            {
                std::unique_lock<std::mutex> lk(mu);
                entered = true;
                cv.notify_all();
                cv.wait(lk, [this] { return released; });
            }
            return experiments::collectSuiteDataset(cfg);
        };
    }

    bool
    waitEntered()
    {
        std::unique_lock<std::mutex> lk(mu);
        return cv.wait_for(lk, std::chrono::seconds(60),
                           [this] { return entered; });
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            released = true;
        }
        cv.notify_all();
    }
};

/** Releases the latch before the server is torn down, on any path. */
struct ReleaseOnExit
{
    CollectLatch &latch;

    ~ReleaseOnExit() { latch.release(); }
};

/**
 * One client pipelines reindex + ping while the rebuild is held open:
 * another client's knn is answered meanwhile, a second reindex is
 * turned away, and once released the reindex reply comes first, then
 * the ping, both at generation 1. With @p stopMidway a requestStop
 * issued during the rebuild still delivers both, and run() returns 0.
 */
void
reindexBesideQueriesTest(size_t jobs, bool stopMidway)
{
    CollectLatch latch;
    RunningServer rs(jobs, latch.fn());
    ReleaseOnExit guard{latch};
    ServiceClient r, q;
    std::string err, reply;
    ASSERT_TRUE(r.connect(rs.address(), &err)) << err;
    ASSERT_TRUE(q.connect(rs.address(), &err)) << err;
    ASSERT_TRUE(r.sendLine("{\"id\":1,\"op\":\"reindex\"}\n"
                           "{\"id\":2,\"op\":\"ping\"}",
                           &err))
        << err;
    ASSERT_TRUE(latch.waitEntered());

    const std::string knn = "{\"op\":\"knn\",\"bench\":\"" +
                            testSnapshot()->idx.nameOf(0) + "\",\"k\":3}";
    ASSERT_TRUE(q.request(knn, &reply, &err)) << err;
    EXPECT_EQ(reply, executeLine(*testSnapshot(), knn, true));
    ASSERT_TRUE(q.request("{\"op\":\"reindex\"}", &reply, &err)) << err;
    EXPECT_NE(reply.find("\"unavailable\""), std::string::npos) << reply;

    if (stopMidway)
        rs.server->requestStop();
    latch.release();
    ASSERT_TRUE(r.recvLine(&reply, &err)) << err;
    EXPECT_EQ(reply.rfind("{\"id\":1,\"ok\":true,\"op\":\"reindex\"", 0),
              0u)
        << reply;
    EXPECT_NE(reply.find("\"generation\":1"), std::string::npos) << reply;
    ASSERT_TRUE(r.recvLine(&reply, &err)) << err;
    EXPECT_EQ(reply.rfind("{\"id\":2,\"ok\":true,\"op\":\"ping\"", 0), 0u)
        << reply;
    EXPECT_NE(reply.find("\"generation\":1"), std::string::npos) << reply;
    if (stopMidway) {
        rs.loop.join();
        EXPECT_EQ(rs.rc, 0);
        return;
    }
    // The finished rebuild freed the slot: the next reindex runs.
    ASSERT_TRUE(q.request("{\"op\":\"reindex\"}", &reply, &err)) << err;
    EXPECT_NE(reply.find("\"generation\":2"), std::string::npos) << reply;
}

TEST(ServiceServerTest, HeldReindexLeavesQueriesAnsweredOnOneLoop)
{
    reindexBesideQueriesTest(1, false);
}

TEST(ServiceServerTest, HeldReindexLeavesQueriesAnsweredOnFourLoops)
{
    reindexBesideQueriesTest(4, false);
}

TEST(ServiceServerTest, StopDuringReindexStillDeliversItsReply)
{
    reindexBesideQueriesTest(1, true);
    reindexBesideQueriesTest(4, true);
}

TEST(ServiceServerTest, EveryQueryOpRecordsItsThreePhases)
{
    // 21 histograms: a registration past the slab's capacity would
    // silently become a no-op, and its count would stay put.
    RunningServer rs;
    const std::string bench =
        "\"bench\":\"" + testSnapshot()->idx.nameOf(0) + "\"";
    const std::vector<std::pair<std::string, std::string>> ops = {
        {"ping", "{\"op\":\"ping\"}"},
        {"stats", "{\"op\":\"stats\"}"},
        {"profile", "{\"op\":\"profile\"," + bench + "}"},
        {"knn", "{\"op\":\"knn\"," + bench + "}"},
        {"radius", "{\"op\":\"radius\"," + bench + ",\"r\":1}"},
        {"redundant", "{\"op\":\"redundant\"}"},
        {"suites", "{\"op\":\"suites\"}"}};
    const auto counts = [&] {
        const obs::MetricsSnapshot ms = obs::snapshotMetrics();
        std::map<std::string, int64_t> out;
        for (const auto &op : ops) {
            for (const char *phase : {"parse", "execute", "serialize"}) {
                const std::string name =
                    "serve." + op.first + "." + phase + "_ns";
                const auto it = ms.metrics.find(name);
                out[name] =
                    it == ms.metrics.end() ? 0 : it->second.hist.count;
            }
        }
        return out;
    };
    const auto before = counts();
    ServiceClient client;
    std::string err, reply;
    ASSERT_TRUE(client.connect(rs.address(), &err)) << err;
    constexpr int64_t kEach = 3;
    for (int64_t i = 0; i < kEach; ++i) {
        for (const auto &op : ops) {
            ASSERT_TRUE(client.request(op.second, &reply, &err)) << err;
            ASSERT_NE(reply.find("\"ok\":true"), std::string::npos)
                << reply;
        }
    }
    const auto after = counts();
    ASSERT_EQ(after.size(), 21u);
    for (const auto &[name, n] : after)
        EXPECT_EQ(n - before.at(name), kEach) << name;

    // Phases are recorded in nanoseconds, so even a ping's serialize,
    // well under a microsecond, adds to the sum.
    const auto serialize = [] {
        const obs::MetricsSnapshot ms = obs::snapshotMetrics();
        const auto it = ms.metrics.find("serve.ping.serialize_ns");
        return it == ms.metrics.end() ? obs::HistogramValue{}
                                      : it->second.hist;
    };
    const obs::HistogramValue pingBefore = serialize();
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(client.request("{\"op\":\"ping\"}", &reply, &err))
            << err;
    const obs::HistogramValue pingAfter = serialize();
    EXPECT_EQ(pingAfter.count - pingBefore.count, 100);
    EXPECT_GT(pingAfter.sum - pingBefore.sum, 0);
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
