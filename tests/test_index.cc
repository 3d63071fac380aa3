/**
 * @file
 * Tests for the workload-fingerprint similarity index: fingerprint
 * canonicalization, the exact kNN/radius scans against a full-sort
 * oracle (bit equality is the property the whole subsystem rests
 * on), pooled batch-query determinism, the query snapshot's
 * closest-pair table against a per-row kNN merge oracle, and
 * snapshot durability.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/fingerprint.hh"
#include "index/fingerprint_index.hh"
#include "index/snapshot.hh"
#include "methodology/workload_space.hh"
#include "pipeline/thread_pool.hh"
#include "service/json.hh"
#include "service/query_engine.hh"
#include "stats/rng.hh"
#include "util/flat_hash.hh"

namespace mica::index
{
namespace
{

Matrix
randomDataset(size_t rows, size_t cols, uint64_t seed)
{
    Matrix m;
    Rng rng(seed);
    for (size_t r = 0; r < rows; ++r) {
        std::vector<double> v(cols);
        for (auto &x : v)
            x = rng.gauss();
        m.appendRow(v);
        m.rowNames.push_back("bench" + std::to_string(r));
    }
    return m;
}

/**
 * The reference kNN: every distance, one full sort by (distance, id),
 * truncated to k. Slow and obviously right; the scan must match it
 * bit for bit, order included.
 */
std::vector<Neighbor>
fullSortKnn(const FingerprintSet &fps, const double *q, size_t k,
            size_t skip = static_cast<size_t>(-1))
{
    std::vector<Neighbor> all;
    for (size_t i = 0; i < fps.size(); ++i) {
        if (i != skip)
            all.push_back({l2Dist(q, fps.vec(i), fps.dim),
                           static_cast<uint32_t>(i)});
    }
    std::sort(all.begin(), all.end());
    if (all.size() > k)
        all.resize(k);
    return all;
}

/**
 * The closest-pair oracle: the per-row kNN plus hash-set merge that
 * answered `redundant` per request before snapshots kept a pair
 * table. Any top-N pair (a, b) has fewer than N pairs ranked before
 * it, so b is within a's N nearest and the merge sees it.
 */
std::vector<RedundantPair>
knnMergeTop(const FingerprintIndex &idx, size_t topN)
{
    const size_t n = idx.size();
    if (n < 2 || topN == 0)
        return {};
    const size_t k = std::min(topN, n - 1);
    const auto perRow = idx.batchKnn(k);
    util::FlatHashSet<uint64_t> seen;
    seen.reserve(n * k);
    std::vector<RedundantPair> pairs;
    for (size_t i = 0; i < n; ++i) {
        for (const Neighbor &nb : perRow[i]) {
            const uint32_t a = std::min<uint32_t>(i, nb.id);
            const uint32_t b = std::max<uint32_t>(i, nb.id);
            if (seen.insert((static_cast<uint64_t>(a) << 32) | b))
                pairs.push_back({nb.dist, a, b});
        }
    }
    std::sort(pairs.begin(), pairs.end());
    if (pairs.size() > topN)
        pairs.resize(topN);
    return pairs;
}

/** A query snapshot over @p raw with its answer tables filled. */
service::ServerSnapshot
tabledSnapshot(const Matrix &raw, size_t maxPairs = service::kMaxCount)
{
    service::ServerSnapshot snap;
    snap.idx = FingerprintIndex::build(raw);
    service::fillAnswerTables(&snap, maxPairs);
    return snap;
}

/** The first @p top rows of a pair table: what `redundant` renders. */
std::vector<RedundantPair>
tablePrefix(const service::ServerSnapshot &snap, size_t top)
{
    const auto &t = snap.closestPairs;
    return {t.begin(), t.begin() + std::min(top, t.size())};
}

/** The pairs a `redundant` request renders from @p snap. */
std::vector<RedundantPair>
renderedPairs(const service::ServerSnapshot &snap, size_t top)
{
    service::JsonValue doc;
    std::string err;
    EXPECT_TRUE(service::parseJson(
        service::executeLine(snap, "{\"op\":\"redundant\",\"top\":" +
                                       std::to_string(top) + "}"),
        &doc, &err))
        << err;
    std::vector<RedundantPair> pairs;
    for (const auto &p : doc.find("result")->find("pairs")->items()) {
        pairs.push_back(
            {p.find("dist")->asDouble(),
             static_cast<uint32_t>(snap.idx.idOf(p.find("a")->asString())),
             static_cast<uint32_t>(snap.idx.idOf(p.find("b")->asString()))});
    }
    return pairs;
}

/** Same pairs, same distance bits, same order. */
void
expectSamePairs(const std::vector<RedundantPair> &got,
                const std::vector<RedundantPair> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(got[i] == want[i]) << "rank " << i;
}

/** Same neighbors, same distance bits, same order. */
void
expectSameNeighbors(const std::vector<Neighbor> &got,
                    const std::vector<Neighbor> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
        EXPECT_EQ(got[i].dist, want[i].dist) << "rank " << i;
    }
}

/** Self-cleaning temp directory for snapshot tests. */
struct SnapDir
{
    std::string dir;

    SnapDir()
    {
        char tmpl[] = "/tmp/mica_test_index_XXXXXX";
        const char *made = mkdtemp(tmpl);
        dir = made ? made : "/tmp/mica_test_index_fallback";
    }

    ~SnapDir() { std::filesystem::remove_all(dir); }

    std::string path() const { return snapshotPath(dir); }
};

// ----------------------------------------------------------------------
// Fingerprint canonicalization.
// ----------------------------------------------------------------------

TEST(FingerprintTest, MatchesWorkloadSpaceNormalizationBitwise)
{
    const Matrix raw = randomDataset(20, 5, 3);
    const FingerprintSet fps = buildFingerprints(raw);
    const WorkloadSpace space{raw};
    ASSERT_EQ(fps.size(), 20u);
    ASSERT_EQ(fps.dim, 5u);
    for (size_t r = 0; r < 20; ++r)
        for (size_t c = 0; c < 5; ++c)
            EXPECT_EQ(fps.vec(r)[c], space.normalized().at(r, c))
                << "row " << r << " col " << c;
}

TEST(FingerprintTest, EmbedReproducesStoredVectorsBitwise)
{
    const Matrix raw = randomDataset(17, 6, 11);
    for (const size_t pca : {size_t{0}, size_t{3}}) {
        FingerprintOptions opt;
        opt.pcaDims = pca;
        const FingerprintSet fps = buildFingerprints(raw, opt);
        EXPECT_EQ(fps.dim, pca == 0 ? 6u : 3u);
        for (size_t r = 0; r < raw.rows(); ++r) {
            const auto v = fps.embed(raw.rowVec(r));
            ASSERT_EQ(v.size(), fps.dim);
            for (size_t c = 0; c < fps.dim; ++c)
                EXPECT_EQ(v[c], fps.vec(r)[c]);
        }
    }
}

TEST(FingerprintTest, ColumnSubsetRefreezesNormalization)
{
    const Matrix raw = randomDataset(12, 8, 7);
    FingerprintOptions opt;
    opt.columns = {1, 4, 6};
    const FingerprintSet fps = buildFingerprints(raw, opt);
    EXPECT_EQ(fps.dim, 3u);
    // Same as a fingerprint set over the projected matrix.
    const FingerprintSet direct =
        buildFingerprints(raw.selectCols(opt.columns));
    for (size_t r = 0; r < raw.rows(); ++r)
        for (size_t c = 0; c < 3; ++c)
            EXPECT_EQ(fps.vec(r)[c], direct.vec(r)[c]);
}

TEST(FingerprintTest, ConstantColumnsAndWidthMismatchAreHandled)
{
    Matrix raw;
    raw.appendRow({1.0, 2.0});
    raw.appendRow({1.0, 4.0});
    raw.rowNames = {"a", "b"};
    const FingerprintSet fps = buildFingerprints(raw);
    EXPECT_EQ(fps.vec(0)[0], 0.0);      // constant column -> zero
    EXPECT_EQ(fps.vec(1)[0], 0.0);
    EXPECT_THROW(fps.embed({1.0, 2.0, 3.0}), std::invalid_argument);
}

// ----------------------------------------------------------------------
// Exact scan vs the full-sort oracle: the bit-equality property. The
// VpTreeTest cases first pinned the VP-tree the scan replaced; they
// keep their seeds, sizes, k values, ties and boundary radii.
// ----------------------------------------------------------------------

TEST(VpTreeTest, KnnMatchesBruteAcrossSeedsSizesAndK)
{
    for (const uint64_t seed : {1u, 7u, 42u}) {
        for (const size_t n : {size_t{1}, size_t{2}, size_t{17},
                               size_t{64}}) {
            for (const size_t dim : {size_t{1}, size_t{4}}) {
                const Matrix raw = randomDataset(n, dim, seed);
                const FingerprintIndex idx = FingerprintIndex::build(raw);
                const FingerprintSet &fps = idx.fingerprints();
                for (const size_t k : {size_t{1}, size_t{3}, n + 3}) {
                    for (size_t q = 0; q < n; ++q) {
                        expectSameNeighbors(
                            idx.knn(q, k),
                            fullSortKnn(fps, fps.vec(q), k, q));
                    }
                }
            }
        }
    }
}

TEST(VpTreeTest, ExternalQueriesMatchBrute)
{
    const Matrix raw = randomDataset(40, 5, 13);
    const FingerprintIndex idx = FingerprintIndex::build(raw);
    Rng rng(99);
    for (int t = 0; t < 20; ++t) {
        std::vector<double> q(5);
        for (auto &x : q)
            x = 3.0 * rng.gauss();
        const std::vector<double> e = idx.fingerprints().embed(q);
        expectSameNeighbors(idx.knnOfRaw(q, 7),
                            fullSortKnn(idx.fingerprints(), e.data(), 7));
    }
}

TEST(VpTreeTest, DuplicatePointsTieBreakById)
{
    // Three identical rows plus distinct ones: distance ties must
    // resolve by id exactly as the oracle's sort does.
    Matrix raw;
    raw.appendRow({1.0, 1.0});
    raw.appendRow({0.0, 0.0});
    raw.appendRow({1.0, 1.0});
    raw.appendRow({1.0, 1.0});
    raw.appendRow({2.0, 2.0});
    for (size_t r = 0; r < raw.rows(); ++r)
        raw.rowNames.push_back("b" + std::to_string(r));
    const FingerprintIndex idx = FingerprintIndex::build(raw);
    const FingerprintSet &fps = idx.fingerprints();
    for (size_t q = 0; q < raw.rows(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        expectSameNeighbors(idx.knn(q, 4),
                            fullSortKnn(fps, fps.vec(q), 4, q));
    }
}

TEST(VpTreeTest, RadiusMatchesBruteIncludingBoundary)
{
    const Matrix raw = randomDataset(30, 4, 5);
    const FingerprintIndex idx = FingerprintIndex::build(raw);
    const FingerprintSet &fps = idx.fingerprints();
    // Use realized distances as radii so the boundary case (dist ==
    // r) is actually exercised: the scan must include it.
    for (size_t q = 0; q < 5; ++q) {
        const auto all = fullSortKnn(fps, fps.vec(q), fps.size(), q);
        for (const auto &nb : idx.knn(q, 10)) {
            std::vector<Neighbor> want;
            for (const auto &o : all) {
                if (o.dist <= nb.dist)
                    want.push_back(o);
            }
            const auto got = idx.radius(q, nb.dist);
            expectSameNeighbors(got, want);
            EXPECT_TRUE(std::any_of(got.begin(), got.end(),
                                    [&](const Neighbor &g) {
                                        return g.dist == nb.dist;
                                    }));
        }
    }
}

TEST(VpTreeTest, DegenerateSizes)
{
    const FingerprintIndex empty = FingerprintIndex::build(Matrix{});
    EXPECT_EQ(empty.size(), 0u);
    const Matrix one = randomDataset(1, 3, 2);
    const FingerprintIndex single = FingerprintIndex::build(one);
    EXPECT_TRUE(single.knn(0, 5).empty());          // only self exists
    EXPECT_TRUE(single.radius(0, 100.0).empty());
    EXPECT_TRUE(tabledSnapshot(Matrix{}).closestPairs.empty());
    EXPECT_TRUE(tabledSnapshot(one).closestPairs.empty());
    EXPECT_EQ(tabledSnapshot(one).maxPairDist, 0.0);
    const FingerprintIndex two = FingerprintIndex::build(
        randomDataset(2, 3, 2));
    EXPECT_TRUE(two.knn(0, 0).empty());
}

TEST(FingerprintIndexTest, ClusteredDuplicatesMatchOracle)
{
    // Six cluster centers, each repeated seven times exactly: most
    // distances tie (0 inside a cluster, one value per center pair),
    // so every cut falls inside a run of ties, and k >= n asks for
    // the whole population.
    Matrix raw;
    Rng rng(31);
    std::vector<std::vector<double>> centers(6, std::vector<double>(3));
    for (auto &c : centers) {
        for (auto &x : c)
            x = rng.gauss();
    }
    for (size_t copy = 0; copy < 7; ++copy) {
        for (const auto &c : centers)
            raw.appendRow(c);
    }
    for (size_t r = 0; r < raw.rows(); ++r)
        raw.rowNames.push_back("c" + std::to_string(r));
    const FingerprintIndex idx = FingerprintIndex::build(raw);
    const FingerprintSet &fps = idx.fingerprints();
    const size_t n = fps.size();
    for (size_t q = 0; q < n; ++q) {
        for (const size_t k : {size_t{1}, size_t{6}, size_t{7},
                               size_t{13}, n - 1, n, n + 50}) {
            SCOPED_TRACE("query " + std::to_string(q) + " k " +
                         std::to_string(k));
            expectSameNeighbors(idx.knn(q, k),
                                fullSortKnn(fps, fps.vec(q), k, q));
        }
        // Radius 0 returns exactly the other six copies, by id.
        const auto same = idx.radius(q, 0.0);
        expectSameNeighbors(same, fullSortKnn(fps, fps.vec(q), 6, q));
    }
    // An external query on a center ties all seven copies at 0.
    const auto e = fps.embed(centers[2]);
    for (const size_t k : {size_t{3}, n, n + 1}) {
        expectSameNeighbors(idx.knnOfRaw(centers[2], k),
                            fullSortKnn(fps, e.data(), k));
    }
}

// ----------------------------------------------------------------------
// Batch queries: jobs invariance.
// ----------------------------------------------------------------------

TEST(FingerprintIndexTest, BatchKnnIsJobsInvariant)
{
    const Matrix raw = randomDataset(60, 6, 21);
    const FingerprintIndex idx = FingerprintIndex::build(raw);
    pipeline::ThreadPool pool(8);
    const auto serial = idx.batchKnn(5, nullptr);
    const auto jobs8 = idx.batchKnn(5, &pool);
    ASSERT_EQ(serial.size(), jobs8.size());
    for (size_t q = 0; q < serial.size(); ++q) {
        ASSERT_EQ(serial[q].size(), jobs8[q].size());
        for (size_t i = 0; i < serial[q].size(); ++i)
            EXPECT_TRUE(serial[q][i] == jobs8[q][i]);
    }
}

TEST(FingerprintIndexTest, MostRedundantMatchesAllPairsScan)
{
    const Matrix raw = randomDataset(25, 4, 17);
    const service::ServerSnapshot snap = tabledSnapshot(raw);
    const size_t topN = 8;

    // Ground truth: every pair, sorted by (dist, a, b).
    std::vector<RedundantPair> all;
    const auto &fps = snap.idx.fingerprints();
    for (size_t a = 0; a < fps.size(); ++a)
        for (size_t b = a + 1; b < fps.size(); ++b)
            all.push_back({l2Dist(fps.vec(a), fps.vec(b), fps.dim),
                           static_cast<uint32_t>(a),
                           static_cast<uint32_t>(b)});
    std::sort(all.begin(), all.end());
    expectSamePairs(snap.closestPairs, all);
    all.resize(topN);
    expectSamePairs(tablePrefix(snap, topN), all);
    expectSamePairs(knnMergeTop(snap.idx, topN), all);
}

/** Rows drawn from a small pool of points, so exact copies tie at 0. */
Matrix
datasetWithCopies(size_t rows, size_t cols, uint64_t seed)
{
    const Matrix pool = randomDataset(rows / 3 + 1, cols, seed);
    Matrix m;
    Rng rng(seed + 1);
    for (size_t r = 0; r < rows; ++r) {
        m.appendRow(pool.rowVec(rng.below(pool.rows())));
        m.rowNames.push_back("bench" + std::to_string(r));
    }
    return m;
}

TEST(FingerprintIndexTest, PairTableMatchesKnnMergeOracle)
{
    for (const uint64_t seed : {3ull, 11ull, 29ull}) {
        for (const size_t n : {size_t{40}, size_t{97}, size_t{150}}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " n " +
                         std::to_string(n));
            const service::ServerSnapshot snap =
                tabledSnapshot(datasetWithCopies(n, 5, seed));
            const size_t allPairs = n * (n - 1) / 2;
            ASSERT_EQ(snap.closestPairs.size(), allPairs);
            EXPECT_EQ(snap.closestPairs.front().dist, 0.0);
            for (const size_t top :
                 {size_t{0}, size_t{1}, size_t{5}, size_t{10}, size_t{50},
                  size_t{1000}, allPairs, service::kMaxCount}) {
                SCOPED_TRACE("top " + std::to_string(top));
                const auto want = knnMergeTop(snap.idx, top);
                expectSamePairs(tablePrefix(snap, top), want);
                if (top <= 1000)
                    expectSamePairs(renderedPairs(snap, top), want);
            }
            // The max is the walk populationMaxDist used to make.
            const auto &fps = snap.idx.fingerprints();
            double maxD = 0.0;
            for (size_t a = 0; a + 1 < n; ++a)
                for (size_t b = a + 1; b < n; ++b)
                    maxD = std::max(
                        maxD, l2Dist(fps.vec(a), fps.vec(b), fps.dim));
            EXPECT_EQ(snap.maxPairDist, maxD);
            // A smaller cap trims while rows are added; what is kept
            // is still exactly the closest pairs.
            for (const size_t cap : {size_t{0}, size_t{1}, size_t{7},
                                     size_t{50}, size_t{333}}) {
                SCOPED_TRACE("cap " + std::to_string(cap));
                const service::ServerSnapshot small =
                    tabledSnapshot(datasetWithCopies(n, 5, seed), cap);
                expectSamePairs(small.closestPairs,
                                knnMergeTop(snap.idx, cap));
                EXPECT_EQ(small.maxPairDist, snap.maxPairDist);
            }
        }
    }
}

TEST(FingerprintIndexTest, PairTableHoldsExactlyTheCountCeiling)
{
    // 1450 points have 1,050,525 pairs: more than the protocol's top
    // ceiling, so the table keeps exactly that many, the closest.
    const service::ServerSnapshot snap =
        tabledSnapshot(datasetWithCopies(1450, 2, 5));
    ASSERT_EQ(snap.closestPairs.size(), service::kMaxCount);
    expectSamePairs(snap.closestPairs,
                    knnMergeTop(snap.idx, service::kMaxCount));
}

TEST(FingerprintIndexTest, NameLookup)
{
    const Matrix raw = randomDataset(10, 3, 1);
    const FingerprintIndex idx = FingerprintIndex::build(raw);
    EXPECT_EQ(idx.idOf("bench7"), 7);
    EXPECT_EQ(idx.idOf("nope"), -1);
    EXPECT_EQ(idx.nameOf(3), "bench3");
}

// ----------------------------------------------------------------------
// Snapshot durability.
// ----------------------------------------------------------------------

TEST(SnapshotTest, RoundTripPreservesEveryQueryBitwise)
{
    SnapDir tmp;
    const Matrix raw = randomDataset(33, 7, 29);
    FingerprintOptions opt;
    opt.pcaDims = 4;
    const FingerprintIndex built = FingerprintIndex::build(raw, opt);
    ASSERT_TRUE(saveIndexSnapshot(built, tmp.path(), "key-v1"));

    FingerprintIndex loaded;
    std::string why;
    ASSERT_TRUE(loadIndexSnapshot(tmp.path(), "key-v1", &loaded, &why))
        << why;
    EXPECT_EQ(loaded.size(), built.size());
    EXPECT_EQ(loaded.dim(), built.dim());
    EXPECT_EQ(loaded.fingerprints().data, built.fingerprints().data);
    EXPECT_EQ(loaded.fingerprints().names, built.fingerprints().names);

    for (size_t q = 0; q < built.size(); ++q) {
        const auto a = built.knn(q, 6);
        const auto b = loaded.knn(q, 6);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_TRUE(a[i] == b[i]);
    }
    // The frozen embedding survives too: external queries agree.
    const auto ea = built.knnOfRaw(raw.rowVec(0), 3);
    const auto eb = loaded.knnOfRaw(raw.rowVec(0), 3);
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i)
        EXPECT_TRUE(ea[i] == eb[i]);
}

TEST(SnapshotTest, SaveIsAtomicTornWriteRejectsAndRebuilds)
{
    SnapDir tmp;
    const FingerprintIndex built =
        FingerprintIndex::build(randomDataset(12, 4, 5));
    ASSERT_TRUE(saveIndexSnapshot(built, tmp.path(), "key-A"));
    // The staging file was renamed into place, never left behind.
    EXPECT_FALSE(std::filesystem::exists(tmp.path() + ".tmp"));

    // Tear the snapshot mid-file (what a crash used to leave when the
    // writer targeted the final path directly): load rejects cleanly.
    const auto full = std::filesystem::file_size(tmp.path());
    std::filesystem::resize_file(tmp.path(), full / 2);
    FingerprintIndex out;
    std::string why;
    EXPECT_FALSE(loadIndexSnapshot(tmp.path(), "key-A", &out, &why));
    EXPECT_FALSE(why.empty());

    // Re-saving over the torn file rebuilds a loadable snapshot, and
    // a stale .tmp from a crashed writer never blocks it.
    std::ofstream(tmp.path() + ".tmp") << "crash debris";
    ASSERT_TRUE(saveIndexSnapshot(built, tmp.path(), "key-A"));
    EXPECT_FALSE(std::filesystem::exists(tmp.path() + ".tmp"));
    ASSERT_TRUE(loadIndexSnapshot(tmp.path(), "key-A", &out, &why))
        << why;
    EXPECT_EQ(out.size(), built.size());
}

TEST(SnapshotTest, ReadSnapshotKeyPeeksWithoutLoading)
{
    SnapDir tmp;
    const std::string key = "budget=1|space=key|pca=2";
    const FingerprintIndex built =
        FingerprintIndex::build(randomDataset(6, 2, 9));
    ASSERT_TRUE(saveIndexSnapshot(built, tmp.path(), key));
    const auto probe = probeSnapshotKey(tmp.path());
    ASSERT_TRUE(probe.valid);
    EXPECT_EQ(probe.key, key);
    EXPECT_FALSE(probeSnapshotKey(tmp.dir + "/absent.bin").valid);

    // A version-1 header (same layout, older payload) still yields
    // its key, so the space it recorded can be adopted, but the load
    // rejects it and the caller rebuilds.
    {
        std::fstream f(tmp.path(),
                       std::ios::binary | std::ios::in | std::ios::out);
        const uint32_t v1 = 1;
        f.seekp(8);
        f.write(reinterpret_cast<const char *>(&v1), sizeof(v1));
    }
    const auto old = probeSnapshotKey(tmp.path());
    EXPECT_TRUE(old.valid);
    EXPECT_EQ(old.key, key);
    FingerprintIndex out;
    std::string why;
    EXPECT_FALSE(loadIndexSnapshot(tmp.path(), key, &out, &why));
    EXPECT_NE(why.find("version mismatch"), std::string::npos) << why;

    // Any other version is foreign to the probe as well.
    {
        std::fstream f(tmp.path(),
                       std::ios::binary | std::ios::in | std::ios::out);
        const uint32_t v3 = kSnapshotVersion + 1;
        f.seekp(8);
        f.write(reinterpret_cast<const char *>(&v3), sizeof(v3));
    }
    EXPECT_FALSE(probeSnapshotKey(tmp.path()).valid);
}

TEST(SnapshotTest, ProbeReadsHeaderOnlyAndFailsClosed)
{
    SnapDir tmp;
    const FingerprintIndex built =
        FingerprintIndex::build(randomDataset(6, 2, 9));
    ASSERT_TRUE(saveIndexSnapshot(built, tmp.path(), "key-v1"));

    const auto hit = probeSnapshotKey(tmp.path());
    EXPECT_TRUE(hit.valid);
    EXPECT_EQ(hit.key, "key-v1");

    // A missing file probes invalid with an empty key, not stale
    // state from an earlier probe.
    const auto gone = probeSnapshotKey(tmp.dir + "/absent.bin");
    EXPECT_FALSE(gone.valid);
    EXPECT_TRUE(gone.key.empty());

    // A header torn mid-key fails the probe rather than yielding a
    // truncated key that would spuriously mismatch (and rebuild).
    std::filesystem::resize_file(tmp.path(), 8);
    const auto torn = probeSnapshotKey(tmp.path());
    EXPECT_FALSE(torn.valid);
    EXPECT_TRUE(torn.key.empty());

    // Wrong magic is not a snapshot at all.
    {
        std::ofstream bad(tmp.path(), std::ios::binary | std::ios::trunc);
        bad << "NOTANIDX with a plausible-looking tail";
    }
    EXPECT_FALSE(probeSnapshotKey(tmp.path()).valid);
}

TEST(SnapshotTest, RejectsKeyMismatchMissingAndCorruptFiles)
{
    SnapDir tmp;
    const FingerprintIndex built =
        FingerprintIndex::build(randomDataset(8, 3, 2));
    ASSERT_TRUE(saveIndexSnapshot(built, tmp.path(), "key-A"));

    FingerprintIndex out;
    std::string why;
    EXPECT_FALSE(loadIndexSnapshot(tmp.path(), "key-B", &out, &why));
    EXPECT_NE(why.find("mismatch"), std::string::npos);
    EXPECT_FALSE(
        loadIndexSnapshot(tmp.dir + "/absent.bin", "key-A", &out, &why));

    std::ifstream in(tmp.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    // The vectors end the file: anything after them is corruption.
    {
        std::ofstream tail(tmp.path(), std::ios::binary | std::ios::app);
        tail << 'x';
    }
    EXPECT_FALSE(loadIndexSnapshot(tmp.path(), "key-A", &out, &why));
    EXPECT_NE(why.find("trailing bytes"), std::string::npos) << why;

    // Truncation anywhere in the payload rejects the file.
    {
        std::ofstream cut(tmp.path(), std::ios::binary | std::ios::trunc);
        cut.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_FALSE(loadIndexSnapshot(tmp.path(), "key-A", &out, &why));

    // A scribbled magic is not an index snapshot.
    {
        std::ofstream bad(tmp.path(), std::ios::binary | std::ios::trunc);
        bad << "NOTANIDX and then some garbage bytes";
    }
    EXPECT_FALSE(loadIndexSnapshot(tmp.path(), "key-A", &out, &why));
    EXPECT_NE(why.find("not an index snapshot"), std::string::npos);
}

TEST(SnapshotTest, RejectsHugeHeaderCountsWithoutAllocating)
{
    SnapDir tmp;
    const std::string key = "key-A";
    const FingerprintIndex built =
        FingerprintIndex::build(randomDataset(8, 3, 2));
    ASSERT_TRUE(saveIndexSnapshot(built, tmp.path(), key));

    // Patch count and dim to values that pass the per-field caps but
    // whose product would ask for tens of gigabytes: the loader must
    // reject the header, not attempt the allocation.
    std::fstream f(tmp.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const std::streamoff countOff = 8 + 4 + 4 + 4 +
        static_cast<std::streamoff>(key.size());
    const uint64_t hugeCount = 1u << 20, hugeDim = 1u << 16;
    f.seekp(countOff);
    f.write(reinterpret_cast<const char *>(&hugeCount),
            sizeof(hugeCount));
    f.write(reinterpret_cast<const char *>(&hugeDim), sizeof(hugeDim));
    f.close();

    FingerprintIndex out;
    std::string why;
    EXPECT_FALSE(loadIndexSnapshot(tmp.path(), key, &out, &why));
    EXPECT_NE(why.find("corrupt"), std::string::npos);
}

} // namespace
} // namespace mica::index
