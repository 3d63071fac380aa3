/**
 * @file
 * Tests for the workload-fingerprint similarity index: fingerprints
 * against the methodology's own normalization, the kNN/radius answers
 * read off the distance matrix against a full-sort l2Dist oracle (bit
 * equality is the property the whole subsystem rests on), pooled
 * build and batch-query determinism, the query snapshot's closest-pair
 * table against a per-row kNN merge oracle, and the index record's
 * durability and checks.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/fingerprint_index.hh"
#include "index/snapshot.hh"
#include "methodology/workload_space.hh"
#include "pipeline/thread_pool.hh"
#include "service/json.hh"
#include "service/query_engine.hh"
#include "stats/rng.hh"
#include "trace/trace_file.hh"
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
 * The reference kNN: every distance by l2Dist, one full sort by
 * (distance, id), truncated to k. Slow and obviously right; the index
 * must match it bit for bit, order included.
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
    const FingerprintIndex idx = FingerprintIndex::build(raw);
    const FingerprintSet &fps = idx.fingerprints();
    const WorkloadSpace space{raw};
    ASSERT_EQ(fps.size(), 20u);
    ASSERT_EQ(fps.dim, 5u);
    for (size_t r = 0; r < 20; ++r)
        for (size_t c = 0; c < 5; ++c)
            EXPECT_EQ(fps.vec(r)[c], space.normalized().at(r, c))
                << "row " << r << " col " << c;
    // One distance matrix: the methodology's is the index's.
    EXPECT_EQ(idx.distances().condensed(), space.distances().condensed());
}

TEST(FingerprintTest, ColumnSubsetRefreezesNormalization)
{
    const Matrix raw = randomDataset(12, 8, 7);
    FingerprintOptions opt;
    opt.columns = {1, 4, 6};
    const FingerprintIndex idx = FingerprintIndex::build(raw, opt);
    const FingerprintSet &fps = idx.fingerprints();
    EXPECT_EQ(fps.dim, 3u);
    // Same as a fingerprint set over the projected matrix.
    const FingerprintIndex direct =
        FingerprintIndex::build(raw.selectCols(opt.columns));
    for (size_t r = 0; r < raw.rows(); ++r)
        for (size_t c = 0; c < 3; ++c)
            EXPECT_EQ(fps.vec(r)[c], direct.fingerprints().vec(r)[c]);
}

TEST(FingerprintTest, ConstantColumnsAndWidthMismatchAreHandled)
{
    Matrix raw;
    raw.appendRow({1.0, 2.0});
    raw.appendRow({1.0, 4.0});
    raw.rowNames = {"a", "b"};
    const FingerprintIndex idx = FingerprintIndex::build(raw);
    const FingerprintSet &fps = idx.fingerprints();
    EXPECT_EQ(fps.vec(0)[0], 0.0);      // constant column -> zero
    EXPECT_EQ(fps.vec(1)[0], 0.0);
    // A column past the raw width is rejected, not read.
    FingerprintOptions wide;
    wide.columns = {0, 2};
    EXPECT_THROW(FingerprintIndex::build(raw, wide), std::invalid_argument);
}

// ----------------------------------------------------------------------
// Answers read off the distance matrix vs the full-sort oracle: the
// bit-equality property. The VpTreeTest cases keep the seeds, sizes,
// k values, ties and boundary radii that first pinned a VP-tree.
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
    // r) is actually exercised: the answer must include it.
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
}

TEST(FingerprintIndexTest, ColumnScanKeepsL2DistBits)
{
    // Every knn and radius distance, read off the matrix, has l2Dist's
    // bits (the name predates the matrix). n from one row (no pairs)
    // to the real population; dims below, at and past 47. Every third
    // row repeats the one before it, so ties are exact.
    const auto bits = [](double d) {
        uint64_t u = 0;
        std::memcpy(&u, &d, sizeof(u));
        return u;
    };
    for (const size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                           size_t{122}}) {
        for (const size_t dim : {size_t{1}, size_t{7}, size_t{47},
                                 size_t{64}}) {
            SCOPED_TRACE("n " + std::to_string(n) + " dim " +
                         std::to_string(dim));
            const Matrix rnd = randomDataset(n, dim, 1000 * n + dim);
            Matrix raw;
            for (size_t r = 0; r < n; ++r) {
                raw.appendRow(rnd.rowVec(r % 3 == 2 ? r - 1 : r));
                raw.rowNames.push_back(rnd.rowNames[r]);
            }
            const FingerprintIndex idx = FingerprintIndex::build(raw);
            const FingerprintSet &fps = idx.fingerprints();
            for (size_t q = 0; q < n; ++q) {
                // k >= n and a radius past everything: every other row,
                // each distance with l2Dist's bits.
                const auto all = idx.knn(q, n + 1);
                ASSERT_EQ(all.size(), n - 1);
                const auto within = idx.radius(q, 1e300);
                ASSERT_EQ(within.size(), n - 1);
                for (const auto *got : {&all, &within}) {
                    for (const Neighbor &nb : *got) {
                        ASSERT_EQ(bits(nb.dist),
                                  bits(l2Dist(fps.vec(q), fps.vec(nb.id),
                                              dim)))
                            << "query " << q << " row " << nb.id;
                    }
                }
                const auto want = fullSortKnn(fps, fps.vec(q), n, q);
                expectSameNeighbors(all, want);
                for (const size_t k : {size_t{0}, size_t{1}, size_t{3},
                                       n - 1, n}) {
                    expectSameNeighbors(idx.knn(q, k),
                                        fullSortKnn(fps, fps.vec(q), k, q));
                }
                // Radius at 0 (the exact copies), at a realized
                // distance (inclusive) and past everything.
                for (const double r :
                     {0.0, want.empty() ? 0.0 : want[want.size() / 2].dist,
                      1e300}) {
                    std::vector<Neighbor> in;
                    for (const Neighbor &nb : want) {
                        if (nb.dist <= r)
                            in.push_back(nb);
                    }
                    expectSameNeighbors(idx.radius(q, r), in);
                }
            }
        }
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
    EXPECT_EQ(FingerprintIndex::build(raw, {}, &pool).distances().condensed(),
              idx.distances().condensed());
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
// The index record (index.bin).
// ----------------------------------------------------------------------

/** @return the bytes of @p path. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Overwrite @p path with @p bytes. */
void
putBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/** Overwrite the u32 at @p at in @p bytes with @p v. */
void
patchU32(std::string &bytes, size_t at, uint32_t v)
{
    std::memcpy(&bytes[at], &v, sizeof(v));
}

/** Recompute the trailing FNV-1a of a record's bytes. */
void
resealRecord(std::string &bytes)
{
    const uint64_t sum = fnv1a(bytes.data(), bytes.size() - 8);
    std::memcpy(&bytes[bytes.size() - 8], &sum, sizeof(sum));
}

/** Byte offset of the source width: magic, versions, key. */
size_t
sourceColsOffset(const std::string &key)
{
    return 8 + 4 + 4 + 4 + key.size();
}

TEST(SnapshotTest, RoundTripPreservesEveryQueryBitwise)
{
    SnapDir tmp;
    const Matrix raw = randomDataset(33, 7, 29);
    FingerprintOptions opt;
    opt.columns = {5, 0, 3, 6};
    opt.pcaDims = 2;
    const FingerprintIndex built = FingerprintIndex::build(raw, opt);
    ASSERT_TRUE(
        saveIndexRecord({"key-v1", raw.cols(), opt.columns}, tmp.path()));
    EXPECT_LT(std::filesystem::file_size(tmp.path()), 100u);

    IndexRecord rec;
    std::string why;
    ASSERT_TRUE(loadIndexRecord(tmp.path(), &rec, &why)) << why;
    EXPECT_EQ(rec.key, "key-v1");
    EXPECT_EQ(rec.sourceCols, raw.cols());
    EXPECT_EQ(rec.columns, opt.columns);    // order kept

    // An index built over the recorded columns is the same index.
    FingerprintOptions again = opt;
    again.columns = rec.columns;
    const FingerprintIndex loaded = FingerprintIndex::build(raw, again);
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
}

TEST(SnapshotTest, SaveIsAtomicTornWriteRejectsAndRebuilds)
{
    SnapDir tmp;
    const IndexRecord want{"key-A", 4, {0, 1, 2, 3}};
    ASSERT_TRUE(saveIndexRecord(want, tmp.path()));
    // The staging file was renamed into place, never left behind.
    EXPECT_FALSE(std::filesystem::exists(tmp.path() + ".tmp"));

    // Tear the record mid-file (what a crash used to leave when the
    // writer targeted the final path directly): load rejects cleanly.
    const auto full = std::filesystem::file_size(tmp.path());
    std::filesystem::resize_file(tmp.path(), full / 2);
    IndexRecord out;
    std::string why;
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &out, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_TRUE(out.key.empty());

    // Re-saving over the torn file gives a loadable record, and a
    // stale .tmp from a crashed writer never blocks it.
    std::ofstream(tmp.path() + ".tmp") << "crash debris";
    ASSERT_TRUE(saveIndexRecord(want, tmp.path()));
    EXPECT_FALSE(std::filesystem::exists(tmp.path() + ".tmp"));
    ASSERT_TRUE(loadIndexRecord(tmp.path(), &out, &why)) << why;
    EXPECT_EQ(out.key, want.key);
    EXPECT_EQ(out.columns, want.columns);
}

TEST(SnapshotTest, ReadSnapshotKeyPeeksWithoutLoading)
{
    SnapDir tmp;
    const std::string key = "budget=1|space=key|pca=2";
    ASSERT_TRUE(saveIndexRecord({key, 4, {1, 3}}, tmp.path()));
    IndexRecord rec;
    std::string why;
    ASSERT_TRUE(loadIndexRecord(tmp.path(), &rec, &why)) << why;
    EXPECT_EQ(rec.key, key);
    EXPECT_FALSE(loadIndexRecord(tmp.dir + "/absent.bin", &rec, &why));
    EXPECT_TRUE(rec.key.empty());
    EXPECT_NE(why.find("no index record"), std::string::npos) << why;

    // Formats 1-3 share the header up to the key and held the whole
    // index after it: they yield their key, so the space it names
    // can be adopted, but no columns, so the open rebuilds.
    const std::string bytes = fileBytes(tmp.path());
    for (uint32_t v : {1u, 2u, 3u}) {
        std::string old = bytes;
        patchU32(old, 8, v);
        putBytes(tmp.path(), old);
        EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
        EXPECT_EQ(rec.key, key) << "format " << v;
        EXPECT_TRUE(rec.columns.empty());
        EXPECT_NE(why.find("predates"), std::string::npos) << why;
    }

    // Any other version is foreign.
    for (uint32_t v : {0u, kSnapshotVersion + 1}) {
        std::string other = bytes;
        patchU32(other, 8, v);
        putBytes(tmp.path(), other);
        EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
        EXPECT_TRUE(rec.key.empty());
        EXPECT_NE(why.find("version mismatch"), std::string::npos) << why;
    }
}

TEST(SnapshotTest, ProbeReadsHeaderOnlyAndFailsClosed)
{
    SnapDir tmp;
    const std::string key = "data=0|space=hpc|pca=0";

    // An older format is read up to its key only: whatever follows
    // (the index it used to hold) is never parsed.
    std::string old = "MICAIDX\n";
    old.append("\x03\0\0\0\x01\0\0\0", 8);
    const uint32_t len = static_cast<uint32_t>(key.size());
    old.append(reinterpret_cast<const char *>(&len), sizeof(len));
    old += key;
    old += "an old payload that no longer parses";
    putBytes(tmp.path(), old);
    IndexRecord rec;
    std::string why;
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
    EXPECT_EQ(rec.key, key);

    // A header torn mid-key fails closed: no key at all rather than a
    // truncated one, in the old format and the current one.
    for (size_t cut : {size_t{8}, size_t{18}, 20 + key.size() - 3}) {
        putBytes(tmp.path(), old.substr(0, cut));
        EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
        EXPECT_TRUE(rec.key.empty()) << "cut at " << cut;
    }
    ASSERT_TRUE(saveIndexRecord({key, 7, {0, 1, 2, 3, 4, 5, 6}},
                                tmp.path()));
    const std::string current = fileBytes(tmp.path());
    for (size_t cut = 0; cut < current.size(); ++cut) {
        putBytes(tmp.path(), current.substr(0, cut));
        EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
        EXPECT_TRUE(rec.key.empty()) << "cut at " << cut;
    }

    // Wrong magic is not a record at all.
    putBytes(tmp.path(), "NOTANIDX with a plausible-looking tail");
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
    EXPECT_TRUE(rec.key.empty());
    EXPECT_NE(why.find("not an index record"), std::string::npos) << why;
}

TEST(SnapshotTest, RejectsKeyMismatchMissingAndCorruptFiles)
{
    SnapDir tmp;
    ASSERT_TRUE(saveIndexRecord({"key-A", 3, {2, 0}}, tmp.path()));
    const std::string bytes = fileBytes(tmp.path());
    IndexRecord rec;
    std::string why;

    // A record names its key exactly, for the open to compare; a key
    // edited in place does not survive the checksum.
    ASSERT_TRUE(loadIndexRecord(tmp.path(), &rec, &why)) << why;
    EXPECT_EQ(rec.key, "key-A");
    std::string edited = bytes;
    edited[20 + 4] = 'B';
    putBytes(tmp.path(), edited);
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
    EXPECT_TRUE(rec.key.empty());
    EXPECT_NE(why.find("checksum"), std::string::npos) << why;

    // The checksum ends the file: anything after it is corruption.
    putBytes(tmp.path(), bytes + "x");
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
    EXPECT_NE(why.find("size"), std::string::npos) << why;

    // Truncation rejects the file.
    putBytes(tmp.path(), bytes.substr(0, bytes.size() - 1));
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));

    // A scribbled magic is not an index record.
    putBytes(tmp.path(), "NOTANIDX and then some garbage bytes");
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
    EXPECT_NE(why.find("not an index record"), std::string::npos);
}

TEST(SnapshotTest, RejectsHugeHeaderCountsWithoutAllocating)
{
    SnapDir tmp;
    const std::string key = "key-A";
    ASSERT_TRUE(saveIndexRecord({key, 3, {2, 0}}, tmp.path()));
    const std::string bytes = fileBytes(tmp.path());
    const size_t at = sourceColsOffset(key);
    IndexRecord rec;
    std::string why;

    // A column count past the source width rejects before the column
    // table is allocated, even with a valid checksum.
    std::string count = bytes;
    patchU32(count, at + 4, 0xffffffffu);
    resealRecord(count);
    putBytes(tmp.path(), count);
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
    EXPECT_NE(why.find("column count past the source width"),
              std::string::npos) << why;

    // A width that admits the count still has to match the bytes
    // present: 2^32 - 1 columns would be 32 GiB.
    patchU32(count, at, 0xffffffffu);
    resealRecord(count);
    putBytes(tmp.path(), count);
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
    EXPECT_NE(why.find("does not match its column count"),
              std::string::npos) << why;

    // A column index past the source width rejects.
    std::string column = bytes;
    patchU32(column, at + 8, 3);
    resealRecord(column);
    putBytes(tmp.path(), column);
    EXPECT_FALSE(loadIndexRecord(tmp.path(), &rec, &why));
    EXPECT_NE(why.find("column index past the source width"),
              std::string::npos) << why;
    EXPECT_TRUE(rec.columns.empty());
    EXPECT_TRUE(rec.key.empty());
}

TEST(SnapshotTest, EveryFlippedVectorByteRejectsAsChecksum)
{
    SnapDir tmp;
    const std::string key = "data=00ff|space=key|pca=0";
    const IndexRecord want{key, 47, {46, 3, 17, 0, 29}};
    ASSERT_TRUE(saveIndexRecord(want, tmp.path()));
    const std::string whole = fileBytes(tmp.path());
    ASSERT_EQ(whole.size(), sourceColsOffset(key) + 8 +
                                4 * want.columns.size() + 8);

    // Every bit of every byte matters. The key, the column vector and
    // the checksum keep every length and count valid when flipped,
    // so only the checksum can see those; the rest may also fail a
    // header or size check first.
    IndexRecord out;
    std::string why;
    const size_t keyStart = 20, columnsStart = sourceColsOffset(key) + 8;
    for (size_t at = 0; at < whole.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = whole;
            flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
            putBytes(tmp.path(), flipped);
            EXPECT_FALSE(loadIndexRecord(tmp.path(), &out, &why))
                << "byte " << at << " bit " << bit;
            EXPECT_TRUE(out.key.empty());
            const bool sealedOnly =
                (at >= keyStart && at < keyStart + key.size()) ||
                at >= columnsStart;
            if (sealedOnly)
                EXPECT_NE(why.find("checksum"), std::string::npos)
                    << "byte " << at << ": " << why;
        }
    }
    putBytes(tmp.path(), whole);
    ASSERT_TRUE(loadIndexRecord(tmp.path(), &out, &why)) << why;
    EXPECT_EQ(out.columns, want.columns);
}

} // namespace
} // namespace mica::index
