#include "index/fingerprint_index.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"

namespace mica::index
{

namespace
{

/** Rows per pass of the scan: eight sums in flight per column. */
constexpr size_t kBlock = 8;

/** Sentinel row id meaning "exclude nothing". */
constexpr size_t kNoSkip = static_cast<size_t>(-1);

/**
 * Two adjacent rows' partial sums, one per lane. A GCC/Clang vector
 * type: each lane is added and multiplied as a plain double (same
 * IEEE operation, same bits), and the compiler keeps a block's four
 * of them in SIMD registers. Written as a plain loop over eight sums,
 * GCC's -O3 cost model vectorizes across columns instead and loses
 * the gain to lane shuffles.
 */
typedef double Lanes __attribute__((vector_size(2 * sizeof(double))));

/** The fingerprints in column-major panels (FingerprintIndex::panels_). */
struct Panels
{
    const double *data;
    size_t count;    ///< real rows; the last panel may be padded
    size_t dim;
};

/**
 * Call visit(id, dist) for every row but @p skip, ascending id, with
 * dist bit-equal to l2Dist(q, row, dim): each row's squared terms are
 * summed in column order, one panel of eight rows per pass.
 */
template <typename Visit>
void
forEachDist(const Panels &t, const double *q, size_t skip, Visit &&visit)
{
    for (size_t lo = 0; lo < t.count; lo += kBlock) {
        Lanes sum[kBlock / 2] = {};
        const double *panel = t.data + lo * t.dim;
        for (size_t c = 0; c < t.dim; ++c) {
            const double qc = q[c];
            const double *col = panel + c * kBlock;
#pragma GCC unroll 4
            for (size_t p = 0; p < kBlock / 2; ++p) {
                Lanes v;
                std::memcpy(&v, col + 2 * p, sizeof(v));
                const Lanes d = qc - v;
                sum[p] += d * d;
            }
        }
        const size_t hi = std::min(t.count, lo + kBlock);
        for (size_t i = lo; i < hi; ++i) {
            if (i != skip)
                visit(i, std::sqrt(sum[(i - lo) / 2][(i - lo) % 2]));
        }
    }
}

/**
 * Exact k nearest of @p q, ascending (distance, id), in one pass over
 * the rows.
 * @param skip row id to exclude — queries by an indexed benchmark
 *        exclude the benchmark itself
 */
std::vector<Neighbor>
scanKnn(const Panels &t, const double *q, size_t k, size_t skip)
{
    // The k best so far as a max-heap on (distance, id): front() is
    // the worst keeper, so a row that cannot make the cut is rejected
    // with one comparison, and a row that can costs O(log k) for any
    // k (a sorted buffer would go quadratic once k nears count).
    std::vector<Neighbor> best;
    if (k == 0)
        return best;
    best.reserve(std::min(k, t.count));
    forEachDist(t, q, skip, [&](size_t i, double dist) {
        const Neighbor n{dist, static_cast<uint32_t>(i)};
        if (best.size() < k) {
            best.push_back(n);
        } else if (n < best.front()) {
            std::pop_heap(best.begin(), best.end());
            best.back() = n;
        } else {
            return;
        }
        std::push_heap(best.begin(), best.end());
    });
    std::sort_heap(best.begin(), best.end());
    return best;
}

/** All rows with dist <= r (inclusive), same order and skip. */
std::vector<Neighbor>
scanRadius(const Panels &t, const double *q, double r, size_t skip)
{
    std::vector<Neighbor> out;
    forEachDist(t, q, skip, [&](size_t i, double dist) {
        if (dist <= r)
            out.push_back({dist, static_cast<uint32_t>(i)});
    });
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

FingerprintIndex
FingerprintIndex::build(const Matrix &raw, const FingerprintOptions &opt)
{
    obs::ObsSpan sp("index.build");
    FingerprintIndex idx;
    idx.fps_ = buildFingerprints(raw, opt);
    idx.ids_ = util::NameIndex(idx.fps_.names);
    const size_t n = idx.fps_.size();
    const size_t dim = idx.fps_.dim;
    idx.panels_.assign((n + kBlock - 1) / kBlock * kBlock * dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
        double *panel = idx.panels_.data() + (i - i % kBlock) * dim;
        for (size_t c = 0; c < dim; ++c)
            panel[c * kBlock + i % kBlock] = idx.fps_.vec(i)[c];
    }
    sp.arg("points", static_cast<uint64_t>(n));
    sp.arg("dim", static_cast<uint64_t>(dim));
    return idx;
}

int64_t
FingerprintIndex::idOf(const std::string &name) const
{
    return ids_.find(name);
}

std::vector<Neighbor>
FingerprintIndex::knn(size_t id, size_t k) const
{
    return scanKnn({panels_.data(), size(), dim()}, fps_.vec(id), k,
                   id);
}

std::vector<Neighbor>
FingerprintIndex::knnOfRaw(const std::vector<double> &rawRow,
                           size_t k) const
{
    const std::vector<double> q = fps_.embed(rawRow);
    return scanKnn({panels_.data(), size(), dim()}, q.data(), k,
                   kNoSkip);
}

std::vector<Neighbor>
FingerprintIndex::radius(size_t id, double r) const
{
    return scanRadius({panels_.data(), size(), dim()},
                      fps_.vec(id), r, id);
}

std::vector<std::vector<Neighbor>>
FingerprintIndex::batchKnn(size_t k, pipeline::ThreadPool *pool) const
{
    const size_t n = fps_.size();
    obs::ObsSpan sp("index.batch_knn");
    sp.arg("queries", static_cast<uint64_t>(n));
    sp.arg("k", static_cast<uint64_t>(k));
    std::vector<std::vector<Neighbor>> out(n);
    const size_t blocks = pool && pool->workerCount() > 1
        ? std::min(n, pool->workerCount() * 4) : 1;
    pipeline::parallelBlocks(pool, blocks, [&](size_t b) {
        const size_t lo = n * b / blocks;
        const size_t hi = n * (b + 1) / blocks;
        for (size_t i = lo; i < hi; ++i)
            out[i] = knn(i, k);
    });
    return out;
}

} // namespace mica::index
