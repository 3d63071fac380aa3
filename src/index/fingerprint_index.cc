#include "index/fingerprint_index.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"
#include "stats/descriptive.hh"
#include "stats/pca.hh"

namespace mica::index
{

namespace
{

/**
 * Call visit(i, dist) for every row i but @p id, ascending i, with its
 * distance to @p id: down column id of the condensed triangle above
 * the diagonal, then along row id's own run.
 */
template <typename Visit>
void
forEachDist(const DistanceMatrix &d, size_t id, Visit &&visit)
{
    const double *all = d.condensed().data();
    for (size_t i = 0; i < id; ++i)
        visit(i, all[d.pairIndex(i, id)]);
    for (size_t i = id + 1; i < d.numItems(); ++i)
        visit(i, all[d.pairIndex(id, i)]);
}

} // namespace

FingerprintIndex
FingerprintIndex::build(const Matrix &raw, const FingerprintOptions &opt,
                        pipeline::ThreadPool *pool)
{
    obs::ObsSpan sp("index.build");
    FingerprintIndex idx;
    FingerprintSet &fps = idx.fps_;
    fps.columns = opt.columns;
    if (fps.columns.empty()) {
        fps.columns.resize(raw.cols());
        std::iota(fps.columns.begin(), fps.columns.end(), size_t{0});
    }
    for (size_t c : fps.columns) {
        if (c >= raw.cols())
            throw std::invalid_argument(
                "FingerprintIndex::build: column index out of range");
    }

    // The methodology's own normalization and projection (Section IV).
    Matrix v = raw.selectCols(fps.columns);
    zscoreNormalize(v);
    if (opt.pcaDims > 0 && v.cols() > 0)
        v = pcaFit(v).project(v, opt.pcaDims);

    fps.dim = v.cols();
    for (size_t r = 0; r < v.rows(); ++r) {
        fps.names.push_back(r < raw.rowNames.size()
                                ? raw.rowNames[r]
                                : "row" + std::to_string(r));
        fps.data.insert(fps.data.end(), v.row(r), v.row(r) + fps.dim);
    }
    idx.ids_ = util::NameIndex(fps.names);
    idx.dist_ = DistanceMatrix(v, pool);
    sp.arg("points", static_cast<uint64_t>(fps.size()));
    sp.arg("dim", static_cast<uint64_t>(fps.dim));
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
    // The k best so far as a max-heap on (distance, id): front() is
    // the worst keeper, so a row that cannot make the cut is rejected
    // with one comparison, and a row that can costs O(log k) for any
    // k (a sorted buffer would go quadratic once k nears size()).
    std::vector<Neighbor> best;
    if (k == 0)
        return best;
    best.reserve(std::min(k, size()));
    forEachDist(dist_, id, [&](size_t i, double dist) {
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

std::vector<Neighbor>
FingerprintIndex::radius(size_t id, double r) const
{
    std::vector<Neighbor> out;
    forEachDist(dist_, id, [&](size_t i, double dist) {
        if (dist <= r)
            out.push_back({dist, static_cast<uint32_t>(i)});
    });
    std::sort(out.begin(), out.end());
    return out;
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
