#include "index/fingerprint_index.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"

namespace mica::index
{

namespace
{

/** FNV-1a over the name bytes, then avalanched for the flat map. */
uint64_t
nameHash(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return util::hashMix(h);
}

/** Sentinel row id meaning "exclude nothing". */
constexpr size_t kNoSkip = static_cast<size_t>(-1);

/**
 * Exact k nearest of @p q among @p count dim-wide vectors stored flat
 * at @p data, ascending (distance, id), in one pass over the rows.
 * @param skip row id to exclude — queries by an indexed benchmark
 *        exclude the benchmark itself
 */
std::vector<Neighbor>
scanKnn(const double *data, size_t count, size_t dim, const double *q,
        size_t k, size_t skip)
{
    // The k best so far as a max-heap on (distance, id): front() is
    // the worst keeper, so a row that cannot make the cut is rejected
    // with one comparison, and a row that can costs O(log k) for any
    // k (a sorted buffer would go quadratic once k nears count).
    std::vector<Neighbor> best;
    if (k == 0)
        return best;
    best.reserve(std::min(k, count));
    for (size_t i = 0; i < count; ++i) {
        if (i == skip)
            continue;
        const Neighbor n{l2Dist(q, data + i * dim, dim),
                         static_cast<uint32_t>(i)};
        if (best.size() < k) {
            best.push_back(n);
        } else if (n < best.front()) {
            std::pop_heap(best.begin(), best.end());
            best.back() = n;
        } else {
            continue;
        }
        std::push_heap(best.begin(), best.end());
    }
    std::sort_heap(best.begin(), best.end());
    return best;
}

/** All rows with dist <= r (inclusive), same order and skip. */
std::vector<Neighbor>
scanRadius(const double *data, size_t count, size_t dim, const double *q,
           double r, size_t skip)
{
    std::vector<Neighbor> out;
    for (size_t i = 0; i < count; ++i) {
        if (i == skip)
            continue;
        const double d = l2Dist(q, data + i * dim, dim);
        if (d <= r)
            out.push_back({d, static_cast<uint32_t>(i)});
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

FingerprintIndex
FingerprintIndex::build(const Matrix &raw, const FingerprintOptions &opt)
{
    obs::ObsSpan sp("index.build");
    FingerprintIndex idx = fromParts(buildFingerprints(raw, opt));
    sp.arg("points", static_cast<uint64_t>(idx.fps_.size()));
    sp.arg("dim", static_cast<uint64_t>(idx.fps_.dim));
    return idx;
}

FingerprintIndex
FingerprintIndex::fromParts(FingerprintSet fps)
{
    FingerprintIndex idx;
    idx.fps_ = std::move(fps);
    idx.buildNameMap();
    return idx;
}

void
FingerprintIndex::buildNameMap()
{
    nameMap_.clear();
    collision_ = false;
    nameMap_.reserve(fps_.size());
    for (size_t i = 0; i < fps_.size(); ++i) {
        auto [slot, inserted] = nameMap_.tryEmplace(
            nameHash(fps_.names[i]), static_cast<uint32_t>(i));
        if (!inserted && fps_.names[*slot] != fps_.names[i])
            collision_ = true;
    }
}

int64_t
FingerprintIndex::idOf(const std::string &name) const
{
    if (collision_) {
        for (size_t i = 0; i < fps_.size(); ++i) {
            if (fps_.names[i] == name)
                return static_cast<int64_t>(i);
        }
        return -1;
    }
    const uint32_t *id = nameMap_.find(nameHash(name));
    if (!id || fps_.names[*id] != name)
        return -1;
    return static_cast<int64_t>(*id);
}

std::vector<Neighbor>
FingerprintIndex::knn(size_t id, size_t k) const
{
    return scanKnn(fps_.data.data(), fps_.size(), fps_.dim, fps_.vec(id),
                   k, id);
}

std::vector<Neighbor>
FingerprintIndex::knnOfRaw(const std::vector<double> &rawRow,
                           size_t k) const
{
    const std::vector<double> q = fps_.embed(rawRow);
    return scanKnn(fps_.data.data(), fps_.size(), fps_.dim, q.data(), k,
                   kNoSkip);
}

std::vector<Neighbor>
FingerprintIndex::radius(size_t id, double r) const
{
    return scanRadius(fps_.data.data(), fps_.size(), fps_.dim,
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

std::vector<RedundantPair>
FingerprintIndex::mostRedundant(size_t topN,
                                pipeline::ThreadPool *pool) const
{
    const size_t n = fps_.size();
    if (n < 2 || topN == 0)
        return {};
    const size_t k = std::min(topN, n - 1);
    const auto perRow = batchKnn(k, pool);

    // Serial merge in id order: canonicalize to a < b, drop the
    // duplicate each pair produces from its other endpoint.
    util::FlatHashSet<uint64_t> seen;
    seen.reserve(n * k);
    std::vector<RedundantPair> pairs;
    pairs.reserve(n * k / 2);
    for (size_t i = 0; i < n; ++i) {
        for (const Neighbor &nb : perRow[i]) {
            const uint32_t a = std::min<uint32_t>(i, nb.id);
            const uint32_t b = std::max<uint32_t>(i, nb.id);
            const uint64_t pairKey =
                (static_cast<uint64_t>(a) << 32) | b;
            if (seen.insert(pairKey))
                pairs.push_back({nb.dist, a, b});
        }
    }
    std::sort(pairs.begin(), pairs.end());
    if (pairs.size() > topN)
        pairs.resize(topN);
    return pairs;
}

} // namespace mica::index
