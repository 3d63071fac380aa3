/**
 * @file
 * FingerprintIndex: the queryable workload-similarity index.
 *
 * Binds a FingerprintSet to a flat-hash name→id map and to the matrix
 * of all pairwise distances among its fingerprints, and answers the
 * two queries the paper's methodology keeps re-deriving from scratch:
 * nearest neighbors of a workload (is this application already
 * covered?) and everything within a similarity radius (the paper's
 * 20%-of-max threshold). The most redundant pairs in a population
 * (which tuples waste simulation time) are a constant of the
 * population: the query service reads them off the same matrix once
 * per snapshot (service::fillAnswerTables), as RedundantPair rows.
 *
 * The index is its distance matrix. build() computes every pair once,
 * with the DistanceMatrix the methodology uses (bit-identical for any
 * worker count), and a query selects from its benchmark's row of it:
 * no query computes a distance, and a value has one bit pattern no
 * matter which query or table shows it — l2Dist()'s, since both add
 * each pair's squared terms in column order. The trade is memory:
 * n(n-1)/2 doubles, 59 KB at the paper's 122 benchmarks.
 * Results are totally ordered by (distance, id), so ties on distance
 * (duplicated benchmarks exist!) have one canonical order. Batch
 * queries fanned across a ThreadPool are byte-identical for any
 * worker count (each query writes its own result slot; no reduction
 * order exists to vary).
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "index/fingerprint.hh"
#include "stats/distance.hh"
#include "util/flat_hash.hh"

namespace mica::pipeline
{
class ThreadPool;
} // namespace mica::pipeline

namespace mica::index
{

/** One query result: distance to the query plus the fingerprint id. */
struct Neighbor
{
    double dist = 0.0;
    uint32_t id = 0;

    /** Canonical result order: by distance, ties by id. */
    bool
    operator<(const Neighbor &o) const
    {
        return dist != o.dist ? dist < o.dist : id < o.id;
    }

    bool
    operator==(const Neighbor &o) const
    {
        return dist == o.dist && id == o.id;
    }
};

/**
 * Euclidean distance between two dim-wide vectors: the tests' oracle
 * for the distance matrix's bits.
 */
inline double
l2Dist(const double *a, const double *b, size_t dim)
{
    double s = 0.0;
    for (size_t c = 0; c < dim; ++c) {
        const double d = a[c] - b[c];
        s += d * d;
    }
    return std::sqrt(s);
}

/** One redundant tuple: two benchmarks and their distance, a < b. */
struct RedundantPair
{
    double dist = 0.0;
    uint32_t a = 0;
    uint32_t b = 0;

    bool
    operator<(const RedundantPair &o) const
    {
        if (dist != o.dist)
            return dist < o.dist;
        return a != o.a ? a < o.a : b < o.b;
    }

    bool
    operator==(const RedundantPair &o) const
    {
        return dist == o.dist && a == o.a && b == o.b;
    }
};

class FingerprintIndex
{
  public:
    FingerprintIndex() = default;

    /**
     * Fingerprint a raw dataset and compute every pairwise distance,
     * fanned across @p pool (nullptr = serial).
     * @throw std::invalid_argument for a column past the raw width
     */
    static FingerprintIndex build(const Matrix &raw,
                                  const FingerprintOptions &opt = {},
                                  pipeline::ThreadPool *pool = nullptr);

    size_t size() const { return fps_.size(); }

    size_t dim() const { return fps_.dim; }

    const FingerprintSet &fingerprints() const { return fps_; }

    /** Every pairwise fingerprint distance. */
    const DistanceMatrix &distances() const { return dist_; }

    /** @return fingerprint id for a benchmark name, or -1. */
    int64_t idOf(const std::string &name) const;

    /** @return benchmark name for a fingerprint id. */
    const std::string &nameOf(size_t id) const { return fps_.names[id]; }

    /**
     * k nearest indexed neighbors of indexed benchmark @p id, self
     * excluded, ascending (distance, id).
     */
    std::vector<Neighbor> knn(size_t id, size_t k) const;

    /** Indexed neighbors of @p id within r (inclusive), self excluded. */
    std::vector<Neighbor> radius(size_t id, double r) const;

    /**
     * knn(id, k) for every indexed benchmark, fanned across @p pool
     * (nullptr = serial). Byte-identical for any worker count.
     */
    std::vector<std::vector<Neighbor>>
    batchKnn(size_t k, pipeline::ThreadPool *pool = nullptr) const;

  private:
    FingerprintSet fps_;

    /** name -> id over fps_.names. */
    util::NameIndex ids_;

    /** Distance between fingerprints i and j at dist_.at(i, j). */
    DistanceMatrix dist_;
};

} // namespace mica::index
