/**
 * @file
 * FingerprintIndex: the queryable workload-similarity index.
 *
 * Binds a FingerprintSet (the frozen vectors + embedding parameters)
 * to a flat-hash name→id map and answers the two queries the paper's
 * methodology keeps re-deriving from scratch: nearest neighbors of a
 * workload (is this application already covered?) and everything
 * within a similarity radius (the paper's 20%-of-max threshold). The
 * most redundant pairs in a population (which tuples waste
 * simulation time) are a constant of the population: the query
 * service computes them once per snapshot, in one pass over all
 * pairs (service::fillAnswerTables), as RedundantPair rows.
 *
 * Every query is one exact linear scan over the rows. The index keeps
 * a column-major copy of the fingerprints in panels of eight rows
 * (built with the index), and the scan sums one panel per pass: the
 * inner loop reads eight adjacent values of one column and keeps
 * eight independent sums, and the panels are read front to back. Each
 * row's terms are still added in column order, as l2Dist() adds them, so
 * every distance has l2Dist()'s bits: a value has one bit pattern no
 * matter which query (or the snapshot's all-pairs pass) produced it.
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

/** Euclidean distance between two dim-wide vectors. */
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

    /** Fingerprint a raw dataset and index it. */
    static FingerprintIndex build(const Matrix &raw,
                                  const FingerprintOptions &opt = {});

    size_t size() const { return fps_.size(); }

    size_t dim() const { return fps_.dim; }

    const FingerprintSet &fingerprints() const { return fps_; }

    /** @return fingerprint id for a benchmark name, or -1. */
    int64_t idOf(const std::string &name) const;

    /** @return benchmark name for a fingerprint id. */
    const std::string &nameOf(size_t id) const { return fps_.names[id]; }

    /**
     * k nearest indexed neighbors of indexed benchmark @p id, self
     * excluded, ascending (distance, id).
     */
    std::vector<Neighbor> knn(size_t id, size_t k) const;

    /** k nearest neighbors of an external raw row (embedded first). */
    std::vector<Neighbor> knnOfRaw(const std::vector<double> &rawRow,
                                   size_t k) const;

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

    /**
     * fps_ again, column-major in panels of eight rows: panel p holds
     * rows 8p..8p+7, column by column, so component c of fingerprint
     * i sits at panels_[(i - i % 8) * dim() + c * 8 + i % 8]. A scan
     * reads the panels front to back; padding rows are zero.
     */
    std::vector<double> panels_;
};

} // namespace mica::index
