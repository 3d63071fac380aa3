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
 * Every query is one exact linear scan over the rows. Results are
 * totally ordered by (distance, id), so ties on distance (duplicated
 * benchmarks exist!) have one canonical order, and every distance is
 * the same l2Dist() expression, so a value has one bit pattern no
 * matter which query produced it. Batch queries fanned across a
 * ThreadPool are byte-identical for any worker count (each query
 * writes its own result slot; no reduction order exists to vary).
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

    /** Index a fingerprint set as-is (how a snapshot reopens). */
    static FingerprintIndex fromParts(FingerprintSet fps);

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
    void buildNameMap();

    FingerprintSet fps_;

    /**
     * name→id over 64-bit name hashes (flat_hash keys are integral).
     * A full-hash collision flips collision_ and lookups fall back to
     * a scan; either way idOf verifies the name before answering.
     */
    util::FlatHashMap<uint64_t, uint32_t> nameMap_;
    bool collision_ = false;
};

} // namespace mica::index
