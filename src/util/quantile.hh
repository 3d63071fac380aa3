/**
 * @file
 * Exact nearest-rank quantiles for the perf layer.
 *
 * The bench harness and the serve-bench client summarize bounded
 * samples: at most 100 bench repetitions, 1024 kNN round trips, or
 * --conns x --requests round trips. Storing every value and sorting
 * on demand is exact and cheap at that size, so there is no sketch.
 * The daemon's own latency quantiles come from obs histograms, which
 * share the rank convention below.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mica::util
{

/**
 * @return the index selected by quantile @p q over @p n ordered items
 * (the shared nearest-rank convention: ceil(q*n) - 1, clamped).
 */
size_t quantileRank(double q, uint64_t n);

/**
 * Stores every value and answers nearest-rank quantiles over them;
 * quantile(0) is the minimum and quantile(1) the maximum. Memory is
 * O(n). Not thread-safe: one writer, or per-thread samples folded
 * with merge().
 */
class ExactQuantiles
{
  public:
    void add(double v) { values_.push_back(v); }

    /** Append every value of @p other. */
    void
    merge(const ExactQuantiles &other)
    {
        values_.insert(values_.end(), other.values_.begin(),
                       other.values_.end());
    }

    /** @return the nearest-rank quantile; 0.0 when empty. */
    double quantile(double q) const;

    uint64_t count() const { return values_.size(); }

  private:
    mutable std::vector<double> values_;
};

} // namespace mica::util
