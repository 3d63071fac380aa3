/**
 * @file
 * Workload fingerprints: the vectors the similarity index compares.
 *
 * The paper compares benchmarks by Euclidean distance in a z-score
 * normalized characteristic space (Section IV); a *fingerprint* is one
 * benchmark's position in that space. FingerprintIndex::build makes
 * them with the code the methodology runs: it selects the source
 * columns, applies zscoreNormalize and, when asked, projects onto
 * principal components with pcaFit(...).project, so a fingerprint is
 * bit-identical to the row a WorkloadSpace over the same columns
 * holds. The normalization is a property of the population, so only
 * benchmarks in it are fingerprinted; nothing is embedded later.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mica::index
{

/** Knobs that shape the fingerprint space. */
struct FingerprintOptions
{
    /**
     * Raw-matrix columns to fingerprint (empty = all columns). The GA
     * key-characteristic subset goes here for the reduced space.
     */
    std::vector<size_t> columns;

    /**
     * Project the normalized space onto this many principal components
     * (0 = no projection; the fingerprint is the z-scored vector).
     */
    size_t pcaDims = 0;
};

/** The fingerprints of one population, in row order. */
struct FingerprintSet
{
    /** Bump when the fingerprint semantics change. */
    static constexpr uint32_t kVersion = 1;

    size_t dim = 0;                     ///< fingerprint dimensionality
    std::vector<std::string> names;     ///< one per fingerprint, row order
    std::vector<double> data;           ///< flat row-major, size() x dim
    std::vector<size_t> columns;        ///< resolved raw columns used

    /** @return number of fingerprints. */
    size_t size() const { return names.size(); }

    /** @return fingerprint vector i (dim doubles). */
    const double *vec(size_t i) const { return data.data() + i * dim; }
};

} // namespace mica::index
