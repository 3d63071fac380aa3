/**
 * @file
 * The perf gate: compare two mica-perf-profile/2 documents.
 *
 * bench/perf_analyzers --json=FILE writes one dispersion summary
 * ({p50, p90, min, max, n}) per metric, grouped into families. This
 * library flattens two such documents to dotted metric paths
 * ("serve.daemon_requests_per_sec.conns8") and judges each path of
 * the base against the new document:
 *
 *  - Direction comes from the path: `_ns`/`_us` suffixes are costs
 *    (lower is better), everything else is a rate.
 *  - With n >= 4 on both sides the medians are compared; below that
 *    the median is itself a noisy draw, so the best observed values
 *    are (max of a rate, min of a cost).
 *  - Each family has a band (kPerfFamilies): a drop up to `noise`
 *    passes, up to `fail` is degraded, beyond it is a regression.
 *  - A failed measurement is a regression whichever way the metric
 *    points: a new summary with n == 0, or a value <= 0 against a
 *    positive base, counts as a 100% drop.
 *  - A base value <= 0 (an old document's failed family) cannot be
 *    regressed against and passes.
 *  - Paths in the base but not in the new document are missing, which
 *    fails the gate unless missing paths are allowed.
 *
 * `mica perf compare` prints the findings and writes the verdict.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/json.hh"

namespace mica::experiments
{

/** Schema tag of the profiles bench/perf_analyzers writes. */
inline constexpr char kPerfProfileSchema[] = "mica-perf-profile/2";

/** Schema tag of the verdict document perfVerdictJson builds. */
inline constexpr char kPerfVerdictSchema[] = "mica-perf-verdict/1";

/**
 * One perf_analyzers family and its band, as fractions of the base
 * value. The bands are loose enough for shared CI runners: degraded
 * carries the warning, and only unambiguous cliffs fail. Socket-bound
 * and telemetry numbers get the widest band.
 */
struct PerfFamily
{
    const char *name;
    double noise;   ///< drops up to this are measurement noise
    double fail;    ///< drops past this are regressions
};

/** Every family, in the order the harness writes them. */
inline constexpr PerfFamily kPerfFamilies[] = {
    {"analyzers", 0.10, 0.45},   {"engine", 0.10, 0.40},
    {"methodology", 0.12, 0.50}, {"trace_replay", 0.12, 0.50},
    {"trace_v2", 0.12, 0.50},    {"index", 0.12, 0.50},
    {"serve", 0.15, 0.60},       {"obs", 0.15, 0.60},
};

/** @return the family named @p name; unknown names get the first band. */
const PerfFamily &perfFamily(const std::string &name);

/** @return whether @p path times a cost (_ns/_us): lower is better. */
bool perfLowerIsBetter(const std::string &path);

/** One dispersion summary pulled out of a profile document. */
struct PerfMetric
{
    double p50 = 0.0;
    double min = 0.0;
    double max = 0.0;
    int64_t n = 0;
};

/** Summaries by dotted path under "families". */
using PerfMetrics = std::map<std::string, PerfMetric>;

/**
 * Parse one profile document. Every {p50, ..., n} object under
 * "families" becomes one path; bare numbers (derived ratios, host
 * facts) are not gated. @return false with @p err set when the text
 * is not a profile or holds no summary.
 */
bool parsePerfProfile(const std::string &text, PerfMetrics *out,
                      std::string *err);

/**
 * parsePerfProfile over the file at @p path.
 * @throws util::IoError when the file cannot be read.
 */
bool loadPerfProfile(const std::string &path, PerfMetrics *out,
                     std::string *err);

enum class PerfStatus { Ok, Degraded, Regression };

/** @return "ok", "degraded" or "regression". */
const char *perfStatusName(PerfStatus s);

/** The judgement of one path present in both documents. */
struct PerfFinding
{
    std::string metric;
    std::string family;
    double base = 0.0;    ///< compared base value (p50 or best)
    double fresh = 0.0;   ///< compared new value
    bool best = false;    ///< compared best values, not medians
    double drop = 0.0;    ///< fraction lost; negative is a gain
    PerfStatus status = PerfStatus::Ok;
};

/** Every finding of one comparison and the verdict they add up to. */
struct PerfComparison
{
    std::vector<PerfFinding> findings;   ///< by path
    std::vector<std::string> missing;    ///< base paths absent from new
    bool allowMissing = false;
    size_t ok = 0;
    size_t degraded = 0;
    size_t regressed = 0;

    /** @return the finding with the largest positive drop, or null. */
    const PerfFinding *worst() const;

    /** @return "pass", "degraded" or "regression". */
    const char *verdict() const;

    /** @return 0 (pass), 3 (degraded) or 1 (regression). */
    int exitCode() const;
};

/** Judge every path of @p base against @p fresh. */
PerfComparison comparePerfProfiles(const PerfMetrics &base,
                                   const PerfMetrics &fresh,
                                   bool allowMissing);

/** The mica-perf-verdict/1 document of @p cmp. */
service::JsonValue perfVerdictJson(const PerfComparison &cmp,
                                   const std::string &basePath,
                                   const std::string &newPath);

} // namespace mica::experiments
