/**
 * @file
 * Runtime telemetry: a metrics registry and a scoped span tracer.
 *
 * Every subsystem reports what it did (counters, gauges, log2
 * histograms) and where the time went (RAII spans) through this one
 * header, and hot paths pay almost nothing for it. Each thread owns a
 * private slab of atomic cells; an increment is one relaxed load +
 * store on the calling thread's own cache line region — no lock, no
 * CAS, no heap allocation per event. Readers fold the slabs (plus the
 * folded totals of exited threads) at snapshot time. Spans record
 * into a bounded per-thread ring only while a sink (--trace-out /
 * --obs-summary) armed the tracer; with the tracer idle an ObsSpan is
 * one relaxed bool load. The bench obs family measures that cost in
 * the one build: the full-profile rate with the tracer armed against
 * the same binary idle.
 *
 * Metric names follow `subsystem.noun.verb` (store.bytes.written,
 * pool.task.run_us, index.snapshot.reject). Handles are cheap to
 * construct and deduplicate by name, so `static obs::Counter` at the
 * use site is the idiomatic pattern.
 *
 * The trace drain emits Chrome-tracing/Perfetto JSON
 * ({"traceEvents":[...]} with pid/tid/ts/dur/name/args); open it at
 * chrome://tracing or https://ui.perfetto.dev.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mica::obs
{

/**
 * Histogram buckets are powers of two: bucket 0 holds the value 0,
 * bucket b >= 1 holds [2^(b-1), 2^b - 1]. 64-bit values need 65
 * buckets (value 2^63.. lands in bucket 64).
 */
constexpr size_t kHistBuckets = 65;

/** @return the bucket index of @p v (its bit width; 0 for 0). */
constexpr size_t
histBucket(uint64_t v)
{
    size_t b = 0;
    while (v != 0) {
        ++b;
        v >>= 1;
    }
    return b;
}

/** @return smallest value falling in bucket @p b. */
constexpr uint64_t
histBucketLo(size_t b)
{
    return b == 0 ? 0 : uint64_t(1) << (b - 1);
}

/** @return largest value falling in bucket @p b. */
constexpr uint64_t
histBucketHi(size_t b)
{
    return b == 0 ? 0 : b >= 64 ? ~uint64_t(0) : (uint64_t(1) << b) - 1;
}

/** Folded histogram state at snapshot time. */
struct HistogramValue
{
    int64_t count = 0;
    int64_t sum = 0;
    std::array<int64_t, kHistBuckets> buckets{};
};

/**
 * Estimate the value at quantile @p q in [0, 1] from the log2
 * buckets: walk to the bucket holding the nearest-rank target and
 * interpolate linearly across its [histBucketLo, histBucketHi] span.
 * Exact for the single-valued buckets (0 and 1); otherwise off by at
 * most one bucket width. @return 0.0 when empty.
 */
double histQuantile(const HistogramValue &h, double q);

enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/** One folded metric: counters/gauges use value, histograms hist. */
struct MetricValue
{
    MetricKind kind = MetricKind::Counter;
    int64_t value = 0;
    HistogramValue hist;
};

/** Point-in-time fold of every registered metric, sorted by name. */
struct MetricsSnapshot
{
    std::map<std::string, MetricValue> metrics;
};

/** Per-name aggregate over recorded spans (for the summary footer). */
struct SpanStat
{
    std::string name;
    uint64_t count = 0;
    uint64_t totalNs = 0;
    uint64_t maxNs = 0;
};

/** One recorded span, copied out of the rings (tests, summaries). */
struct TraceEventCopy
{
    std::string name;
    std::string args;    ///< raw JSON fragment: `"k":1,"s":"v"` or ""
    uint64_t tsNs = 0;
    uint64_t durNs = 0;
    uint32_t tid = 0;
};

/** Per-thread span ring capacity; overflow overwrites the oldest. */
constexpr size_t kTraceRingCap = 2048;

/** @return nanoseconds since the registry's (per-process) origin. */
uint64_t nowNs();

/**
 * Monotonic named counter. Copies of the same name share one metric;
 * add() is safe from any thread and never allocates.
 */
class Counter
{
  public:
    explicit Counter(const std::string &name);

    void add(uint64_t v = 1) noexcept;

  private:
    uint32_t cell_;
};

/**
 * Up/down gauge. Each thread accumulates signed deltas in its own
 * slab; the folded value is the sum over all threads, so paired
 * add(+1)/add(-1) on different threads still nets to the live level.
 */
class Gauge
{
  public:
    explicit Gauge(const std::string &name);

    void add(int64_t delta) noexcept;

  private:
    uint32_t cell_;
};

/** Log2-bucketed histogram of unsigned values (see histBucket). */
class Histogram
{
  public:
    explicit Histogram(const std::string &name);

    void record(uint64_t value) noexcept;

  private:
    uint32_t cell_;
};

/**
 * Arm or disarm the span tracer. Metrics are always live; spans only
 * record while armed (the CLI arms it when --trace-out or
 * --obs-summary is present), so a run with no sinks does no tracing
 * work beyond one relaxed load per span site.
 */
void setTraceEnabled(bool on);

bool traceEnabled();

/**
 * RAII scope that records one Chrome-tracing "complete" event (name,
 * thread, wall-clock interval, optional args) when it goes out of
 * scope. Nesting follows C++ scope nesting by construction, so spans
 * on one thread are always strictly nested. Name and args live in
 * fixed internal buffers — no heap allocation per span; overlong
 * values are truncated.
 */
class ObsSpan
{
  public:
    explicit ObsSpan(const char *name);
    ~ObsSpan();

    ObsSpan(const ObsSpan &) = delete;
    ObsSpan &operator=(const ObsSpan &) = delete;

    /** Attach a numeric argument (shown in the trace viewer). */
    void arg(const char *key, uint64_t v);

    /** Attach a string argument (JSON-escaped here, once). */
    void arg(const char *key, const char *value);
    void arg(const char *key, const std::string &value);

    /** Attach a floating-point argument (%.6g). */
    void argF(const char *key, double v);

  private:
    void append(const char *fragment, size_t len);

    static constexpr size_t kNameCap = 48;
    static constexpr size_t kArgsCap = 104;

    uint64_t startNs_ = 0;
    uint16_t argsLen_ = 0;
    bool live_ = false;
    char name_[kNameCap];
    char args_[kArgsCap];
};

/** Fold every slab (live + retired threads) into one snapshot. */
MetricsSnapshot snapshotMetrics();

/** Stable JSON rendering of snapshotMetrics() (sorted names). */
std::string metricsJson();

/**
 * Replace @p path whole with metricsJson() (.tmp + rename): a reader
 * sees the old file or the new one, never a torn mix.
 * @return false when the write fails.
 */
bool writeMetricsJson(const std::string &path);

/** Copy out every recorded span, sorted by (tsNs, longest first). */
std::vector<TraceEventCopy> traceEvents();

/** Chrome-tracing JSON ({"traceEvents":[...]}) of traceEvents(). */
std::string traceJson();

/** Replace @p path whole with traceJson(), as writeMetricsJson. */
bool writeTraceJson(const std::string &path);

/** Per-name span aggregates, descending by total time. */
std::vector<SpanStat> spanStats();

/**
 * Human-readable footer: top counters by value plus the slowest span
 * names by total time (the --obs-summary output).
 */
std::string summaryText(size_t topCounters = 8, size_t topSpans = 6);

/**
 * Zero every metric cell and drop every recorded span. Test-only:
 * callers must ensure no other thread is concurrently recording.
 */
void resetForTest();

} // namespace mica::obs
