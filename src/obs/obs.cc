#include "obs/obs.hh"

#include "util/quantile.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

namespace mica::obs
{

namespace
{

bool
writeFile(const std::string &path, const std::string &body)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    return static_cast<bool>(out);
}

} // namespace

double
histQuantile(const HistogramValue &h, double q)
{
    if (h.count <= 0)
        return 0.0;
    const auto rank = static_cast<int64_t>(
        util::quantileRank(q, static_cast<uint64_t>(h.count)));
    int64_t cum = 0;
    size_t lastNonEmpty = 0;
    for (size_t b = 0; b < kHistBuckets; ++b) {
        if (h.buckets[b] == 0)
            continue;
        lastNonEmpty = b;
        if (cum + h.buckets[b] > rank) {
            // The target is the (rank - cum)-th of this bucket's
            // items; spread them uniformly across the bucket's span.
            const auto lo = static_cast<double>(histBucketLo(b));
            const auto hi = static_cast<double>(histBucketHi(b));
            const double pos = static_cast<double>(rank - cum) + 0.5;
            return lo +
                   (hi - lo) * pos / static_cast<double>(h.buckets[b]);
        }
        cum += h.buckets[b];
    }
    return static_cast<double>(histBucketHi(lastNonEmpty));
}

namespace
{

/** Append @p s to @p out with JSON string escaping. */
void
appendEscaped(std::string &out, const char *s)
{
    for (; *s; ++s) {
        const unsigned char c = static_cast<unsigned char>(*s);
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
}

/**
 * Total atomic cells per thread slab. Counters and gauges take one
 * cell, histograms kHistCells; registration past the capacity turns
 * the handle into a no-op instead of failing.
 */
constexpr size_t kCells = 4096;
constexpr size_t kHistCells = 2 + kHistBuckets;    // count, sum, buckets
constexpr uint32_t kInvalidCell = 0xffffffffu;

/** Fixed-size recorded span, sized to match ObsSpan's buffers. */
struct TraceEvent
{
    uint64_t tsNs = 0;
    uint64_t durNs = 0;
    uint32_t tid = 0;
    char name[48] = {};
    char args[104] = {};
};

/**
 * One thread's private telemetry storage. Metric cells are written by
 * the owning thread only (relaxed single-writer stores) and read by
 * snapshotters from any thread. The span ring is guarded by a mutex —
 * spans are job-granular (hundreds per run, not millions), so an
 * uncontended lock there buys race-free drains without touching the
 * metric fast path.
 */
struct Slab
{
    std::array<std::atomic<int64_t>, kCells> cells{};
    uint32_t tid = 0;

    std::mutex ringMutex;
    std::vector<TraceEvent> ring;    ///< sized lazily to kTraceRingCap
    uint64_t ringCount = 0;          ///< events ever recorded here
};

struct MetricInfo
{
    std::string name;
    MetricKind kind;
    uint32_t cell;
};

/**
 * Process-wide registry. Leaked on purpose: thread_local slab owners
 * fold into it from thread destructors, which can outlive any
 * destruction order a static registry could promise.
 */
struct Registry
{
    std::mutex regMutex;
    std::vector<MetricInfo> metrics;
    uint32_t cellsUsed = 0;

    std::mutex slabMutex;
    std::vector<Slab *> live;
    std::array<int64_t, kCells> retired{};    ///< folded dead threads
    std::vector<TraceEvent> retiredEvents;

    uint32_t nextTid = 0;
    std::atomic<bool> traceOn{false};
    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
};

Registry &
reg()
{
    static Registry *r = new Registry;
    return *r;
}

void
retireSlab(Slab *s)
{
    Registry &r = reg();
    std::lock_guard<std::mutex> lock(r.slabMutex);
    for (size_t c = 0; c < kCells; ++c)
        r.retired[c] += s->cells[c].load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> rl(s->ringMutex);
        const uint64_t lo =
            s->ringCount > kTraceRingCap ? s->ringCount - kTraceRingCap : 0;
        for (uint64_t i = lo; i < s->ringCount; ++i)
            r.retiredEvents.push_back(s->ring[i % kTraceRingCap]);
    }
    r.live.erase(std::remove(r.live.begin(), r.live.end(), s),
                 r.live.end());
    delete s;
}

/** Folds this thread's slab into the registry at thread exit. */
struct SlabOwner
{
    Slab *slab = nullptr;

    ~SlabOwner()
    {
        if (slab)
            retireSlab(slab);
    }
};

Slab &
mySlab()
{
    thread_local SlabOwner owner;
    if (!owner.slab) {
        auto *s = new Slab;
        Registry &r = reg();
        std::lock_guard<std::mutex> lock(r.slabMutex);
        s->tid = ++r.nextTid;
        r.live.push_back(s);
        owner.slab = s;
    }
    return *owner.slab;
}

/**
 * Find-or-create a metric's base cell. Same name → same cell, so
 * every handle constructed for "store.put.count" feeds one metric.
 * A kind clash or cell exhaustion yields a no-op handle rather than
 * an abort: telemetry must never take the tool down.
 */
uint32_t
registerMetric(const std::string &name, MetricKind kind, size_t cells)
{
    Registry &r = reg();
    std::lock_guard<std::mutex> lock(r.regMutex);
    for (const auto &m : r.metrics) {
        if (m.name == name)
            return m.kind == kind ? m.cell : kInvalidCell;
    }
    if (r.cellsUsed + cells > kCells)
        return kInvalidCell;
    const uint32_t cell = r.cellsUsed;
    r.cellsUsed += static_cast<uint32_t>(cells);
    r.metrics.push_back({name, kind, cell});
    return cell;
}

/**
 * Single-writer add: only the owning thread writes its cells, so a
 * plain load+store (no lock prefix) is race-free; relaxed atomics
 * make the cross-thread reads at fold time well-defined.
 */
inline void
cellAdd(Slab &s, uint32_t cell, int64_t v)
{
    auto &c = s.cells[cell];
    c.store(c.load(std::memory_order_relaxed) + v,
            std::memory_order_relaxed);
}

void
recordEvent(const char *name, const char *args, uint64_t tsNs,
            uint64_t durNs)
{
    static Counter dropped("obs.trace.dropped");
    Slab &s = mySlab();
    bool overwrote = false;
    {
        std::lock_guard<std::mutex> lock(s.ringMutex);
        if (s.ring.empty())
            s.ring.resize(kTraceRingCap);
        TraceEvent &e = s.ring[s.ringCount % kTraceRingCap];
        overwrote = s.ringCount >= kTraceRingCap;
        e.tsNs = tsNs;
        e.durNs = durNs;
        e.tid = s.tid;
        std::snprintf(e.name, sizeof(e.name), "%s", name);
        std::snprintf(e.args, sizeof(e.args), "%s", args);
        ++s.ringCount;
    }
    if (overwrote)
        dropped.add(1);
}

/** All recorded events, oldest-timestamp first (parents before kids). */
std::vector<TraceEvent>
collectEvents()
{
    Registry &r = reg();
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(r.slabMutex);
        out = r.retiredEvents;
        for (Slab *s : r.live) {
            std::lock_guard<std::mutex> rl(s->ringMutex);
            const uint64_t lo = s->ringCount > kTraceRingCap
                ? s->ringCount - kTraceRingCap
                : 0;
            for (uint64_t i = lo; i < s->ringCount; ++i)
                out.push_back(s->ring[i % kTraceRingCap]);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.tsNs != b.tsNs)
                      return a.tsNs < b.tsNs;
                  return a.durNs > b.durNs;
              });
    return out;
}

void
appendHistogramJson(std::string &out, const HistogramValue &h)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %lld, \"sum\": %lld, \"buckets\": {",
                  static_cast<long long>(h.count),
                  static_cast<long long>(h.sum));
    out += buf;
    bool first = true;
    for (size_t b = 0; b < kHistBuckets; ++b) {
        if (h.buckets[b] == 0)
            continue;
        std::snprintf(buf, sizeof(buf), "%s\"%zu\": %lld",
                      first ? "" : ", ", b,
                      static_cast<long long>(h.buckets[b]));
        out += buf;
        first = false;
    }
    out += "}, \"quantiles\": {";
    const char *qn[] = {"p50", "p90", "p99"};
    const double qs[] = {0.50, 0.90, 0.99};
    for (int i = 0; i < 3; ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g",
                      i == 0 ? "" : ", ", qn[i], histQuantile(h, qs[i]));
        out += buf;
    }
    out += "}}";
}

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - reg().origin)
            .count());
}

Counter::Counter(const std::string &name)
    : cell_(registerMetric(name, MetricKind::Counter, 1))
{
}

void
Counter::add(uint64_t v) noexcept
{
    if (cell_ != kInvalidCell)
        cellAdd(mySlab(), cell_, static_cast<int64_t>(v));
}

Gauge::Gauge(const std::string &name)
    : cell_(registerMetric(name, MetricKind::Gauge, 1))
{
}

void
Gauge::add(int64_t delta) noexcept
{
    if (cell_ != kInvalidCell)
        cellAdd(mySlab(), cell_, delta);
}

Histogram::Histogram(const std::string &name)
    : cell_(registerMetric(name, MetricKind::Histogram, kHistCells))
{
}

void
Histogram::record(uint64_t value) noexcept
{
    if (cell_ == kInvalidCell)
        return;
    Slab &s = mySlab();
    cellAdd(s, cell_, 1);                                    // count
    cellAdd(s, cell_ + 1, static_cast<int64_t>(value));      // sum
    cellAdd(s, cell_ + 2 + static_cast<uint32_t>(histBucket(value)), 1);
}

void
setTraceEnabled(bool on)
{
    reg().traceOn.store(on, std::memory_order_relaxed);
}

bool
traceEnabled()
{
    return reg().traceOn.load(std::memory_order_relaxed);
}

ObsSpan::ObsSpan(const char *name)
{
    live_ = traceEnabled();
    if (!live_)
        return;
    std::snprintf(name_, sizeof(name_), "%s", name);
    args_[0] = '\0';
    startNs_ = nowNs();
}

ObsSpan::~ObsSpan()
{
    if (!live_)
        return;
    recordEvent(name_, args_, startNs_, nowNs() - startNs_);
}

void
ObsSpan::append(const char *fragment, size_t len)
{
    // Keep whole key/value fragments: an argument that would overflow
    // the buffer is dropped rather than truncated into invalid JSON.
    if (argsLen_ + len + 1 > kArgsCap)
        return;
    std::memcpy(args_ + argsLen_, fragment, len);
    argsLen_ = static_cast<uint16_t>(argsLen_ + len);
    args_[argsLen_] = '\0';
}

void
ObsSpan::arg(const char *key, uint64_t v)
{
    if (!live_)
        return;
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu",
                                argsLen_ ? ", " : "", key,
                                static_cast<unsigned long long>(v));
    if (n > 0 && static_cast<size_t>(n) < sizeof(buf))
        append(buf, static_cast<size_t>(n));
}

void
ObsSpan::arg(const char *key, const char *value)
{
    if (!live_)
        return;
    std::string esc;
    appendEscaped(esc, value);
    char buf[96];
    const int n = std::snprintf(buf, sizeof(buf), "%s\"%s\": \"%s\"",
                                argsLen_ ? ", " : "", key, esc.c_str());
    if (n > 0 && static_cast<size_t>(n) < sizeof(buf))
        append(buf, static_cast<size_t>(n));
}

void
ObsSpan::arg(const char *key, const std::string &value)
{
    arg(key, value.c_str());
}

void
ObsSpan::argF(const char *key, double v)
{
    if (!live_)
        return;
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g",
                                argsLen_ ? ", " : "", key, v);
    if (n > 0 && static_cast<size_t>(n) < sizeof(buf))
        append(buf, static_cast<size_t>(n));
}

MetricsSnapshot
snapshotMetrics()
{
    Registry &r = reg();
    // Fold under both locks: regMutex pins the metric table, slabMutex
    // pins the slab list. Writers never take either, so a snapshot
    // during a run sees each cell's latest relaxed store.
    std::lock_guard<std::mutex> rlock(r.regMutex);
    std::lock_guard<std::mutex> slock(r.slabMutex);

    std::array<int64_t, kCells> total = r.retired;
    for (const Slab *s : r.live) {
        for (size_t c = 0; c < kCells; ++c)
            total[c] += s->cells[c].load(std::memory_order_relaxed);
    }

    MetricsSnapshot snap;
    for (const auto &m : r.metrics) {
        MetricValue v;
        v.kind = m.kind;
        if (m.kind == MetricKind::Histogram) {
            v.hist.count = total[m.cell];
            v.hist.sum = total[m.cell + 1];
            for (size_t b = 0; b < kHistBuckets; ++b)
                v.hist.buckets[b] = total[m.cell + 2 + b];
        } else {
            v.value = total[m.cell];
        }
        snap.metrics[m.name] = v;
    }
    return snap;
}

std::string
metricsJson()
{
    const MetricsSnapshot snap = snapshotMetrics();
    std::string out = "{\n  \"schema\": \"mica-obs-metrics/1\",\n"
                      "  \"compiled\": true,\n";
    char buf[64];
    for (const auto kind :
         {MetricKind::Counter, MetricKind::Gauge, MetricKind::Histogram}) {
        out += kind == MetricKind::Counter ? "  \"counters\": {"
            : kind == MetricKind::Gauge    ? "  \"gauges\": {"
                                           : "  \"histograms\": {";
        bool first = true;
        for (const auto &kv : snap.metrics) {
            if (kv.second.kind != kind)
                continue;
            out += first ? "\n    \"" : ",\n    \"";
            appendEscaped(out, kv.first.c_str());
            out += "\": ";
            if (kind == MetricKind::Histogram) {
                appendHistogramJson(out, kv.second.hist);
            } else {
                std::snprintf(buf, sizeof(buf), "%lld",
                              static_cast<long long>(kv.second.value));
                out += buf;
            }
            first = false;
        }
        out += first ? "}" : "\n  }";
        out += kind == MetricKind::Histogram ? "\n" : ",\n";
    }
    out += "}\n";
    return out;
}

bool
writeMetricsJson(const std::string &path)
{
    return writeFile(path, metricsJson());
}

std::vector<TraceEventCopy>
traceEvents()
{
    std::vector<TraceEventCopy> out;
    for (const TraceEvent &e : collectEvents()) {
        TraceEventCopy c;
        c.name = e.name;
        c.args = e.args;
        c.tsNs = e.tsNs;
        c.durNs = e.durNs;
        c.tid = e.tid;
        out.push_back(std::move(c));
    }
    return out;
}

std::string
traceJson()
{
    std::string out = "{\"traceEvents\":[";
    char buf[128];
    bool first = true;
    for (const TraceEvent &e : collectEvents()) {
        out += first ? "\n" : ",\n";
        out += "{\"name\":\"";
        appendEscaped(out, e.name);
        // Timestamps are microseconds in the trace-event format; the
        // fractional digits keep full nanosecond resolution.
        std::snprintf(buf, sizeof(buf),
                      "\",\"cat\":\"mica\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                      e.tid, static_cast<double>(e.tsNs) / 1000.0,
                      static_cast<double>(e.durNs) / 1000.0);
        out += buf;
        if (e.args[0] != '\0') {
            out += ",\"args\":{";
            out += e.args;
            out += "}";
        }
        out += "}";
        first = false;
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
writeTraceJson(const std::string &path)
{
    return writeFile(path, traceJson());
}

std::vector<SpanStat>
spanStats()
{
    std::map<std::string, SpanStat> byName;
    for (const TraceEvent &e : collectEvents()) {
        SpanStat &s = byName[e.name];
        s.name = e.name;
        s.count += 1;
        s.totalNs += e.durNs;
        s.maxNs = std::max(s.maxNs, e.durNs);
    }
    std::vector<SpanStat> out;
    out.reserve(byName.size());
    for (auto &kv : byName)
        out.push_back(std::move(kv.second));
    std::sort(out.begin(), out.end(),
              [](const SpanStat &a, const SpanStat &b) {
                  if (a.totalNs != b.totalNs)
                      return a.totalNs > b.totalNs;
                  return a.name < b.name;
              });
    return out;
}

std::string
summaryText(size_t topCounters, size_t topSpans)
{
    const MetricsSnapshot snap = snapshotMetrics();
    std::vector<std::pair<std::string, int64_t>> counters;
    for (const auto &kv : snap.metrics) {
        if (kv.second.kind == MetricKind::Counter &&
            kv.second.value != 0)
            counters.emplace_back(kv.first, kv.second.value);
    }
    std::stable_sort(counters.begin(), counters.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    const std::vector<SpanStat> spans = spanStats();

    std::ostringstream out;
    out << "obs: " << snap.metrics.size() << " metrics, ";
    uint64_t spanCount = 0;
    for (const auto &s : spans)
        spanCount += s.count;
    out << spanCount << " spans recorded\n";
    if (!counters.empty()) {
        out << "top counters:\n";
        for (size_t i = 0; i < counters.size() && i < topCounters; ++i) {
            char line[128];
            std::snprintf(line, sizeof(line), "  %-36s %12lld\n",
                          counters[i].first.c_str(),
                          static_cast<long long>(counters[i].second));
            out << line;
        }
    }
    if (!spans.empty()) {
        out << "slowest spans (by total time):\n";
        for (size_t i = 0; i < spans.size() && i < topSpans; ++i) {
            char line[160];
            std::snprintf(line, sizeof(line),
                          "  %-28s %8llux  total %9.3f ms  max %9.3f ms\n",
                          spans[i].name.c_str(),
                          static_cast<unsigned long long>(spans[i].count),
                          static_cast<double>(spans[i].totalNs) / 1e6,
                          static_cast<double>(spans[i].maxNs) / 1e6);
            out << line;
        }
    }
    return out.str();
}

void
resetForTest()
{
    Registry &r = reg();
    std::lock_guard<std::mutex> rlock(r.regMutex);
    std::lock_guard<std::mutex> slock(r.slabMutex);
    r.retired.fill(0);
    r.retiredEvents.clear();
    for (Slab *s : r.live) {
        for (auto &c : s->cells)
            c.store(0, std::memory_order_relaxed);
        std::lock_guard<std::mutex> rl(s->ringMutex);
        s->ringCount = 0;
    }
}

} // namespace mica::obs
