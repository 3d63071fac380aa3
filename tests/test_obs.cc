/**
 * @file
 * Tests for the runtime telemetry subsystem (src/obs): sharded
 * counters fold exactly under any worker count, histogram buckets sit
 * on power-of-two boundaries, span export is well-formed Chrome-
 * tracing JSON with strict per-thread nesting, and the bounded ring
 * drops oldest-first.
 *
 * Each TEST runs in its own gtest process (gtest_discover_tests), so
 * obs::resetForTest() gives every test a clean registry without
 * cross-test interference.
 */

#include <cctype>
#include <cstdint>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"

namespace mica::obs
{
namespace
{

/** Look up one folded metric, failing the test when it is absent. */
MetricValue
metric(const MetricsSnapshot &snap, const std::string &name)
{
    const auto it = snap.metrics.find(name);
    EXPECT_NE(it, snap.metrics.end()) << "metric " << name << " missing";
    return it == snap.metrics.end() ? MetricValue{} : it->second;
}

/** 64 blocks x 10000 adds through a pool of the given size. */
void
hammerCounter(size_t jobs)
{
    pipeline::ThreadPool pool(jobs);
    pipeline::parallelBlocks(&pool, 64, [&](size_t) {
        static Counter c("test.obs.hammer");
        for (int i = 0; i < 10000; ++i)
            c.add(1);
    });
}

TEST(ObsCounter, ExactUnderSerialFanout)
{
    resetForTest();
    hammerCounter(1);
    EXPECT_EQ(metric(snapshotMetrics(), "test.obs.hammer").value,
              640000);
}

TEST(ObsCounter, ExactUnderParallelFanout)
{
    resetForTest();
    hammerCounter(8);
    EXPECT_EQ(metric(snapshotMetrics(), "test.obs.hammer").value,
              640000);
}

TEST(ObsCounter, CopiesShareOneCell)
{
    resetForTest();
    // Two Counter objects with the same name are handles to the same
    // cell — the idiom is `static obs::Counter c("...")` at every use
    // site, and the registry dedups by name.
    Counter a("test.obs.shared");
    Counter b("test.obs.shared");
    a.add(3);
    b.add(4);
    EXPECT_EQ(metric(snapshotMetrics(), "test.obs.shared").value, 7);
}

TEST(ObsGauge, FoldsSignedDeltasAcrossThreads)
{
    resetForTest();
    // +1 on the submitting thread, -1 on the worker: per-slab deltas
    // are signed, so the fold nets out to the live depth (zero once
    // the pool drains) even though no single slab holds the truth.
    pipeline::ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (int i = 0; i < 100; ++i) {
        static Gauge depth("test.obs.depth");
        depth.add(1);
        done.push_back(pool.submit([] {
            static Gauge depth2("test.obs.depth");
            depth2.add(-1);
        }));
    }
    for (auto &f : done)
        f.get();
    EXPECT_EQ(metric(snapshotMetrics(), "test.obs.depth").value, 0);
}

TEST(ObsHistogram, BucketBoundaries)
{
    // Bucket b holds values whose bit width is b: 0 -> bucket 0,
    // 1 -> bucket 1, [2,3] -> 2, [4,7] -> 3, ..., so boundaries sit
    // exactly on powers of two.
    static_assert(histBucket(0) == 0, "zero gets its own bucket");
    static_assert(histBucket(1) == 1, "one starts bucket 1");
    static_assert(histBucket(2) == 2 && histBucket(3) == 2,
                  "[2,4) is bucket 2");
    static_assert(histBucket(4) == 3 && histBucket(7) == 3,
                  "[4,8) is bucket 3");
    static_assert(histBucket(255) == 8 && histBucket(256) == 9,
                  "boundary at 256");
    static_assert(histBucket(1ull << 63) == 64, "top bit is bucket 64");

    resetForTest();
    Histogram h("test.obs.hist");
    for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 255ull,
                       256ull})
        h.record(v);
    const auto mv = metric(snapshotMetrics(), "test.obs.hist");
    ASSERT_EQ(mv.kind, MetricKind::Histogram);
    EXPECT_EQ(mv.hist.count, 8);
    EXPECT_EQ(mv.hist.sum, 0 + 1 + 2 + 3 + 4 + 7 + 255 + 256);
    EXPECT_EQ(mv.hist.buckets[0], 1);   // 0
    EXPECT_EQ(mv.hist.buckets[1], 1);   // 1
    EXPECT_EQ(mv.hist.buckets[2], 2);   // 2, 3
    EXPECT_EQ(mv.hist.buckets[3], 2);   // 4, 7
    EXPECT_EQ(mv.hist.buckets[8], 1);   // 255
    EXPECT_EQ(mv.hist.buckets[9], 1);   // 256
}

// ----------------------------------------------------------------------
// A minimal recursive-descent JSON validator: enough to prove the
// exported documents parse, without pulling in a JSON dependency.
// ----------------------------------------------------------------------

struct JsonCursor
{
    const char *p;
    const char *end;

    void ws()
    {
        while (p < end && std::isspace(static_cast<unsigned char>(*p)))
            ++p;
    }

    bool lit(const char *s)
    {
        const size_t n = std::strlen(s);
        if (static_cast<size_t>(end - p) < n ||
            std::strncmp(p, s, n) != 0)
            return false;
        p += n;
        return true;
    }

    bool string()
    {
        if (p >= end || *p != '"')
            return false;
        ++p;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return false;
            }
            ++p;
        }
        if (p >= end)
            return false;
        ++p;   // closing quote
        return true;
    }

    bool number()
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        while (p < end &&
               (std::isdigit(static_cast<unsigned char>(*p)) ||
                *p == '.' || *p == 'e' || *p == 'E' || *p == '+' ||
                *p == '-'))
            ++p;
        return p != start;
    }

    bool value()
    {
        ws();
        if (p >= end)
            return false;
        if (*p == '"')
            return string();
        if (*p == '{')
            return object();
        if (*p == '[')
            return array();
        if (lit("true") || lit("false") || lit("null"))
            return true;
        return number();
    }

    bool object()
    {
        if (*p != '{')
            return false;
        ++p;
        ws();
        if (p < end && *p == '}') {
            ++p;
            return true;
        }
        for (;;) {
            ws();
            if (!string())
                return false;
            ws();
            if (p >= end || *p != ':')
                return false;
            ++p;
            if (!value())
                return false;
            ws();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            return false;
        }
    }

    bool array()
    {
        if (*p != '[')
            return false;
        ++p;
        ws();
        if (p < end && *p == ']') {
            ++p;
            return true;
        }
        for (;;) {
            if (!value())
                return false;
            ws();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            return false;
        }
    }
};

bool
validJson(const std::string &doc)
{
    JsonCursor c{doc.data(), doc.data() + doc.size()};
    if (!c.value())
        return false;
    c.ws();
    return c.p == c.end;
}

TEST(ObsTrace, SpanJsonWellFormedAndNested)
{
    resetForTest();
    setTraceEnabled(true);

    // Two workers each record a parent span wrapping two children,
    // with args that need escaping; the export must parse and the
    // (ts, ts+dur) intervals must nest strictly per thread.
    pipeline::ThreadPool pool(2);
    pipeline::parallelBlocks(&pool, 2, [&](size_t b) {
        ObsSpan parent("test.parent");
        parent.arg("label", "quote\"back\\slash");
        parent.arg("block", static_cast<uint64_t>(b));
        parent.arg("worker", std::string("w") + std::to_string(b));
        for (int i = 0; i < 2; ++i) {
            ObsSpan child("test.child");
            child.argF("ratio", 0.5);
        }
    });
    setTraceEnabled(false);

    EXPECT_TRUE(validJson(traceJson()));
    EXPECT_NE(traceJson().find("\"traceEvents\""), std::string::npos);
    EXPECT_TRUE(validJson(metricsJson()));

    // 2 x (1 parent + 2 children); the pool's own pool.task spans ride
    // along when the blocks ran on workers, wrapping each parent.
    const auto events = traceEvents();
    size_t parents = 0, children = 0, workers = 0;
    for (const auto &e : events) {
        parents += e.name == "test.parent";
        children += e.name == "test.child";
        workers += e.args.find("\"worker\": \"w") != std::string::npos;
    }
    EXPECT_EQ(parents, 2u);
    EXPECT_EQ(children, 4u);
    EXPECT_EQ(workers, 2u);

    // Strict nesting per thread: walking in (ts asc, dur desc) order,
    // every event must fit inside whatever interval is open on its
    // thread. Parents sort before their children at equal ts because
    // the drain orders longer durations first.
    std::vector<std::vector<const TraceEventCopy *>> stacks(64);
    for (const auto &e : events) {
        ASSERT_LT(e.tid, stacks.size());
        auto &stack = stacks[e.tid];
        while (!stack.empty() &&
               e.tsNs >= stack.back()->tsNs + stack.back()->durNs)
            stack.pop_back();
        if (!stack.empty()) {
            EXPECT_GE(e.tsNs, stack.back()->tsNs);
            EXPECT_LE(e.tsNs + e.durNs,
                      stack.back()->tsNs + stack.back()->durNs);
        }
        stack.push_back(&e);
    }
}

TEST(ObsTrace, DisabledTracerRecordsNothing)
{
    resetForTest();
    ASSERT_FALSE(traceEnabled());
    {
        ObsSpan sp("test.ghost");
        sp.arg("n", static_cast<uint64_t>(1));
    }
    EXPECT_TRUE(traceEvents().empty());
    EXPECT_TRUE(spanStats().empty());
}

TEST(ObsTrace, RingOverflowDropsOldest)
{
    resetForTest();
    setTraceEnabled(true);
    const size_t extra = 500;
    for (size_t i = 0; i < kTraceRingCap + extra; ++i) {
        ObsSpan sp("test.ring");
        sp.arg("i", static_cast<uint64_t>(i));
    }
    setTraceEnabled(false);

    const auto events = traceEvents();
    ASSERT_EQ(events.size(), kTraceRingCap);
    // Oldest dropped: the surviving window is the most recent
    // kTraceRingCap spans, i.e. args start at i=extra.
    const std::string first = "\"i\": " + std::to_string(extra);
    EXPECT_NE(events.front().args.find(first), std::string::npos)
        << "got: " << events.front().args;
    EXPECT_EQ(metric(snapshotMetrics(), "obs.trace.dropped").value,
              static_cast<int64_t>(extra));
}

TEST(ObsSummary, NamesTopCountersAndSpans)
{
    resetForTest();
    setTraceEnabled(true);
    static Counter c("test.obs.summary");
    c.add(42);
    {
        ObsSpan sp("test.summary.span");
    }
    setTraceEnabled(false);
    const std::string s = summaryText();
    EXPECT_NE(s.find("test.obs.summary"), std::string::npos);
    EXPECT_NE(s.find("test.summary.span"), std::string::npos);
}

TEST(ObsHistQuantile, EmptyIsZero)
{
    EXPECT_EQ(histQuantile(HistogramValue{}, 0.5), 0.0);
}

TEST(ObsHistQuantile, SingleValuedBucketsAreExact)
{
    // Buckets 0 and 1 span exactly one value each, so interpolation
    // cannot smear them: an all-zeros histogram answers 0, an all-ones
    // histogram answers 1, at every quantile.
    HistogramValue zeros;
    zeros.count = 7;
    zeros.buckets[0] = 7;
    HistogramValue ones;
    ones.count = 7;
    ones.buckets[1] = 7;
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(histQuantile(zeros, q), 0.0) << "q=" << q;
        EXPECT_EQ(histQuantile(ones, q), 1.0) << "q=" << q;
    }
}

TEST(ObsHistQuantile, StaysInsideTheTargetBucket)
{
    // 10 samples in bucket 4 ([8, 15]): every quantile must land
    // inside that bucket's span, interpolated monotonically across it.
    HistogramValue h;
    h.count = 10;
    h.buckets[4] = 10;
    double prev = -1.0;
    for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        const double v = histQuantile(h, q);
        EXPECT_GE(v, static_cast<double>(histBucketLo(4)));
        EXPECT_LE(v, static_cast<double>(histBucketHi(4)));
        EXPECT_GE(v, prev) << "q=" << q;
        prev = v;
    }
}

TEST(ObsHistQuantile, SplitsAtTheBucketBoundary)
{
    // 50 samples in [4,7] and 50 in [8,15]: the lower half's
    // quantiles stay in the low bucket, the upper half's in the high
    // one. p50 hits rank 49 (nearest-rank) — still the low bucket.
    HistogramValue h;
    h.count = 100;
    h.buckets[3] = 50;
    h.buckets[4] = 50;
    EXPECT_GE(histQuantile(h, 0.25), 4.0);
    EXPECT_LE(histQuantile(h, 0.25), 7.0);
    EXPECT_GE(histQuantile(h, 0.50), 4.0);
    EXPECT_LE(histQuantile(h, 0.50), 7.0);
    EXPECT_GE(histQuantile(h, 0.51), 8.0);
    EXPECT_LE(histQuantile(h, 0.51), 15.0);
    EXPECT_GE(histQuantile(h, 0.99), 8.0);
    EXPECT_LE(histQuantile(h, 0.99), 15.0);
}

TEST(ObsHistQuantile, SparseBucketsSkipGaps)
{
    // Mass in buckets 2 and 10 only: mid quantiles never invent
    // values in the empty gap between them.
    HistogramValue h;
    h.count = 4;
    h.buckets[2] = 2;
    h.buckets[10] = 2;
    const double lo = histQuantile(h, 0.25);
    EXPECT_GE(lo, 2.0);
    EXPECT_LE(lo, 3.0);
    const double hi = histQuantile(h, 0.9);
    EXPECT_GE(hi, static_cast<double>(histBucketLo(10)));
    EXPECT_LE(hi, static_cast<double>(histBucketHi(10)));
}

} // namespace
} // namespace mica::obs
