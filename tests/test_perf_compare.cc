/**
 * @file
 * Tests for the perf gate (src/experiments/perf_compare): each rule at
 * its edges — every family's noise and fail bands, cost vs rate
 * paths, the n < 4 best-value basis, zero and failed summaries,
 * missing paths, document parsing and the verdict JSON.
 */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/perf_compare.hh"
#include "service/json.hh"
#include "util/checked_io.hh"

namespace mica::experiments
{
namespace
{

/** A summary whose median, min and max are all @p v. */
PerfMetric
at(double v, int64_t n = 5)
{
    return {v, v, v, n};
}

/** Judge one path of @p base against @p fresh. */
PerfFinding
judgeOne(const std::string &path, const PerfMetric &base,
         const PerfMetric &fresh)
{
    const PerfComparison c =
        comparePerfProfiles({{path, base}}, {{path, fresh}}, false);
    EXPECT_EQ(c.findings.size(), 1u);
    return c.findings.empty() ? PerfFinding{} : c.findings[0];
}

TEST(PerfCompareTest, OneTableNamesEveryFamilyAndItsBand)
{
    std::vector<std::string> names;
    for (const auto &f : kPerfFamilies) {
        names.push_back(f.name);
        EXPECT_GT(f.noise, 0.0) << f.name;
        EXPECT_LT(f.noise, f.fail) << f.name;
        EXPECT_EQ(&perfFamily(f.name), &f);
    }
    EXPECT_EQ(names, (std::vector<std::string>{
                         "analyzers", "engine", "methodology",
                         "trace_replay", "trace_v2", "index", "serve",
                         "obs"}));
    EXPECT_EQ(perfFamily("serve").noise, 0.15);
    EXPECT_EQ(perfFamily("engine").fail, 0.40);
    // An unknown family gets the first (analyzers) band.
    EXPECT_EQ(&perfFamily("sweep"), &kPerfFamilies[0]);
    EXPECT_STREQ(kPerfProfileSchema, "mica-perf-profile/2");
}

TEST(PerfCompareTest, EveryBandHoldsAtItsEdges)
{
    for (const auto &fam : kPerfFamilies) {
        const std::string family = fam.name;
        for (const bool cost : {false, true}) {
            const std::string path =
                family + (cost ? ".probe_us" : ".probe_per_sec");
            // A loss of d * 100 on a base of 100, in the metric's
            // direction; the values are chosen so drop == d exactly.
            const auto lost = [&](double d) {
                return cost ? 100.0 + d * 100.0 : 100.0 - d * 100.0;
            };
            const PerfFinding atNoise =
                judgeOne(path, at(100.0), at(lost(fam.noise)));
            EXPECT_EQ(atNoise.drop, fam.noise) << path;
            EXPECT_EQ(atNoise.status, PerfStatus::Ok) << path;
            EXPECT_EQ(judgeOne(path, at(100.0),
                               at(lost(fam.noise + 0.001)))
                          .status,
                      PerfStatus::Degraded)
                << path;
            const PerfFinding atFail =
                judgeOne(path, at(100.0), at(lost(fam.fail)));
            EXPECT_EQ(atFail.drop, fam.fail) << path;
            EXPECT_EQ(atFail.status, PerfStatus::Degraded) << path;
            EXPECT_EQ(judgeOne(path, at(100.0),
                               at(lost(fam.fail + 0.001)))
                          .status,
                      PerfStatus::Regression)
                << path;
            EXPECT_EQ(atFail.family, family);
        }
    }
}

TEST(PerfCompareTest, SuffixSaysWhetherLowerIsBetter)
{
    EXPECT_TRUE(perfLowerIsBetter("obs.counter_add_ns"));
    EXPECT_TRUE(perfLowerIsBetter("serve.knn_round_trip_us"));
    EXPECT_FALSE(perfLowerIsBetter("serve.daemon_requests_per_sec.conns8"));
    EXPECT_FALSE(perfLowerIsBetter("analyzers.ppm"));
    EXPECT_FALSE(perfLowerIsBetter("x.bus"));
    EXPECT_FALSE(perfLowerIsBetter("x_us.rate"));
    EXPECT_FALSE(perfLowerIsBetter("x_ms"));

    // Doubling a rate is a gain; doubling a cost is a regression.
    const PerfFinding rate = judgeOne("analyzers.ppm", at(100), at(200));
    EXPECT_EQ(rate.status, PerfStatus::Ok);
    EXPECT_EQ(rate.drop, -1.0);
    const PerfFinding cost =
        judgeOne("obs.counter_add_ns", at(100), at(200));
    EXPECT_EQ(cost.status, PerfStatus::Regression);
    EXPECT_EQ(cost.drop, 1.0);
    // Halving them is the mirror image.
    EXPECT_EQ(judgeOne("analyzers.ppm", at(100), at(50)).status,
              PerfStatus::Regression);
    EXPECT_EQ(judgeOne("obs.counter_add_ns", at(100), at(50)).drop, -0.5);
}

TEST(PerfCompareTest, FewerThanFourRepsCompareBestValues)
{
    // Medians say regression, best values say equal: which one the
    // gate reads depends on the smaller n of the two sides.
    for (const auto &[bn, fn] : std::vector<std::pair<int64_t, int64_t>>{
             {4, 4}, {3, 4}, {4, 3}, {3, 3}}) {
        const PerfMetric b{100, 50, 100, bn};
        const PerfMetric f{50, 40, 100, fn};
        const PerfFinding r = judgeOne("analyzers.ppm", b, f);
        const bool best = bn < 4 || fn < 4;
        EXPECT_EQ(r.best, best) << bn << " vs " << fn;
        EXPECT_EQ(r.base, 100.0);
        EXPECT_EQ(r.fresh, best ? 100.0 : 50.0);
        EXPECT_EQ(r.status, best ? PerfStatus::Ok : PerfStatus::Regression)
            << bn << " vs " << fn;

        // A cost's best value is its minimum.
        const PerfMetric cb{100, 50, 200, bn};
        const PerfMetric cf{200, 50, 300, fn};
        const PerfFinding c = judgeOne("serve.knn_round_trip_us", cb, cf);
        EXPECT_EQ(c.best, best);
        EXPECT_EQ(c.base, best ? 50.0 : 100.0);
        EXPECT_EQ(c.fresh, best ? 50.0 : 200.0);
        EXPECT_EQ(c.status, best ? PerfStatus::Ok : PerfStatus::Regression);
    }
}

TEST(PerfCompareTest, ZeroBaseCannotRegress)
{
    for (const char *path : {"index.builds_per_sec", "obs.span_record_ns"}) {
        const PerfFinding both = judgeOne(path, at(0.0), at(0.0));
        EXPECT_EQ(both.status, PerfStatus::Ok) << path;
        EXPECT_EQ(both.drop, 0.0);
        const PerfFinding zeroBase = judgeOne(path, at(0.0), at(5.0));
        EXPECT_EQ(zeroBase.status, PerfStatus::Ok) << path;
        EXPECT_EQ(zeroBase.drop, 0.0);
    }
}

TEST(PerfCompareTest, FailedMeasurementIsARegressionEitherWay)
{
    // An all-zero new summary (n == 0) against a real base: a cost
    // that "drops to zero" is no improvement.
    const PerfMetric base{120, 110, 130, 1024};
    for (const char *path :
         {"serve.knn_round_trip_us", "serve.local_requests_per_sec"}) {
        const PerfFinding r = judgeOne(path, base, PerfMetric{});
        EXPECT_EQ(r.status, PerfStatus::Regression) << path;
        EXPECT_EQ(r.drop, 1.0) << path;
        // n == 0 fails even against a zero base.
        EXPECT_EQ(judgeOne(path, at(0.0), PerfMetric{}).status,
                  PerfStatus::Regression)
            << path;
        // A value <= 0 with samples behind it fails too.
        EXPECT_EQ(judgeOne(path, base, at(0.0)).status,
                  PerfStatus::Regression)
            << path;
        EXPECT_EQ(judgeOne(path, base, at(-1.0)).status,
                  PerfStatus::Regression)
            << path;
        // The smallest positive value is still a measurement.
        EXPECT_EQ(judgeOne(path, base, at(1e-300)).status,
                  perfLowerIsBetter(path) ? PerfStatus::Ok
                                          : PerfStatus::Regression)
            << path;
    }

    const PerfComparison c = comparePerfProfiles(
        {{"serve.knn_round_trip_us", base}, {"serve.x_per_sec", at(10)}},
        {{"serve.knn_round_trip_us", PerfMetric{}},
         {"serve.x_per_sec", at(9)}},
        false);
    EXPECT_EQ(c.regressed, 1u);
    EXPECT_EQ(c.ok, 1u);
    EXPECT_STREQ(c.verdict(), "regression");
    EXPECT_EQ(c.exitCode(), 1);
    ASSERT_NE(c.worst(), nullptr);
    EXPECT_EQ(c.worst()->metric, "serve.knn_round_trip_us");
}

TEST(PerfCompareTest, MissingPathsFailUnlessAllowed)
{
    const PerfMetrics base = {{"index.a_per_sec", at(10)},
                              {"index.b_per_sec", at(10)}};
    const PerfMetrics fresh = {{"index.a_per_sec", at(10)},
                               {"index.new_per_sec", at(1)}};
    const PerfComparison strict = comparePerfProfiles(base, fresh, false);
    EXPECT_EQ(strict.missing, std::vector<std::string>{"index.b_per_sec"});
    ASSERT_EQ(strict.findings.size(), 1u);   // new-only paths are ignored
    EXPECT_EQ(strict.ok, 1u);
    EXPECT_STREQ(strict.verdict(), "regression");
    EXPECT_EQ(strict.exitCode(), 1);
    EXPECT_EQ(strict.worst(), nullptr);

    const PerfComparison allowed = comparePerfProfiles(base, fresh, true);
    EXPECT_EQ(allowed.missing, strict.missing);
    EXPECT_STREQ(allowed.verdict(), "pass");
    EXPECT_EQ(allowed.exitCode(), 0);

    // Allowing missing paths does not hide a degraded one.
    const PerfComparison degraded = comparePerfProfiles(
        base, {{"index.a_per_sec", at(8.5)}}, true);
    EXPECT_EQ(degraded.degraded, 1u);
    EXPECT_STREQ(degraded.verdict(), "degraded");
    EXPECT_EQ(degraded.exitCode(), 3);
}

const char kProfile[] = R"({
  "schema": "mica-perf-profile/2",
  "host": {"hardware_concurrency": 4},
  "reps": 5,
  "families": {
    "analyzers": {"units": "records_per_sec",
                  "ppm": {"p50": 5, "p90": 6, "min": 4, "max": 7, "n": 5}},
    "serve": {
      "daemon_requests_per_sec": {
        "conns1": {"p50": 10, "n": 3},
        "saturation_speedup": 2.5
      },
      "knn_round_trip_us": {"p50": 40, "p90": 50, "p99": 90, "min": 30,
                            "max": 99, "n": 1024}
    }
  }
})";

TEST(PerfCompareTest, ParsesSummariesAndOnlyProfiles)
{
    PerfMetrics m;
    std::string err;
    ASSERT_TRUE(parsePerfProfile(kProfile, &m, &err)) << err;
    ASSERT_EQ(m.size(), 3u);   // bare numbers are not gated
    const PerfMetric &ppm = m.at("analyzers.ppm");
    EXPECT_EQ(ppm.p50, 5.0);
    EXPECT_EQ(ppm.min, 4.0);
    EXPECT_EQ(ppm.max, 7.0);
    EXPECT_EQ(ppm.n, 5);
    // min and max default to the median when absent.
    const PerfMetric &c1 = m.at("serve.daemon_requests_per_sec.conns1");
    EXPECT_EQ(c1.min, 10.0);
    EXPECT_EQ(c1.max, 10.0);
    EXPECT_EQ(c1.n, 3);
    EXPECT_EQ(m.at("serve.knn_round_trip_us").min, 30.0);

    const auto rejects = [](const std::string &text, const char *why) {
        PerfMetrics out;
        std::string e;
        EXPECT_FALSE(parsePerfProfile(text, &out, &e)) << text;
        EXPECT_NE(e.find(why), std::string::npos) << e;
    };
    std::string wrongSchema = kProfile;
    wrongSchema.replace(wrongSchema.find("/2"), 2, "/1");
    rejects(wrongSchema, "schema is not mica-perf-profile/2");
    rejects(R"({"families": {}})", "schema is not");
    rejects(R"({"schema": "mica-perf-profile/2", "families": {}})",
            "no {p50, ..., n} summaries");
    rejects(R"({"schema": "mica-perf-profile/2",
                "families": {"index": {"speedup": 2}}})",
            "no {p50, ..., n} summaries");
    rejects(R"({"schema": "mica-perf-profile/2", "families": []})",
            "missing \"families\" object");
    rejects(R"({"schema": "mica-perf-profile/2"})",
            "missing \"families\" object");
    rejects("[1, 2]", "not a JSON object");
    PerfMetrics out;
    err.clear();
    EXPECT_FALSE(parsePerfProfile("{\"schema\":", &out, &err));
    EXPECT_FALSE(err.empty());
}

TEST(PerfCompareTest, LoadsAProfileFileAndNamesAMissingOne)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("mica_test_perf_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "p.json").string();
    std::ofstream(path) << kProfile;
    PerfMetrics m;
    std::string err;
    EXPECT_TRUE(loadPerfProfile(path, &m, &err)) << err;
    EXPECT_EQ(m.size(), 3u);
    EXPECT_THROW(loadPerfProfile((dir / "absent.json").string(), &m, &err),
                 util::IoError);
    std::filesystem::remove_all(dir);
}

TEST(PerfCompareTest, VerdictJsonCarriesEveryField)
{
    const PerfMetrics base = {{"analyzers.ppm", at(100)},
                              {"engine.full_profile.batched", at(100)},
                              {"obs.counter_add_ns", {10, 9, 11, 3}},
                              {"trace_v2.gone_per_sec", at(1)}};
    const PerfMetrics fresh = {{"analyzers.ppm", at(95)},
                               {"engine.full_profile.batched", at(80)},
                               {"obs.counter_add_ns", {30, 20, 40, 5}}};
    const PerfComparison c = comparePerfProfiles(base, fresh, false);
    const service::JsonValue doc = perfVerdictJson(c, "b.json", "n.json");

    // The document survives its own serialization.
    service::JsonValue v;
    std::string err;
    ASSERT_TRUE(service::parseJson(doc.dump(), &v, &err)) << err;
    EXPECT_EQ(v.find("schema")->asString(), kPerfVerdictSchema);
    EXPECT_EQ(v.find("base")->asString(), "b.json");
    EXPECT_EQ(v.find("new")->asString(), "n.json");
    EXPECT_EQ(v.find("verdict")->asString(), "regression");
    EXPECT_EQ(v.find("exit_code")->asCount(), 1);
    EXPECT_EQ(v.find("ok")->asCount(), 1);
    EXPECT_EQ(v.find("degraded")->asCount(), 1);
    EXPECT_EQ(v.find("regressed")->asCount(), 1);
    ASSERT_EQ(v.find("missing")->items().size(), 1u);
    EXPECT_EQ(v.find("missing")->items()[0].asString(),
              "trace_v2.gone_per_sec");

    const auto &findings = v.find("findings")->items();
    ASSERT_EQ(findings.size(), 3u);
    const struct
    {
        const char *metric, *family, *basis, *status;
        double base, fresh, drop;
    } want[] = {
        {"analyzers.ppm", "analyzers", "p50", "ok", 100, 95, 0.05},
        {"engine.full_profile.batched", "engine", "p50", "degraded", 100,
         80, 0.2},
        {"obs.counter_add_ns", "obs", "best", "regression", 9, 20,
         11.0 / 9.0},
    };
    for (size_t i = 0; i < 3; ++i) {
        const service::JsonValue &f = findings[i];
        EXPECT_EQ(f.members().size(), 7u);
        EXPECT_EQ(f.find("metric")->asString(), want[i].metric);
        EXPECT_EQ(f.find("family")->asString(), want[i].family);
        EXPECT_EQ(f.find("basis")->asString(), want[i].basis);
        EXPECT_EQ(f.find("status")->asString(), want[i].status);
        EXPECT_DOUBLE_EQ(f.find("base")->asDouble(), want[i].base);
        EXPECT_DOUBLE_EQ(f.find("new")->asDouble(), want[i].fresh);
        EXPECT_DOUBLE_EQ(f.find("drop")->asDouble(), want[i].drop);
    }
    ASSERT_NE(c.worst(), nullptr);
    EXPECT_EQ(c.worst()->metric, "obs.counter_add_ns");

    // Pass and degraded verdicts carry their exit codes.
    const auto verdictOf = [](const PerfMetrics &b, const PerfMetrics &f) {
        const service::JsonValue d =
            perfVerdictJson(comparePerfProfiles(b, f, false), "b", "n");
        return std::make_pair(d.find("verdict")->asString(),
                              d.find("exit_code")->asCount());
    };
    EXPECT_EQ(verdictOf({{"index.q_per_sec", at(10)}},
                        {{"index.q_per_sec", at(10)}}),
              std::make_pair(std::string("pass"), int64_t(0)));
    EXPECT_EQ(verdictOf({{"index.q_per_sec", at(10)}},
                        {{"index.q_per_sec", at(8)}}),
              std::make_pair(std::string("degraded"), int64_t(3)));
}

} // namespace
} // namespace mica::experiments
