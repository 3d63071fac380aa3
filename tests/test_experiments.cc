/**
 * @file
 * Tests for the shared experiment layer and an end-to-end integration
 * run of the paper's pipeline on a reduced benchmark population.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/experiments.hh"
#include "methodology/classifier.hh"
#include "methodology/cluster_report.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "stats/descriptive.hh"
#include "stats/roc.hh"

namespace mica::experiments
{
namespace
{

DatasetConfig
smallConfig()
{
    DatasetConfig cfg;
    cfg.maxInsts = 30000;               // keep the test fast
    cfg.suites = {"CommBench", "MediaBench"};
    return cfg;
}

TEST(ExperimentsTest, CollectsSelectedSuitesInTableOrder)
{
    const SuiteDataset ds = collectSuiteDataset(smallConfig());
    EXPECT_EQ(ds.benchmarks.size(), 24u);   // 12 + 12
    EXPECT_EQ(ds.micaProfiles.size(), 24u);
    EXPECT_EQ(ds.hpcProfiles.size(), 24u);
    EXPECT_EQ(ds.benchmarks[0].suite, "CommBench");
    EXPECT_EQ(ds.benchmarks[12].suite, "MediaBench");
    for (size_t i = 0; i < ds.benchmarks.size(); ++i) {
        EXPECT_EQ(ds.micaProfiles[i].name, ds.benchmarks[i].fullName());
        EXPECT_EQ(ds.hpcProfiles[i].name, ds.benchmarks[i].fullName());
    }
}

TEST(ExperimentsTest, MatricesHaveTheRightShape)
{
    const SuiteDataset ds = collectSuiteDataset(smallConfig());
    const Matrix mm = ds.micaMatrix();
    const Matrix hm = ds.hpcMatrix();
    EXPECT_EQ(mm.rows(), 24u);
    EXPECT_EQ(mm.cols(), kNumMicaChars);
    EXPECT_EQ(hm.rows(), 24u);
    EXPECT_EQ(hm.cols(), uarch::HwCounterProfile::kNumMetrics);
}

TEST(ExperimentsTest, IndexOfResolvesNames)
{
    const SuiteDataset ds = collectSuiteDataset(smallConfig());
    const size_t i = ds.indexOf("CommBench/drr.drr");
    ASSERT_NE(i, static_cast<size_t>(-1));
    EXPECT_EQ(ds.benchmarks[i].program, "drr");
    EXPECT_EQ(ds.indexOf("missing/none.x"), static_cast<size_t>(-1));
}

TEST(ExperimentsTest, CollectionIsDeterministic)
{
    const SuiteDataset a = collectSuiteDataset(smallConfig());
    const SuiteDataset b = collectSuiteDataset(smallConfig());
    for (size_t i = 0; i < a.micaProfiles.size(); ++i) {
        for (size_t c = 0; c < kNumMicaChars; ++c)
            EXPECT_DOUBLE_EQ(a.micaProfiles[i][c], b.micaProfiles[i][c]);
        EXPECT_DOUBLE_EQ(a.hpcProfiles[i].ipcEv56,
                         b.hpcProfiles[i].ipcEv56);
    }
}

TEST(ExperimentsTest, CacheRoundTrip)
{
    const std::string dir = "/tmp/mica_test_cache";
    std::filesystem::remove_all(dir);
    DatasetConfig cfg = smallConfig();
    cfg.cacheDir = dir;
    const SuiteDataset fresh = collectSuiteDataset(cfg);
    const SuiteDataset cached = collectSuiteDataset(cfg);
    ASSERT_EQ(cached.micaProfiles.size(), fresh.micaProfiles.size());
    for (size_t i = 0; i < fresh.micaProfiles.size(); ++i) {
        for (size_t c = 0; c < kNumMicaChars; ++c)
            EXPECT_NEAR(cached.micaProfiles[i][c],
                        fresh.micaProfiles[i][c], 1e-9);
        EXPECT_NEAR(cached.hpcProfiles[i].ipcEv67,
                    fresh.hpcProfiles[i].ipcEv67, 1e-9);
    }
    std::filesystem::remove_all(dir);
}

TEST(ExperimentsTest, PpmOrderAboveCapFailsBeforeStoreOrSweep)
{
    const std::string dir = "/tmp/mica_test_bad_ppm_order";
    std::filesystem::remove_all(dir);
    DatasetConfig cfg = smallConfig();
    cfg.cacheDir = dir;
    cfg.ppmMaxOrder = 17;
    EXPECT_THROW(collectSuiteDataset(cfg), std::invalid_argument);
    // The store creates its directory on the first profile it commits.
    EXPECT_FALSE(std::filesystem::exists(dir));
}

/** Run the dataset-flag parser over "prog ARGS...". */
bool
parseDatasetFlags(std::vector<std::string> args, DatasetConfig *cfg,
                  std::string *err)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    return datasetConfigFromFlags(
        util::parseCliArgs(static_cast<int>(argv.size()), argv.data(),
                           datasetFlags()),
        cfg, err);
}

TEST(ExperimentsTest, ConfigFromArgsParsesFlags)
{
    DatasetConfig cfg;
    std::string err;
    ASSERT_TRUE(parseDatasetFlags(
        {"--budget=1234", "--cache=/tmp/x", "--jobs=3",
         "--suites=CommBench,,MiBench", "--traces=/tmp/t",
         "--max-failures=2"},
        &cfg, &err))
        << err;
    EXPECT_EQ(cfg.maxInsts, 1234u);
    EXPECT_EQ(cfg.cacheDir, "/tmp/x");
    EXPECT_EQ(cfg.jobs, 3u);
    EXPECT_EQ(cfg.suites,
              (std::vector<std::string>{"CommBench", "MiBench"}));
    EXPECT_EQ(cfg.traceDir, "/tmp/t");
    EXPECT_EQ(cfg.maxFailures, 2u);

    // A flag not given keeps its default.
    ASSERT_TRUE(parseDatasetFlags({}, &cfg, &err)) << err;
    const DatasetConfig def;
    EXPECT_EQ(cfg.maxInsts, def.maxInsts);
    EXPECT_EQ(cfg.cacheDir, def.cacheDir);
    EXPECT_EQ(cfg.jobs, def.jobs);
    EXPECT_TRUE(cfg.suites.empty());
    EXPECT_EQ(cfg.traceDir, def.traceDir);
    EXPECT_EQ(cfg.maxFailures, def.maxFailures);

    // A number that is not a plain decimal rejects, naming its flag:
    // --budget=20k must not profile 20 instructions.
    for (const std::string flag : {"--budget", "--jobs", "--max-failures"}) {
        for (const char *bad : {"20k", "-1", "", "0x10", " 5"}) {
            const std::string arg = flag + "=" + bad;
            EXPECT_FALSE(parseDatasetFlags({arg}, &cfg, &err)) << arg;
            EXPECT_NE(err.find(flag), std::string::npos) << err;
        }
    }

    // Every other flag is unknown, named: google-benchmark's
    // pass-through and the old --quick included.
    for (const std::string flag :
         {"--benchmark_filter", "--quick", "--budgt"}) {
        EXPECT_FALSE(parseDatasetFlags({flag + "=1"}, &cfg, &err)) << flag;
        EXPECT_NE(err.find("unknown flag '" + flag + "'"),
                  std::string::npos)
            << err;
    }
}

TEST(ExperimentsTest, DatasetFlagsIgnoreTheEnvironment)
{
    // The flags are the only input: the MICA_* copies that once
    // overrode them change nothing.
    const char *vars[] = {"MICA_BUDGET", "MICA_CACHE", "MICA_JOBS",
                          "MICA_TRACES"};
    for (const char *v : vars)
        ::setenv(v, "1000", 1);
    DatasetConfig cfg;
    std::string err;
    const bool withFlag = parseDatasetFlags({"--budget=5000"}, &cfg, &err);
    const DatasetConfig flagged = cfg;
    const bool bare = parseDatasetFlags({}, &cfg, &err);
    for (const char *v : vars)
        ::unsetenv(v);
    ASSERT_TRUE(withFlag && bare) << err;
    EXPECT_EQ(flagged.maxInsts, 5000u);
    const DatasetConfig def;
    EXPECT_EQ(cfg.maxInsts, def.maxInsts);
    EXPECT_EQ(cfg.cacheDir, def.cacheDir);
    EXPECT_EQ(cfg.jobs, def.jobs);
    EXPECT_EQ(cfg.traceDir, def.traceDir);
}

TEST(ExperimentsTest, SuiteNamesMatchRegistry)
{
    EXPECT_EQ(suiteNames().size(), 6u);
    EXPECT_EQ(suiteNames().front(), "BioInfoMark");
    EXPECT_EQ(suiteNames().back(), "SPEC2000");
}

// ----------------------------------------------------------------------
// End-to-end pipeline on a reduced population: the paper's entire
// methodology in one integration test.
// ----------------------------------------------------------------------

TEST(IntegrationTest, FullMethodologyPipelineOnThreeSuites)
{
    DatasetConfig cfg;
    cfg.maxInsts = 40000;
    cfg.suites = {"CommBench", "MiBench", "BioInfoMark"};
    const SuiteDataset ds = collectSuiteDataset(cfg);
    ASSERT_EQ(ds.benchmarks.size(), 54u);   // 12 + 30 + 12

    // Build the two workload spaces (Section IV).
    const WorkloadSpace micaSpace(ds.micaMatrix());
    const WorkloadSpace hpcSpace(ds.hpcMatrix());
    ASSERT_EQ(micaSpace.distances().numPairs(),
              hpcSpace.distances().numPairs());

    // Fig. 1: the spaces correlate only partially.
    const double rho = pearson(micaSpace.distances().condensed(),
                               hpcSpace.distances().condensed());
    EXPECT_GT(rho, 0.1);
    EXPECT_LT(rho, 0.95);

    // Table III: false negatives must be rare, and the false-positive
    // quadrant (similar counters, dissimilar program) must dominate
    // the false quadrants.
    const auto quad = classifyTuples(hpcSpace.distances().condensed(),
                                     micaSpace.distances().condensed());
    EXPECT_LT(quad.fracFN(), 0.05);
    EXPECT_GT(quad.fracFP(), quad.fracFN());

    // Fig. 4 flavor: the MICA distances rank HPC-similarity decently.
    const auto labels = labelsFromDistances(
        hpcSpace.distances().condensed(), 0.2);
    const auto roc = rocCurve(labels,
                              micaSpace.distances().condensed(), 64);
    EXPECT_GT(roc.auc, 0.6);

    // Section V: GA selection compresses 47 -> few with high fidelity.
    GaConfig gcfg;
    gcfg.maxGenerations = 100;
    gcfg.seed = 13;
    const GaResult ga = geneticSelect(micaSpace, gcfg);
    EXPECT_LE(ga.selected.size(), 16u);
    EXPECT_GE(ga.selected.size(), 3u);
    EXPECT_GT(ga.distanceCorrelation, 0.7);

    // Section VI: cluster in the GA-reduced space.
    Matrix reduced = micaSpace.normalized().selectCols(ga.selected);
    reduced.rowNames = ds.micaMatrix().rowNames;
    const ClusterReport rep = clusterBenchmarks(reduced, 20, 42);
    EXPECT_GE(rep.chosenK, 2u);
    EXPECT_LE(rep.chosenK, 20u);
    size_t members = 0;
    for (const auto &c : rep.clusters)
        members += c.members.size();
    EXPECT_EQ(members, ds.benchmarks.size());
}

} // namespace
} // namespace mica::experiments
