/**
 * @file
 * Golden A/B tests: how a trace is cut into spans must not change a
 * bit of any result. Each test lends the records in spans of at most
 * b (test::CappedSpans; b = 1 is the per-record reference path) and
 * compares with the engine's default spans — same MicaProfile bytes
 * for every span cap, trace source, seed, and instruction budget.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "isa/interpreter.hh"
#include "mica/ilp.hh"
#include "mica/ppm.hh"
#include "mica/profile.hh"
#include "mica/reg_traffic.hh"
#include "mica/runner.hh"
#include "mica/strides.hh"
#include "mica/working_set.hh"
#include "trace/engine.hh"
#include "test_util.hh"
#include "trace/synthetic.hh"
#include "workloads/registry.hh"

namespace mica
{
namespace
{

/** Bitwise profile comparison: no tolerance, no rounding. */
void
expectProfilesIdentical(const MicaProfile &a, const MicaProfile &b,
                        const std::string &what)
{
    EXPECT_EQ(a.name, b.name) << what;
    EXPECT_EQ(a.instCount, b.instCount) << what;
    EXPECT_EQ(std::memcmp(a.values.data(), b.values.data(),
                          sizeof(a.values)),
              0)
        << what;
}

/** Span caps compared with the default: one record, and non-divisors. */
constexpr size_t kCaps[] = {1, 3, 97, 333};

/** Profile @p src lent in spans of at most @p cap (0: uncapped). */
MicaProfile
profileCapped(TraceSource &src, const std::string &name, size_t cap,
              const MicaRunnerConfig &cfg = {})
{
    if (cap == 0)
        return collectMicaProfile(src, name, cfg);
    test::CappedSpans capped(src, cap);
    return collectMicaProfile(capped, name, cfg);
}

MicaProfile
profileRandom(uint64_t seed, size_t cap, uint64_t budget)
{
    RandomTraceParams p;
    p.numInsts = 20000;
    p.seed = seed;
    RandomTraceSource src(p);
    MicaRunnerConfig cfg;
    cfg.maxInsts = budget;
    return profileCapped(src, "rand", cap, cfg);
}

TEST(BatchedEquivalenceTest, RandomTracesAcrossSeedsAndBatchSizes)
{
    for (uint64_t seed : {1ull, 7ull, 42ull}) {
        const MicaProfile ref = profileRandom(seed, 0, 0);
        for (size_t cap : kCaps) {
            const MicaProfile got = profileRandom(seed, cap, 0);
            expectProfilesIdentical(
                ref, got,
                "seed=" + std::to_string(seed) +
                    " cap=" + std::to_string(cap));
        }
    }
}

TEST(BatchedEquivalenceTest, BudgetNotAMultipleOfBatchSize)
{
    // 12345 records: the budget cuts mid-span for every cap and for
    // the default 1024-record spans.
    const MicaProfile ref = profileRandom(11, 0, 12345);
    EXPECT_EQ(ref.instCount, 12345u);
    for (size_t cap : kCaps)
        expectProfilesIdentical(ref, profileRandom(11, cap, 12345),
                                "budget=12345 cap=" +
                                    std::to_string(cap));
}

TEST(BatchedEquivalenceTest, VectorReplayMatchesGenerator)
{
    // The borrowed-span (zero-copy) VectorTraceSource path must agree
    // with the generator-backed path, in default and one-record spans.
    RandomTraceParams p;
    p.numInsts = 20000;
    p.seed = 42;
    RandomTraceSource gen(p);
    const std::vector<InstRecord> recs = test::drain(gen);
    ASSERT_EQ(recs.size(), p.numInsts);

    const MicaProfile viaGenerator = profileRandom(42, 0, 0);
    for (size_t cap : {size_t(0), size_t(1)}) {
        VectorTraceSource replay(recs);
        expectProfilesIdentical(profileCapped(replay, "rand", cap),
                                viaGenerator,
                                "replay cap=" + std::to_string(cap));
    }
}

TEST(BatchedEquivalenceTest, RealKernelsMatchBitForBit)
{
    // Two registry kernels through the interpreter: the span cut must
    // not change a single profile byte.
    const char *names[] = {"SPEC2000/bzip2.source",
                           "MediaBench/epic.test2"};
    for (const char *name : names) {
        const auto *e = workloads::BenchmarkRegistry::instance().find(
            name);
        ASSERT_NE(e, nullptr) << name;
        const isa::Program prog = e->build();

        MicaRunnerConfig cfg;
        cfg.maxInsts = 50000;
        isa::Interpreter interpA(prog);
        const MicaProfile ref = profileCapped(interpA, name, 0, cfg);

        for (size_t cap : kCaps) {
            isa::Interpreter interpB(prog);
            const MicaProfile got = profileCapped(interpB, name, cap, cfg);
            expectProfilesIdentical(ref, got,
                                    std::string(name) + " cap=" +
                                        std::to_string(cap));
        }
    }
}

/**
 * A lone analyzer takes the engine's span-sized acceptBatch path —
 * the only place the analyzers' batch kernels (e.g. StrideAnalyzer's
 * two-pass load/store split) run over a whole span in production.
 * Drive each analyzer alone, default spans vs capped ones.
 */
template <typename Analyzer, typename Check>
void
loneAnalyzerAB(Check &&check)
{
    RandomTraceParams p;
    p.numInsts = 20000;
    p.seed = 13;

    Analyzer ref;
    {
        RandomTraceSource src(p);
        AnalysisEngine eng;
        eng.add(&ref);
        eng.run(src);
    }
    for (size_t cap : kCaps) {
        Analyzer capped;
        RandomTraceSource src(p);
        test::CappedSpans spans(src, cap);
        AnalysisEngine eng;
        eng.add(&capped);
        eng.run(spans);
        check(ref, capped);
    }
}

TEST(BatchedEquivalenceTest, LoneStrideAnalyzerBatchKernel)
{
    loneAnalyzerAB<StrideAnalyzer>([](const StrideAnalyzer &a,
                                      const StrideAnalyzer &b) {
        for (size_t c = 0; c < StrideAnalyzer::kCuts.size(); ++c) {
            EXPECT_DOUBLE_EQ(a.localLoad().prob(c), b.localLoad().prob(c));
            EXPECT_DOUBLE_EQ(a.globalLoad().prob(c),
                             b.globalLoad().prob(c));
            EXPECT_DOUBLE_EQ(a.localStore().prob(c),
                             b.localStore().prob(c));
            EXPECT_DOUBLE_EQ(a.globalStore().prob(c),
                             b.globalStore().prob(c));
        }
        EXPECT_EQ(a.localLoad().total, b.localLoad().total);
        EXPECT_EQ(a.globalStore().total, b.globalStore().total);
    });
}

TEST(BatchedEquivalenceTest, LoneWorkingSetAnalyzerBatchKernel)
{
    loneAnalyzerAB<WorkingSetAnalyzer>([](const WorkingSetAnalyzer &a,
                                          const WorkingSetAnalyzer &b) {
        EXPECT_EQ(a.dBlocks(), b.dBlocks());
        EXPECT_EQ(a.dPages(), b.dPages());
        EXPECT_EQ(a.iBlocks(), b.iBlocks());
        EXPECT_EQ(a.iPages(), b.iPages());
    });
}

TEST(BatchedEquivalenceTest, LoneIlpAnalyzerBatchKernel)
{
    loneAnalyzerAB<IlpAnalyzer>([](const IlpAnalyzer &a,
                                   const IlpAnalyzer &b) {
        for (size_t w = 0; w < a.numWindows(); ++w)
            EXPECT_DOUBLE_EQ(a.ipc(w), b.ipc(w));
    });
}

TEST(BatchedEquivalenceTest, LonePpmAnalyzerBatchKernel)
{
    loneAnalyzerAB<PpmBranchAnalyzer>([](const PpmBranchAnalyzer &a,
                                         const PpmBranchAnalyzer &b) {
        EXPECT_EQ(a.branches(), b.branches());
        EXPECT_DOUBLE_EQ(a.missRateGAg(), b.missRateGAg());
        EXPECT_DOUBLE_EQ(a.missRatePAg(), b.missRatePAg());
        EXPECT_DOUBLE_EQ(a.missRateGAs(), b.missRateGAs());
        EXPECT_DOUBLE_EQ(a.missRatePAs(), b.missRatePAs());
    });
}

TEST(BatchedEquivalenceTest, LoneRegTrafficAnalyzerBatchKernel)
{
    loneAnalyzerAB<RegTrafficAnalyzer>(
        [](const RegTrafficAnalyzer &a, const RegTrafficAnalyzer &b) {
            EXPECT_DOUBLE_EQ(a.avgInputOperands(), b.avgInputOperands());
            EXPECT_DOUBLE_EQ(a.avgDegreeOfUse(), b.avgDegreeOfUse());
            EXPECT_EQ(a.totalDeps(), b.totalDeps());
            for (size_t c = 0; c < RegTrafficAnalyzer::kDistCuts.size();
                 ++c)
                EXPECT_DOUBLE_EQ(a.depDistanceCum(c),
                                 b.depDistanceCum(c));
        });
}

/** A subset collection, default spans vs each capped cut. */
void
subsetAB(const std::vector<size_t> &selected, uint64_t seed,
         const std::string &what)
{
    RandomTraceParams p;
    p.numInsts = 20000;
    p.seed = seed;

    RandomTraceSource a(p);
    const MicaProfile ref = collectMicaProfileSubset(a, "rand", selected);
    for (size_t cap : kCaps) {
        RandomTraceSource b(p);
        test::CappedSpans spans(b, cap);
        expectProfilesIdentical(
            ref, collectMicaProfileSubset(spans, "rand", selected),
            what + " cap=" + std::to_string(cap));
    }
}

TEST(BatchedEquivalenceTest, StrideOnlySubsetUsesLoneAnalyzerPath)
{
    // All requested characteristics come from one family, so the
    // engine registers exactly one analyzer and takes the
    // acceptBatch fast path end to end through the runner.
    subsetAB({LocalLoadStrideEq0, GlobalLoadStrideLe512,
              LocalStoreStrideLe4096},
             29, "stride-only subset");
}

TEST(BatchedEquivalenceTest, SubsetCollectionMatches)
{
    subsetAB({PctLoads, AvgInputOperands, RegDepLe8, LocalLoadStrideLe64,
              GlobalLoadStrideLe512, LocalStoreStrideLe4096, DWorkSet4K,
              Ilp256},
             5, "subset");
}

} // namespace
} // namespace mica
