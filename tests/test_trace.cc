/**
 * @file
 * Tests for the trace substrate: InstRecord predicates, the analysis
 * engine, and the synthetic trace sources.
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "trace/engine.hh"
#include "trace/inst_record.hh"
#include "trace/synthetic.hh"

namespace mica
{
namespace
{

using test::Rec;

TEST(InstClassTest, ControlClassesAreExactlyTheFourTransferKinds)
{
    EXPECT_TRUE(isControlClass(InstClass::Branch));
    EXPECT_TRUE(isControlClass(InstClass::Jump));
    EXPECT_TRUE(isControlClass(InstClass::Call));
    EXPECT_TRUE(isControlClass(InstClass::Return));
    EXPECT_FALSE(isControlClass(InstClass::IntAlu));
    EXPECT_FALSE(isControlClass(InstClass::Load));
    EXPECT_FALSE(isControlClass(InstClass::Store));
    EXPECT_FALSE(isControlClass(InstClass::Nop));
}

TEST(InstClassTest, FpClassesCoverAluMulDiv)
{
    EXPECT_TRUE(isFpClass(InstClass::FpAlu));
    EXPECT_TRUE(isFpClass(InstClass::FpMul));
    EXPECT_TRUE(isFpClass(InstClass::FpDiv));
    EXPECT_FALSE(isFpClass(InstClass::IntMul));
    EXPECT_FALSE(isFpClass(InstClass::Load));
}

TEST(InstClassTest, IntArithExcludesMultiplies)
{
    EXPECT_TRUE(isIntArithClass(InstClass::IntAlu));
    EXPECT_TRUE(isIntArithClass(InstClass::IntDiv));
    EXPECT_FALSE(isIntArithClass(InstClass::IntMul));
    EXPECT_FALSE(isIntArithClass(InstClass::FpAlu));
}

TEST(InstRecordTest, DefaultRecordIsInertNop)
{
    InstRecord r;
    EXPECT_EQ(r.cls, InstClass::Nop);
    EXPECT_FALSE(r.isMem());
    EXPECT_FALSE(r.isControl());
    EXPECT_FALSE(r.isCondBranch());
    EXPECT_FALSE(r.hasDst());
    EXPECT_EQ(r.numSrcRegs, 0);
}

TEST(InstRecordTest, MemPredicatesMatchLoadAndStoreOnly)
{
    EXPECT_TRUE(test::load(0x100).isMem());
    EXPECT_TRUE(test::store(0x100).isMem());
    EXPECT_FALSE(test::alu(1).isMem());
    EXPECT_FALSE(test::branch(0x10, true).isMem());
}

TEST(InstRecordTest, OnlyConditionalBranchesAreCondBranches)
{
    EXPECT_TRUE(test::branch(0x10, false).isCondBranch());
    Rec jump(InstClass::Jump);
    jump.taken(true);
    EXPECT_FALSE(InstRecord(jump).isCondBranch());
    EXPECT_TRUE(InstRecord(jump).isControl());
}

TEST(InstRecordTest, HasDstTracksInvalidSentinel)
{
    EXPECT_TRUE(test::alu(5).hasDst());
    EXPECT_FALSE(test::alu(kInvalidReg).hasDst());
}

TEST(VectorTraceSourceTest, ReplaysRecordsInOrder)
{
    VectorTraceSource src({test::alu(1), test::load(0x40),
                           test::store(0x80)});
    InstRecord r;
    ASSERT_TRUE(test::nextRecord(src, r));
    EXPECT_EQ(r.cls, InstClass::IntAlu);
    ASSERT_TRUE(test::nextRecord(src, r));
    EXPECT_EQ(r.cls, InstClass::Load);
    ASSERT_TRUE(test::nextRecord(src, r));
    EXPECT_EQ(r.cls, InstClass::Store);
    EXPECT_FALSE(test::nextRecord(src, r));
}

TEST(VectorTraceSourceTest, PushAppendsRecords)
{
    VectorTraceSource src;
    EXPECT_EQ(src.size(), 0u);
    src.push(test::alu(1));
    src.push(test::alu(2));
    EXPECT_EQ(src.size(), 2u);
}

/** Counts accepted records and finishes for engine tests. */
class CountingAnalyzer : public TraceAnalyzer
{
  public:
    void
    acceptBatch(const InstRecord *, size_t n) override
    {
        accepts += static_cast<int>(n);
    }

    void finish() override { ++finishes; }

    int accepts = 0;
    int finishes = 0;
};

TEST(AnalysisEngineTest, BroadcastsEveryRecordToEveryAnalyzer)
{
    VectorTraceSource src({test::alu(1), test::alu(2), test::alu(3)});
    CountingAnalyzer a, b;
    AnalysisEngine eng;
    eng.add(&a);
    eng.add(&b);
    EXPECT_EQ(eng.run(src), 3u);
    EXPECT_EQ(a.accepts, 3);
    EXPECT_EQ(b.accepts, 3);
}

TEST(AnalysisEngineTest, FinishIsCalledExactlyOnce)
{
    VectorTraceSource src({test::alu(1)});
    CountingAnalyzer a;
    AnalysisEngine eng;
    eng.add(&a);
    eng.run(src);
    EXPECT_EQ(a.finishes, 1);
}

TEST(AnalysisEngineTest, BudgetTruncatesTheTrace)
{
    std::vector<InstRecord> recs(100, test::alu(1));
    VectorTraceSource src(recs);
    CountingAnalyzer a;
    AnalysisEngine eng;
    eng.add(&a);
    EXPECT_EQ(eng.run(src, 42), 42u);
    EXPECT_EQ(a.accepts, 42);
}

TEST(AnalysisEngineTest, ZeroBudgetMeansUnlimited)
{
    std::vector<InstRecord> recs(57, test::alu(1));
    VectorTraceSource src(recs);
    CountingAnalyzer a;
    AnalysisEngine eng;
    eng.add(&a);
    EXPECT_EQ(eng.run(src, 0), 57u);
}

TEST(RandomTraceSourceTest, ProducesExactlyNumInsts)
{
    RandomTraceParams p;
    p.numInsts = 1234;
    RandomTraceSource src(p);
    EXPECT_EQ(test::drain(src).size(), 1234u);
}

TEST(RandomTraceSourceTest, SameSeedSameTrace)
{
    RandomTraceParams p;
    p.numInsts = 500;
    p.seed = 77;
    RandomTraceSource a(p), b(p);
    InstRecord ra, rb;
    while (test::nextRecord(a, ra)) {
        ASSERT_TRUE(test::nextRecord(b, rb));
        EXPECT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.cls, rb.cls);
        EXPECT_EQ(ra.memAddr, rb.memAddr);
        EXPECT_EQ(ra.taken, rb.taken);
    }
    EXPECT_FALSE(test::nextRecord(b, rb));
}

TEST(RandomTraceSourceTest, DifferentSeedsDiffer)
{
    RandomTraceParams pa, pb;
    pa.numInsts = pb.numInsts = 400;
    pa.seed = 1;
    pb.seed = 2;
    RandomTraceSource a(pa), b(pb);
    InstRecord ra, rb;
    int differences = 0;
    while (test::nextRecord(a, ra) && test::nextRecord(b, rb)) {
        if (ra.cls != rb.cls || ra.memAddr != rb.memAddr)
            ++differences;
    }
    EXPECT_GT(differences, 0);
}

/** Property sweep over generator mixes: class fractions track params. */
class RandomTraceMixTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>>
{};

TEST_P(RandomTraceMixTest, ClassFractionsTrackParameters)
{
    const auto [pLoad, pStore, pBranch] = GetParam();
    RandomTraceParams p;
    p.numInsts = 40000;
    p.seed = 99;
    p.pLoad = pLoad;
    p.pStore = pStore;
    p.pBranch = pBranch;
    p.pFp = 0.0;
    p.pIntMul = 0.0;
    RandomTraceSource src(p);
    uint64_t loads = 0, stores = 0, branches = 0, n = 0;
    for (const InstRecord &r : test::drain(src)) {
        ++n;
        loads += r.cls == InstClass::Load;
        stores += r.cls == InstClass::Store;
        branches += r.cls == InstClass::Branch;
    }
    const double tol = 0.02;
    EXPECT_NEAR(double(loads) / double(n), pLoad, tol);
    EXPECT_NEAR(double(stores) / double(n), pStore, tol);
    EXPECT_NEAR(double(branches) / double(n), pBranch, tol);
}

INSTANTIATE_TEST_SUITE_P(
    MixSweep, RandomTraceMixTest,
    ::testing::Values(std::make_tuple(0.1, 0.05, 0.1),
                      std::make_tuple(0.3, 0.15, 0.05),
                      std::make_tuple(0.5, 0.2, 0.2),
                      std::make_tuple(0.0, 0.0, 0.5)));

TEST(VectorTraceSourceTest, NextBatchDrainsInChunks)
{
    std::vector<InstRecord> recs(10, test::alu(1));
    VectorTraceSource src(recs);
    InstRecord buf[4];
    const InstRecord *span = nullptr;
    EXPECT_EQ(src.nextSpan(span, buf, 4), 4u);
    EXPECT_EQ(src.nextSpan(span, buf, 4), 4u);
    EXPECT_EQ(src.nextSpan(span, buf, 4), 2u);   // partial final span
    EXPECT_EQ(src.nextSpan(span, buf, 4), 0u);   // exhausted
}

TEST(VectorTraceSourceTest, NextSpanBorrowsWithoutCopying)
{
    VectorTraceSource src({test::alu(1), test::alu(2), test::alu(3)});
    InstRecord backing[8];
    const InstRecord *span = nullptr;
    EXPECT_EQ(src.nextSpan(span, backing, 8), 3u);
    // The span points into the source's own storage, not at the
    // caller's backing buffer.
    EXPECT_NE(span, backing);
    EXPECT_EQ(span[0].dstReg, 1);
    EXPECT_EQ(span[2].dstReg, 3);
    EXPECT_EQ(src.nextSpan(span, backing, 8), 0u);
}

TEST(RandomTraceSourceTest, NextBatchMatchesNext)
{
    RandomTraceParams p;
    p.numInsts = 1000;
    p.seed = 3;
    // Spans of 77 records give the records of one-record spans.
    RandomTraceSource a(p), b(p);
    const std::vector<InstRecord> viaNext = test::drain(a, SIZE_MAX, 1);
    const std::vector<InstRecord> viaBatch = test::drain(b, SIZE_MAX, 77);
    const size_t n = viaBatch.size();
    ASSERT_EQ(n, viaNext.size());
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(viaBatch[i].pc, viaNext[i].pc);
        EXPECT_EQ(viaBatch[i].cls, viaNext[i].cls);
        EXPECT_EQ(viaBatch[i].memAddr, viaNext[i].memAddr);
        EXPECT_EQ(viaBatch[i].taken, viaNext[i].taken);
    }
}

TEST(AnalysisEngineTest, BatchedRunMatchesPerRecordCounts)
{
    for (size_t bs : {size_t(1), size_t(3), size_t(100),
                      AnalysisEngine::kDefaultBatchSize}) {
        std::vector<InstRecord> recs(101, test::alu(1));
        VectorTraceSource vec(recs);
        test::CappedSpans src(vec, bs);
        CountingAnalyzer a;
        AnalysisEngine eng;
        eng.add(&a);
        EXPECT_EQ(eng.run(src), 101u) << "batch=" << bs;
        EXPECT_EQ(a.accepts, 101) << "batch=" << bs;
        EXPECT_EQ(a.finishes, 1) << "batch=" << bs;
    }
}

TEST(AnalysisEngineTest, BatchedBudgetCutsMidBatch)
{
    std::vector<InstRecord> recs(100, test::alu(1));
    VectorTraceSource vec(recs);
    test::CappedSpans src(vec, 8);
    CountingAnalyzer a;
    AnalysisEngine eng;
    eng.add(&a);
    EXPECT_EQ(eng.run(src, 42), 42u);   // 42 is not a multiple of 8
    EXPECT_EQ(a.accepts, 42);
}

/** Records the size of every span acceptBatch was given. */
class BatchSpyAnalyzer : public TraceAnalyzer
{
  public:
    void
    acceptBatch(const InstRecord *, size_t n) override
    {
        batchSizes.push_back(n);
    }

    std::vector<size_t> batchSizes;
};

TEST(AnalysisEngineTest, BatchedRunDeliversSpans)
{
    std::vector<InstRecord> recs(10, test::alu(1));
    VectorTraceSource vec(recs);
    test::CappedSpans src(vec, 4);
    BatchSpyAnalyzer a;
    AnalysisEngine eng;
    eng.add(&a);
    EXPECT_EQ(eng.run(src), 10u);
    // The source's spans reach the analyzer as they were lent.
    EXPECT_EQ(a.batchSizes, (std::vector<size_t>{4, 4, 2}));
}

TEST(RandomTraceSourceTest, FootprintBoundsDataAddresses)
{
    RandomTraceParams p;
    p.numInsts = 20000;
    p.dataFootprint = 4096;
    RandomTraceSource src(p);
    for (const InstRecord &r : test::drain(src)) {
        if (r.isMem()) {
            EXPECT_GE(r.memAddr, RandomTraceSource::kDataBase);
            EXPECT_LT(r.memAddr,
                      RandomTraceSource::kDataBase + p.dataFootprint + 8);
        }
    }
}

} // namespace
} // namespace mica
