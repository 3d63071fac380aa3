/**
 * @file
 * Closed-form and property tests for the six MICA analyzer families
 * (Table II characteristics 1-47).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

#include "isa/interpreter.hh"
#include "mica/ilp.hh"
#include "mica/inst_mix.hh"
#include "mica/ppm.hh"
#include "mica/reg_traffic.hh"
#include "mica/strides.hh"
#include "mica/working_set.hh"
#include "stats/rng.hh"
#include "test_util.hh"
#include "trace/engine.hh"
#include "trace/synthetic.hh"
#include "workloads/registry.hh"

namespace mica
{
namespace
{

using test::Rec;
using test::feed;

// ----------------------------------------------------------------------
// Instruction mix (characteristics 1-6).
// ----------------------------------------------------------------------

TEST(InstMixTest, ClosedFormMix)
{
    InstMixAnalyzer mix;
    feed(mix, {test::load(0), test::load(8), test::store(16),
               test::branch(0, true), test::alu(1),
               Rec(InstClass::IntMul), Rec(InstClass::FpAlu),
               Rec(InstClass::FpMul), Rec(InstClass::IntDiv),
               Rec(InstClass::Jump)});
    EXPECT_EQ(mix.total(), 10u);
    EXPECT_DOUBLE_EQ(mix.pctLoads(), 20.0);
    EXPECT_DOUBLE_EQ(mix.pctStores(), 10.0);
    EXPECT_DOUBLE_EQ(mix.pctControl(), 20.0);   // branch + jump
    EXPECT_DOUBLE_EQ(mix.pctArith(), 20.0);     // alu + div
    EXPECT_DOUBLE_EQ(mix.pctIntMul(), 10.0);
    EXPECT_DOUBLE_EQ(mix.pctFpOps(), 20.0);     // fpalu + fpmul
}

TEST(InstMixTest, EmptyTraceYieldsZeroes)
{
    InstMixAnalyzer mix;
    mix.finish();
    EXPECT_EQ(mix.total(), 0u);
    EXPECT_DOUBLE_EQ(mix.pctLoads(), 0.0);
    EXPECT_DOUBLE_EQ(mix.pctFpOps(), 0.0);
}

TEST(InstMixTest, CallsAndReturnsCountAsControl)
{
    InstMixAnalyzer mix;
    feed(mix, {Rec(InstClass::Call), Rec(InstClass::Return),
               test::alu(1), test::alu(1)});
    EXPECT_DOUBLE_EQ(mix.pctControl(), 50.0);
}

TEST(InstMixTest, PercentagesArePartitionOfAtMost100)
{
    RandomTraceParams p;
    p.numInsts = 20000;
    RandomTraceSource src(p);
    InstMixAnalyzer mix;
    feed(mix, test::drain(src));
    const double sum = mix.pctLoads() + mix.pctStores() +
        mix.pctControl() + mix.pctArith() + mix.pctIntMul() +
        mix.pctFpOps();
    EXPECT_LE(sum, 100.0 + 1e-9);
    EXPECT_GT(sum, 0.0);
}

// ----------------------------------------------------------------------
// Idealized-window ILP (characteristics 7-10).
// ----------------------------------------------------------------------

TEST(IlpTest, IndependentInstructionsReachTheWindowBound)
{
    // No register dependences at all: IPC should approach the window.
    IlpAnalyzer ilp({4});
    std::vector<InstRecord> recs(4000, test::alu(kInvalidReg));
    feed(ilp, recs);
    EXPECT_NEAR(ilp.ipc(0), 4.0, 0.01);
}

TEST(IlpTest, SerialChainHasIpcOne)
{
    IlpAnalyzer ilp({32, 256});
    std::vector<InstRecord> recs;
    for (int i = 0; i < 2000; ++i)
        recs.push_back(test::alu(1, {1}));      // r1 = f(r1)
    feed(ilp, recs);
    EXPECT_NEAR(ilp.ipc(0), 1.0, 0.01);
    EXPECT_NEAR(ilp.ipc(1), 1.0, 0.01);
}

TEST(IlpTest, TwoIndependentChainsHaveIpcTwo)
{
    IlpAnalyzer ilp({64});
    std::vector<InstRecord> recs;
    for (int i = 0; i < 3000; ++i) {
        recs.push_back(test::alu(1, {1}));
        recs.push_back(test::alu(2, {2}));
    }
    feed(ilp, recs);
    EXPECT_NEAR(ilp.ipc(0), 2.0, 0.01);
}

TEST(IlpTest, LargerWindowsNeverHurt)
{
    RandomTraceParams p;
    p.numInsts = 20000;
    p.seed = 3;
    RandomTraceSource src(p);
    IlpAnalyzer ilp;        // paper windows 32/64/128/256
    feed(ilp, test::drain(src));
    EXPECT_LE(ilp.ipc(0), ilp.ipc(1) + 1e-9);
    EXPECT_LE(ilp.ipc(1), ilp.ipc(2) + 1e-9);
    EXPECT_LE(ilp.ipc(2), ilp.ipc(3) + 1e-9);
    EXPECT_GE(ilp.ipc(0), 1.0);
    EXPECT_LE(ilp.ipc(3), 256.0);
}

TEST(IlpTest, NonPowerOfTwoWindowsAreExact)
{
    // A window need not be a power of two. With fully independent
    // instructions, each group of W completes one cycle after the
    // previous group: IPC = N / ceil(N / W).
    IlpAnalyzer ilp({32, 48});
    std::vector<InstRecord> recs(96, test::alu(kInvalidReg));
    feed(ilp, recs);
    EXPECT_EQ(ilp.windowSize(0), 32u);
    EXPECT_EQ(ilp.windowSize(1), 48u);
    EXPECT_DOUBLE_EQ(ilp.ipc(0), 96.0 / 3.0);   // ceil(96/32) = 3
    EXPECT_DOUBLE_EQ(ilp.ipc(1), 96.0 / 2.0);   // ceil(96/48) = 2
}

TEST(IlpTest, NonPowerOfTwoWindowMatchesPowerOfTwoSemantics)
{
    // Same random trace through a pow2 and a non-pow2 window of the
    // same effective size ordering: w=33 must behave like a window
    // one slot larger than w=32, never like a corrupted ring.
    RandomTraceParams p;
    p.numInsts = 10000;
    p.seed = 9;
    RandomTraceSource src(p);
    IlpAnalyzer ilp({32, 33, 64});
    feed(ilp, test::drain(src));
    EXPECT_LE(ilp.ipc(0), ilp.ipc(1) + 1e-9);   // 32 <= 33
    EXPECT_LE(ilp.ipc(1), ilp.ipc(2) + 1e-9);   // 33 <= 64
}

/**
 * The model one window at a time, as defined: a ring of W completion
 * cycles and one ready cycle per register.
 */
double
referenceIlp(const std::vector<InstRecord> &recs, size_t window)
{
    std::vector<uint64_t> complete(window, 0);
    std::vector<uint64_t> ready(kNumRegs, 0);
    uint64_t maxComplete = 0;
    for (size_t i = 0; i < recs.size(); ++i) {
        const InstRecord &rec = recs[i];
        uint64_t start = complete[i % window];
        for (unsigned s = 0; s < rec.numSrcRegs; ++s) {
            const uint16_t r = rec.srcRegs[s];
            if (r != kZeroReg && r < kNumRegs)
                start = std::max(start, ready[r]);
        }
        const uint64_t comp = start + 1;
        complete[i % window] = comp;
        if (rec.dstReg != kZeroReg && rec.dstReg < kNumRegs)
            ready[rec.dstReg] = comp;
        maxComplete = std::max(maxComplete, comp);
    }
    return maxComplete ? double(recs.size()) / double(maxComplete) : 0.0;
}

TEST(IlpTest, LockstepWindowsMatchOneWindowAtATime)
{
    // Every window of a list must read as if it ran alone: lists of
    // one to four windows, unsorted, repeated, pow2 and not, with
    // operands on the zero register and out of range.
    const std::vector<std::vector<size_t>> lists = {
        {1}, {3}, {256, 32}, {7, 64, 65, 200}, {128, 128},
        {2, 4, 8, 16}, {300, 1, 33}};
    for (uint64_t seed : {5u, 17u}) {
        RandomTraceParams p;
        p.numInsts = 6000;
        p.seed = seed;
        RandomTraceSource src(p);
        std::vector<InstRecord> recs;
        for (InstRecord r : test::drain(src)) {
            if (recs.size() % 7 == 0)
                r.dstReg = kNumRegs + 3;
            if (recs.size() % 11 == 0 && r.numSrcRegs > 0)
                r.srcRegs[0] = kNumRegs + 5;
            if (recs.size() % 13 == 0 && r.numSrcRegs > 0)
                r.srcRegs[0] = kZeroReg;
            recs.push_back(r);
        }
        for (const auto &windows : lists) {
            IlpAnalyzer ilp(windows);
            ilp.acceptBatch(recs.data(), recs.size());
            ilp.finish();
            ASSERT_EQ(ilp.numWindows(), windows.size());
            for (size_t w = 0; w < windows.size(); ++w) {
                EXPECT_EQ(ilp.windowSize(w), windows[w]);
                EXPECT_EQ(ilp.ipc(w), referenceIlp(recs, windows[w]))
                    << "seed " << seed << " window " << windows[w];
            }
        }
    }
}

TEST(IlpTest, BatchedAcceptMatchesPerRecord)
{
    RandomTraceParams p;
    p.numInsts = 5000;
    p.seed = 21;
    RandomTraceSource src(p);
    const std::vector<InstRecord> recs = test::drain(src);

    IlpAnalyzer single, batched;
    for (const InstRecord &r : recs)
        single.acceptBatch(&r, 1);
    single.finish();
    batched.acceptBatch(recs.data(), recs.size());
    batched.finish();
    for (size_t w = 0; w < single.numWindows(); ++w)
        EXPECT_DOUBLE_EQ(single.ipc(w), batched.ipc(w));
}

TEST(IlpTest, RejectsAnEmptyWindowList)
{
    EXPECT_THROW(IlpAnalyzer(std::vector<size_t>{}), std::invalid_argument);
}

TEST(IlpTest, RejectsAZeroWindow)
{
    EXPECT_THROW(IlpAnalyzer({32, 0}), std::invalid_argument);
}

TEST(IlpTest, RejectsMoreThanFourWindows)
{
    EXPECT_THROW(IlpAnalyzer({16, 32, 64, 128, 256}),
                 std::invalid_argument);
}

TEST(IlpTest, ZeroRegisterCarriesNoDependence)
{
    IlpAnalyzer ilp({16});
    std::vector<InstRecord> recs;
    for (int i = 0; i < 1600; ++i)
        recs.push_back(test::alu(kZeroReg, {kZeroReg}));
    feed(ilp, recs);
    EXPECT_NEAR(ilp.ipc(0), 16.0, 0.05);
}

TEST(IlpTest, WindowEntryLimitsDistantParallelism)
{
    // Alternate a serial chain with independent work: with window 2,
    // the serial chain throttles entry.
    IlpAnalyzer ilp({2});
    std::vector<InstRecord> recs;
    for (int i = 0; i < 2000; ++i) {
        recs.push_back(test::alu(1, {1}));
        recs.push_back(test::alu(kInvalidReg));
    }
    feed(ilp, recs);
    EXPECT_NEAR(ilp.ipc(0), 2.0, 0.05);
    EXPECT_EQ(ilp.windowSize(0), 2u);
}

// ----------------------------------------------------------------------
// Register traffic (characteristics 11-19).
// ----------------------------------------------------------------------

TEST(RegTrafficTest, AvgInputOperandsClosedForm)
{
    RegTrafficAnalyzer rt;
    feed(rt, {test::alu(1, {2, 3}), test::alu(2, {1}),
              test::alu(3, {})});
    EXPECT_DOUBLE_EQ(rt.avgInputOperands(), 1.0);   // 3 reads / 3 insts
}

TEST(RegTrafficTest, ZeroRegisterReadsAreExcluded)
{
    RegTrafficAnalyzer rt;
    feed(rt, {test::alu(1, {kZeroReg, kZeroReg}),
              test::alu(2, {kZeroReg})});
    EXPECT_DOUBLE_EQ(rt.avgInputOperands(), 0.0);
}

TEST(RegTrafficTest, DegreeOfUseCountsReadsPerInstance)
{
    RegTrafficAnalyzer rt;
    // r1 written once, read three times, then overwritten (0 reads).
    feed(rt, {test::alu(1, {}), test::alu(2, {1}), test::alu(3, {1}),
              test::alu(4, {1}), test::alu(1, {})});
    // Instances closed: first r1 (3 uses), r2 (0), r3 (0), r4 (0),
    // second r1 (0) -> average 3/5.
    EXPECT_DOUBLE_EQ(rt.avgDegreeOfUse(), 3.0 / 5.0);
}

TEST(RegTrafficTest, DependencyDistanceCumulative)
{
    RegTrafficAnalyzer rt;
    std::vector<InstRecord> recs;
    recs.push_back(test::alu(1, {}));           // write r1 at index 0
    recs.push_back(test::alu(5, {1}));          // distance 1
    recs.push_back(test::alu(6, {1}));          // distance 2
    recs.push_back(test::alu(7, {}));
    recs.push_back(test::alu(8, {1}));          // distance 4
    feed(rt, recs);
    EXPECT_EQ(rt.totalDeps(), 3u);
    EXPECT_DOUBLE_EQ(rt.depDistanceCum(0), 1.0 / 3.0);     // <= 1
    EXPECT_DOUBLE_EQ(rt.depDistanceCum(1), 2.0 / 3.0);     // <= 2
    EXPECT_DOUBLE_EQ(rt.depDistanceCum(2), 1.0);           // <= 4
    EXPECT_DOUBLE_EQ(rt.depDistanceCum(6), 1.0);           // <= 64
}

TEST(RegTrafficTest, ReadsBeforeFirstWriteCarryNoDependence)
{
    RegTrafficAnalyzer rt;
    feed(rt, {test::alu(2, {1})});      // r1 never written
    EXPECT_EQ(rt.totalDeps(), 0u);
    EXPECT_DOUBLE_EQ(rt.avgInputOperands(), 1.0);   // still a read
}

TEST(RegTrafficTest, CumulativeDistributionIsMonotone)
{
    RandomTraceParams p;
    p.numInsts = 30000;
    p.seed = 11;
    RandomTraceSource src(p);
    RegTrafficAnalyzer rt;
    feed(rt, test::drain(src));
    for (size_t c = 1; c < RegTrafficAnalyzer::kDistCuts.size(); ++c)
        EXPECT_LE(rt.depDistanceCum(c - 1), rt.depDistanceCum(c) + 1e-12);
    EXPECT_GE(rt.depDistanceCum(0), 0.0);
    EXPECT_LE(rt.depDistanceCum(6), 1.0);
}

TEST(RegTrafficTest, FinishIsIdempotent)
{
    RegTrafficAnalyzer rt;
    feed(rt, {test::alu(1, {}), test::alu(2, {1})});
    const double first = rt.avgDegreeOfUse();
    rt.finish();
    EXPECT_DOUBLE_EQ(rt.avgDegreeOfUse(), first);
}

// ----------------------------------------------------------------------
// Working sets (characteristics 20-23).
// ----------------------------------------------------------------------

TEST(WorkingSetTest, CountsUniqueBlocksAndPages)
{
    WorkingSetAnalyzer ws;
    // Two accesses in one 32B block, one in another block same page,
    // one on a different page.
    feed(ws, {test::load(0x10000), test::load(0x10004),
              test::load(0x10020), test::load(0x20000)});
    EXPECT_EQ(ws.dBlocks(), 3u);
    EXPECT_EQ(ws.dPages(), 2u);
}

TEST(WorkingSetTest, InstructionStreamUsesFetchAddresses)
{
    WorkingSetAnalyzer ws;
    feed(ws, {test::alu(1), test::alu(1)});     // both at pc 0
    EXPECT_EQ(ws.iBlocks(), 1u);
    EXPECT_EQ(ws.iPages(), 1u);
    EXPECT_EQ(ws.dBlocks(), 0u);
}

TEST(WorkingSetTest, NonMemInstructionsDoNotTouchDataStream)
{
    WorkingSetAnalyzer ws;
    feed(ws, {test::alu(1), test::branch(0x40, true)});
    EXPECT_EQ(ws.dBlocks(), 0u);
    EXPECT_EQ(ws.dPages(), 0u);
    EXPECT_EQ(ws.iBlocks(), 2u);    // pc 0 and pc 0x40
}

TEST(WorkingSetTest, SequentialWalkTouchesExpectedCounts)
{
    WorkingSetAnalyzer ws;
    std::vector<InstRecord> recs;
    for (uint64_t a = 0; a < 4096; a += 8)
        recs.push_back(test::load(0x100000 + a));
    feed(ws, recs);
    EXPECT_EQ(ws.dBlocks(), 4096u / 32);
    EXPECT_EQ(ws.dPages(), 1u);
}

TEST(WorkingSetTest, StoresContributeToTheDataStream)
{
    WorkingSetAnalyzer ws;
    feed(ws, {test::store(0x5000), test::load(0x9000)});
    EXPECT_EQ(ws.dBlocks(), 2u);
    EXPECT_EQ(ws.dPages(), 2u);
}

// ----------------------------------------------------------------------
// Strides (characteristics 24-43).
// ----------------------------------------------------------------------

TEST(StrideTest, GlobalStrideIsBetweenTemporallyAdjacentAccesses)
{
    StrideAnalyzer st;
    feed(st, {test::load(100, 1, 0x10), test::load(108, 1, 0x20),
              test::load(100, 1, 0x10)});
    // Two global strides: 8 and 8.
    EXPECT_EQ(st.globalLoad().total, 2u);
    EXPECT_DOUBLE_EQ(st.globalLoad().prob(0), 0.0);     // stride 0
    EXPECT_DOUBLE_EQ(st.globalLoad().prob(1), 1.0);     // <= 8
}

TEST(StrideTest, LocalStridesTrackPerPc)
{
    StrideAnalyzer st;
    // pc 0x10 strides by 8; pc 0x20 strides by 4096.
    feed(st, {test::load(0, 1, 0x10), test::load(100000, 1, 0x20),
              test::load(8, 1, 0x10), test::load(104096, 1, 0x20)});
    EXPECT_EQ(st.localLoad().total, 2u);
    EXPECT_DOUBLE_EQ(st.localLoad().prob(1), 0.5);      // <= 8
    EXPECT_DOUBLE_EQ(st.localLoad().prob(4), 1.0);      // <= 4096
}

TEST(StrideTest, LoadsAndStoresAreSeparateStreams)
{
    StrideAnalyzer st;
    feed(st, {test::load(0), test::store(1000000), test::load(8)});
    // The intervening store must not perturb the load stream.
    EXPECT_EQ(st.globalLoad().total, 1u);
    EXPECT_DOUBLE_EQ(st.globalLoad().prob(1), 1.0);
    EXPECT_EQ(st.globalStore().total, 0u);
}

TEST(StrideTest, ZeroStrideDetected)
{
    StrideAnalyzer st;
    feed(st, {test::load(64, 1, 0x8), test::load(64, 1, 0x8)});
    EXPECT_DOUBLE_EQ(st.localLoad().prob(0), 1.0);
    EXPECT_DOUBLE_EQ(st.globalLoad().prob(0), 1.0);
}

TEST(StrideTest, NegativeStridesUseAbsoluteDistance)
{
    StrideAnalyzer st;
    feed(st, {test::load(1000), test::load(936)});      // -64
    EXPECT_DOUBLE_EQ(st.globalLoad().prob(2), 1.0);     // <= 64
    EXPECT_DOUBLE_EQ(st.globalLoad().prob(1), 0.0);     // not <= 8
}

TEST(StrideTest, CumulativeProbabilitiesAreMonotone)
{
    RandomTraceParams p;
    p.numInsts = 30000;
    p.seed = 21;
    RandomTraceSource src(p);
    StrideAnalyzer st;
    feed(st, test::drain(src));
    for (const auto *d : {&st.localLoad(), &st.globalLoad(),
                          &st.localStore(), &st.globalStore()}) {
        for (size_t c = 1; c < StrideAnalyzer::kCuts.size(); ++c)
            EXPECT_LE(d->prob(c - 1), d->prob(c) + 1e-12);
        EXPECT_LE(d->prob(4), 1.0);
    }
}

TEST(StrideTest, FirstAccessProducesNoStride)
{
    StrideAnalyzer st;
    feed(st, {test::load(0x100)});
    EXPECT_EQ(st.globalLoad().total, 0u);
    EXPECT_EQ(st.localLoad().total, 0u);
}

// ----------------------------------------------------------------------
// PPM branch predictability (characteristics 44-47).
// ----------------------------------------------------------------------

TEST(PpmTest, AlwaysTakenIsNearlyPerfectlyPredicted)
{
    PpmBranchAnalyzer ppm(8);
    std::vector<InstRecord> recs;
    for (int i = 0; i < 2000; ++i)
        recs.push_back(test::branch(0x100, true));
    feed(ppm, recs);
    EXPECT_EQ(ppm.branches(), 2000u);
    EXPECT_LT(ppm.missRateGAg(), 0.01);
    EXPECT_LT(ppm.missRatePAg(), 0.01);
    EXPECT_LT(ppm.missRateGAs(), 0.01);
    EXPECT_LT(ppm.missRatePAs(), 0.01);
}

TEST(PpmTest, AlternatingPatternIsLearnedByHistory)
{
    PpmBranchAnalyzer ppm(8);
    std::vector<InstRecord> recs;
    for (int i = 0; i < 4000; ++i)
        recs.push_back(test::branch(0x100, i % 2 == 0));
    feed(ppm, recs);
    // All four variants see the alternating history.
    EXPECT_LT(ppm.missRateGAg(), 0.05);
    EXPECT_LT(ppm.missRatePAs(), 0.05);
}

TEST(PpmTest, LongPeriodicPatternNeedsEnoughContext)
{
    // Period-6 pattern: predictable with order >= 6, not with order 2.
    const auto run = [](unsigned order) {
        PpmBranchAnalyzer ppm(order);
        std::vector<InstRecord> recs;
        for (int i = 0; i < 6000; ++i)
            recs.push_back(test::branch(0x40, (i % 6) < 3));
        ppm.acceptBatch(recs.data(), recs.size());
        return ppm.missRateGAg();
    };
    EXPECT_LT(run(8), 0.02);
    EXPECT_GT(run(2), 0.10);
}

TEST(PpmTest, RandomBranchesAreUnpredictable)
{
    Rng rng(7);
    PpmBranchAnalyzer ppm(8);
    std::vector<InstRecord> recs;
    for (int i = 0; i < 20000; ++i)
        recs.push_back(test::branch(0x100, rng.chance(0.5)));
    feed(ppm, recs);
    EXPECT_GT(ppm.missRateGAg(), 0.40);
    EXPECT_LT(ppm.missRateGAg(), 0.60);
}

TEST(PpmTest, BiasedRandomApproachesBiasRate)
{
    Rng rng(9);
    PpmBranchAnalyzer ppm(8);
    std::vector<InstRecord> recs;
    for (int i = 0; i < 20000; ++i)
        recs.push_back(test::branch(0x100, rng.chance(0.9)));
    feed(ppm, recs);
    // An ideal predictor mispredicts ~10%; PPM should be close.
    EXPECT_LT(ppm.missRateGAg(), 0.2);
    EXPECT_GT(ppm.missRateGAg(), 0.05);
}

TEST(PpmTest, PerAddressVariantsSeparateInterleavedBranches)
{
    // Branch A always taken, branch B alternates; interleaved they
    // look noisy to a short global history but trivial per address.
    std::vector<InstRecord> recs;
    for (int i = 0; i < 4000; ++i) {
        recs.push_back(test::branch(0xA0, true));
        recs.push_back(test::branch(0xB0, i % 2 == 0));
    }
    PpmBranchAnalyzer low(1);
    low.acceptBatch(recs.data(), recs.size());
    EXPECT_LT(low.missRatePAs(), low.missRateGAg() + 1e-9);
    EXPECT_LT(low.missRatePAs(), 0.05);
}

TEST(PpmTest, OnlyConditionalBranchesAreCounted)
{
    PpmBranchAnalyzer ppm(4);
    Rec jump(InstClass::Jump);
    jump.taken(true);
    feed(ppm, {test::alu(1), jump, test::load(0x100)});
    EXPECT_EQ(ppm.branches(), 0u);
}

TEST(PpmTest, MissRatesAreProbabilities)
{
    Rng rng(31);
    PpmBranchAnalyzer ppm(6);
    std::vector<InstRecord> recs;
    for (int i = 0; i < 5000; ++i)
        recs.push_back(test::branch(0x10 + 16 * (i % 7), rng.chance(0.3)));
    feed(ppm, recs);
    for (double m : {ppm.missRateGAg(), ppm.missRatePAg(),
                     ppm.missRateGAs(), ppm.missRatePAs()}) {
        EXPECT_GE(m, 0.0);
        EXPECT_LE(m, 1.0);
    }
}

TEST(PpmTest, OrderAboveSixteenIsRejected)
{
    EXPECT_NO_THROW(PpmBranchAnalyzer(PpmBranchAnalyzer::kMaxOrder));
    EXPECT_THROW(PpmBranchAnalyzer(17), std::invalid_argument);
    EXPECT_THROW(PpmBranchAnalyzer(64), std::invalid_argument);
}

/**
 * Reference PPM: one std::map counter per (variant, order, pc or 0,
 * masked history), walked from the longest order down. Slow, plainly
 * exact, and sharing no code with the dense blocks.
 */
struct ReferencePpm
{
    explicit ReferencePpm(unsigned order) : maxOrder(order) {}

    unsigned maxOrder;
    std::map<std::tuple<int, int, uint64_t, uint64_t>, int> ctr;
    std::map<uint64_t, uint64_t> localHist;
    uint64_t globalHist = 0;
    uint64_t branches = 0;
    uint64_t miss[4] = {};   // GAg, PAg, GAs, PAs

    void
    accept(const InstRecord &r)
    {
        if (!r.isCondBranch())
            return;
        ++branches;
        const uint64_t local = localHist[r.pc];
        for (int v = 0; v < 4; ++v) {
            const uint64_t hist = v % 2 ? local : globalHist;
            const uint64_t pc = v >= 2 ? r.pc : 0;
            bool pred = true, decided = false;
            for (int k = static_cast<int>(maxOrder); k >= 0; --k) {
                int &c = ctr[{v, k, pc, hist & ((1ull << k) - 1)}];
                if (!decided && c != 0) {
                    pred = c > 0;
                    decided = true;
                }
                c = r.taken ? std::min(c + 1, 4) : std::max(c - 1, -4);
            }
            miss[v] += pred != r.taken;
        }
        globalHist = globalHist << 1 | r.taken;
        localHist[r.pc] = local << 1 | r.taken;
    }
};

TEST(PpmTest, MatchesReferencePpmBitForBit)
{
    for (unsigned order : {0u, 1u, 4u, 8u, 12u, 16u}) {
        for (const auto &[seed, pTaken] :
             {std::pair{3ull, 0.9}, std::pair{17ull, 0.6}}) {
            RandomTraceParams p;
            p.numInsts = 30000;
            p.seed = seed;
            p.pBranch = 0.3;
            p.pTaken = pTaken;
            p.codeFootprint = 1 << 8;   // ~64 recurring branch pcs
            RandomTraceSource src(p);
            PpmBranchAnalyzer ppm(order);
            ReferencePpm ref(order);
            for (const InstRecord &r : test::drain(src)) {
                ppm.acceptBatch(&r, 1);
                ref.accept(r);
            }
            ASSERT_EQ(ppm.branches(), ref.branches);
            ASSERT_GT(ref.branches, 1000u);
            const double n = static_cast<double>(ref.branches);
            const std::string at = "order=" + std::to_string(order) +
                                   " seed=" + std::to_string(seed);
            EXPECT_EQ(ppm.missRateGAg(), ref.miss[0] / n) << at;
            EXPECT_EQ(ppm.missRatePAg(), ref.miss[1] / n) << at;
            EXPECT_EQ(ppm.missRateGAs(), ref.miss[2] / n) << at;
            EXPECT_EQ(ppm.missRatePAs(), ref.miss[3] / n) << at;
        }
    }
}

/**
 * tests/ppm_golden.tsv holds the branch counts and hex-float miss
 * rates the earlier hash-table PPM gave every registry kernel's first
 * 100K records at orders 1, 8 and 16. Rates are ratios of integer
 * counts, so the table is host-independent and must match exactly.
 */
TEST(PpmTest, RegistryKernelsMatchGoldenMissRates)
{
    std::ifstream in(std::string(MICA_TESTS_DIR) + "/ppm_golden.tsv");
    ASSERT_TRUE(in) << "cannot open tests/ppm_golden.tsv";
    std::vector<std::string> want;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            want.push_back(line);
    }

    std::vector<std::string> got;
    for (const auto &e : workloads::BenchmarkRegistry::instance().all()) {
        const isa::Program prog = e.build();
        isa::Interpreter interp(prog);
        PpmBranchAnalyzer a1(1), a8(8), a16(16);
        AnalysisEngine engine;
        engine.add(&a1);
        engine.add(&a8);
        engine.add(&a16);
        engine.run(interp, 100000);
        for (const auto &[order, a] :
             {std::pair{1u, &a1}, std::pair{8u, &a8}, std::pair{16u, &a16}}) {
            char line[512];
            std::snprintf(line, sizeof line, "%s\t%u\t%llu\t%a\t%a\t%a\t%a",
                          e.info.fullName().c_str(), order,
                          static_cast<unsigned long long>(a->branches()),
                          a->missRateGAg(), a->missRatePAg(),
                          a->missRateGAs(), a->missRatePAs());
            got.push_back(line);
        }
    }
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]);
}

} // namespace
} // namespace mica
