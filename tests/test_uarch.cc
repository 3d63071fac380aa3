/**
 * @file
 * Tests for the microarchitecture substrate: caches, TLB, branch
 * predictors, and the hardware-counter analyzer.
 */

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/interpreter.hh"
#include "stats/rng.hh"
#include "test_util.hh"
#include "trace/synthetic.hh"
#include "uarch/cache.hh"
#include "uarch/hpc_runner.hh"
#include "uarch/hw_counter.hh"
#include "uarch/predictors.hh"
#include "workloads/registry.hh"

namespace mica::uarch
{
namespace
{

// ----------------------------------------------------------------------
// Cache.
// ----------------------------------------------------------------------

TEST(CacheTest, ColdMissesThenHits)
{
    Cache c({1024, 32, 1});
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x11f));       // same 32B line
    EXPECT_FALSE(c.access(0x120));      // next line
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(CacheTest, DirectMappedConflictEviction)
{
    // 1 KB direct mapped, 32B lines -> 32 sets; addresses 1 KB apart
    // conflict.
    Cache c({1024, 32, 1});
    EXPECT_FALSE(c.access(0x0));
    EXPECT_FALSE(c.access(0x400));      // evicts 0x0
    EXPECT_FALSE(c.access(0x0));        // miss again
}

TEST(CacheTest, TwoWayAssociativityAbsorbsTheConflict)
{
    Cache c({1024, 32, 2});
    EXPECT_FALSE(c.access(0x0));
    EXPECT_FALSE(c.access(0x400));
    EXPECT_TRUE(c.access(0x0));         // still resident
    EXPECT_TRUE(c.access(0x400));
}

TEST(CacheTest, LruEvictsTheOldestWay)
{
    // One set, 2 ways: A, B, touch A, insert C -> B evicted.
    Cache c({64, 32, 2});
    EXPECT_EQ(c.numSets(), 1u);
    c.access(0x000);                    // A
    c.access(0x100);                    // B
    c.access(0x000);                    // touch A
    c.access(0x200);                    // C evicts B (LRU)
    EXPECT_TRUE(c.access(0x000));
    EXPECT_FALSE(c.access(0x100));
}

TEST(CacheTest, SequentialStreamMissRateIsOnePerLine)
{
    Cache c({8192, 32, 1});
    for (uint64_t a = 0; a < 4096; a += 8)
        c.access(0x100000 + a);
    // 512 accesses, one miss per 32B line = 128 misses.
    EXPECT_EQ(c.accesses(), 512u);
    EXPECT_EQ(c.misses(), 128u);
}

TEST(TlbTest, PageGranularityAndCapacity)
{
    Tlb tlb(4, 12);                     // 4 entries, 4 KB pages
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1fff));    // same page
    // Fill the remaining 3 entries, then one more evicts the LRU.
    tlb.access(0x2000);
    tlb.access(0x3000);
    tlb.access(0x4000);
    EXPECT_TRUE(tlb.access(0x1000));    // still resident (was MRU-ish)
    tlb.access(0x5000);
    tlb.access(0x6000);
    tlb.access(0x7000);
    EXPECT_FALSE(tlb.access(0x2000));   // long evicted
}

/**
 * The tick-stamped cache the MRU-stack Cache replaced, kept as the
 * exactness oracle: every way carries a last-use tick, a hit
 * refreshes it, and a miss fills the first invalid way, else the way
 * with the oldest tick.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &cfg)
        : lineBits_(0), numSets_(cfg.sizeBytes / (cfg.lineBytes * cfg.assoc)),
          assoc_(cfg.assoc), ways_(numSets_ * cfg.assoc)
    {
        while ((1ull << lineBits_) < cfg.lineBytes)
            ++lineBits_;
    }

    bool
    access(uint64_t addr)
    {
        const uint64_t line = addr >> lineBits_;
        Way *base = &ways_[(line % numSets_) * assoc_];
        ++tick_;
        for (uint64_t w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].tag == line) {
                base[w].lastUsed = tick_;
                return true;
            }
        }
        uint64_t victim = 0, oldest = UINT64_MAX;
        for (uint64_t w = 0; w < assoc_; ++w) {
            if (!base[w].valid) {
                victim = w;
                break;
            }
            if (base[w].lastUsed < oldest) {
                oldest = base[w].lastUsed;
                victim = w;
            }
        }
        base[victim] = {line, tick_, true};
        return false;
    }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUsed = 0;
        bool valid = false;
    };

    unsigned lineBits_;
    uint64_t numSets_, assoc_;
    std::vector<Way> ways_;
    uint64_t tick_ = 0;
};

TEST(CacheTest, MatchesTickStampedReferenceHitForHit)
{
    const CacheConfig geometries[] = {
        {8 * 1024, 32, 1},              // EV56 L1I/L1D
        {96 * 1024, 64, 3},             // EV56 L2
        {64ull << 13, 1ull << 13, 64},  // EV56 DTLB: 64 entries, 8 KB pages
        {4ull << 12, 1ull << 12, 4},    // TlbTest
        {1024, 32, 1}, {1024, 32, 2}, {64, 32, 2}, {8192, 32, 1},
    };
    for (const CacheConfig &g : geometries) {
        for (uint64_t seed : {1ull, 2ull, 3ull}) {
            Cache cache(g);
            ReferenceCache ref(g);
            Rng rng(seed);
            // Reuse of recent addresses, short sequential runs and
            // uniform picks over 4x the capacity: hits, conflict and
            // capacity misses all occur.
            const uint64_t span = 4 * g.sizeBytes;
            std::vector<uint64_t> recent(16, 0);
            uint64_t addr = 0;
            uint64_t hits = 0;
            for (int i = 0; i < 50000; ++i) {
                const double u = rng.unit();
                if (u < 0.4)
                    addr = recent[rng.below(recent.size())];
                else if (u < 0.7)
                    addr += g.lineBytes;
                else
                    addr = rng.below(span);
                recent[i % recent.size()] = addr;
                const bool want = ref.access(addr);
                ASSERT_EQ(cache.access(addr), want)
                    << g.sizeBytes << "/" << g.lineBytes << "/" << g.assoc
                    << " seed " << seed << " access " << i;
                hits += want;
            }
            EXPECT_GT(hits, 0u);
            EXPECT_LT(hits, 50000u);
        }
    }
}

TEST(CacheTest, RejectsNonPowerOfTwoSetCount)
{
    EXPECT_THROW(Cache({96 * 1024, 64, 1}), std::invalid_argument);
    EXPECT_THROW(Cache({1024, 32, 0}), std::invalid_argument);
    EXPECT_THROW(Tlb(0, 13), std::invalid_argument);
    EXPECT_NO_THROW(Cache({96 * 1024, 64, 3}));     // 512 sets
}

// ----------------------------------------------------------------------
// Hardware predictors.
// ----------------------------------------------------------------------

TEST(BimodalTest, LearnsABiasedBranch)
{
    BimodalPredictor bp;
    int misses = 0;
    for (int i = 0; i < 1000; ++i)
        misses += bp.predictAndUpdate(0x40, true) != true;
    EXPECT_LT(misses, 5);
}

TEST(BimodalTest, AlternatingBranchDefeatsTwoBitCounters)
{
    BimodalPredictor bp;
    int misses = 0;
    for (int i = 0; i < 1000; ++i)
        misses += bp.predictAndUpdate(0x40, i % 2 == 0) != (i % 2 == 0);
    // A bimodal counter cannot learn T/N/T/N; expect ~50% or worse.
    EXPECT_GT(misses, 400);
}

TEST(TournamentTest, LearnsAlternatingViaLocalHistory)
{
    TournamentPredictor tp;
    int misses = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool t = i % 2 == 0;
        misses += tp.predictAndUpdate(0x40, t) != t;
    }
    EXPECT_LT(misses, 400);             // much better than bimodal
}

TEST(TournamentTest, TracksGlobalCorrelation)
{
    // Branch B follows branch A's outcome; global history captures it.
    TournamentPredictor tp;
    Rng rng(3);
    int missesB = 0;
    for (int i = 0; i < 6000; ++i) {
        const bool a = rng.chance(0.5);
        tp.predictAndUpdate(0x100, a);
        missesB += tp.predictAndUpdate(0x200, a) != a;
    }
    EXPECT_LT(missesB / 6000.0, 0.15);
}

TEST(BimodalTest, RejectsNonPowerOfTwoTable)
{
    EXPECT_THROW(BimodalPredictor(1000), std::invalid_argument);
    EXPECT_THROW(BimodalPredictor(0), std::invalid_argument);
    EXPECT_NO_THROW(BimodalPredictor(1024));
}

TEST(TournamentTest, RejectsNonPowerOfTwoTables)
{
    EXPECT_THROW(TournamentPredictor(1000, 10, 4096),
                 std::invalid_argument);
    EXPECT_THROW(TournamentPredictor(1024, 10, 4000),
                 std::invalid_argument);
}

TEST(TournamentTest, RejectsLocalHistoryBitsOutsideOneTo63)
{
    EXPECT_THROW(TournamentPredictor(1024, 0, 4096), std::invalid_argument);
    EXPECT_THROW(TournamentPredictor(1024, 64, 4096),
                 std::invalid_argument);
    EXPECT_NO_THROW(TournamentPredictor(1024, 1, 4096));
}

// ----------------------------------------------------------------------
// Hardware-counter analyzer.
// ----------------------------------------------------------------------

TEST(HwCounterTest, MetricsAreWellFormed)
{
    RandomTraceParams p;
    p.numInsts = 30000;
    p.seed = 5;
    RandomTraceSource src(p);
    const HwCounterProfile prof = collectHwProfile(src, "rand");
    EXPECT_EQ(prof.name, "rand");
    EXPECT_EQ(prof.instCount, 30000u);
    EXPECT_GT(prof.ipcEv56, 0.0);
    EXPECT_LE(prof.ipcEv56, 2.0);       // dual issue bound
    EXPECT_GT(prof.ipcEv67, 0.0);
    EXPECT_LE(prof.ipcEv67, 4.0);       // quad issue bound
    for (double r : {prof.branchMissRate, prof.l1dMissRate,
                     prof.l1iMissRate, prof.l2MissRate,
                     prof.dtlbMissRate}) {
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 1.0);
    }
}

TEST(HwCounterTest, TinyLoopHasNoL1IMisses)
{
    // All instructions within one 32-byte I-cache line region.
    std::vector<InstRecord> recs;
    for (int i = 0; i < 5000; ++i) {
        InstRecord r = test::alu(1, {1});
        r.pc = 0x400000 + 4 * (i % 4);
        recs.push_back(r);
    }
    VectorTraceSource src(recs);
    const HwCounterProfile prof = collectHwProfile(src, "loop");
    EXPECT_LT(prof.l1iMissRate, 0.001);
}

TEST(HwCounterTest, StreamingLoadsMissOncePerLine)
{
    std::vector<InstRecord> recs;
    for (int i = 0; i < 8192; ++i)
        recs.push_back(test::load(0x10000000 + 8 * i));
    VectorTraceSource src(recs);
    const HwCounterProfile prof = collectHwProfile(src, "stream");
    // 8B strides over 32B lines -> miss every 4th access.
    EXPECT_NEAR(prof.l1dMissRate, 0.25, 0.02);
}

TEST(HwCounterTest, PointerChaseBeyondCacheMissesHard)
{
    // Strided accesses covering 1 MB >> 8 KB L1 and 96 KB L2.
    std::vector<InstRecord> recs;
    uint64_t addr = 0x10000000;
    for (int i = 0; i < 16384; ++i) {
        recs.push_back(test::load(addr));
        addr += 8192 + 64;              // new 8 KB TLB page every access
    }
    VectorTraceSource src(recs);
    const HwCounterProfile prof = collectHwProfile(src, "chase");
    EXPECT_GT(prof.l1dMissRate, 0.95);
    EXPECT_GT(prof.l2MissRate, 0.9);
    EXPECT_GT(prof.dtlbMissRate, 0.9);
}

TEST(HwCounterTest, PredictableBranchesBarelyMiss)
{
    std::vector<InstRecord> recs;
    for (int i = 0; i < 10000; ++i)
        recs.push_back(test::branch(0x400000, true));
    VectorTraceSource src(recs);
    const HwCounterProfile prof = collectHwProfile(src, "pred");
    EXPECT_LT(prof.branchMissRate, 0.01);
}

TEST(HwCounterTest, RandomBranchesMissOftenOnEv56)
{
    Rng rng(7);
    std::vector<InstRecord> recs;
    for (int i = 0; i < 10000; ++i)
        recs.push_back(test::branch(0x400000, rng.chance(0.5)));
    VectorTraceSource src(recs);
    const HwCounterProfile prof = collectHwProfile(src, "noise");
    EXPECT_GT(prof.branchMissRate, 0.35);
}

TEST(HwCounterTest, MissesReduceIpc)
{
    // Same instruction count; one trace hits L1, the other misses to
    // memory. The in-order IPC must be strictly lower for the misser.
    std::vector<InstRecord> hitRecs, missRecs;
    for (int i = 0; i < 20000; ++i) {
        hitRecs.push_back(test::load(0x10000000 + (i % 8) * 8));
        missRecs.push_back(test::load(0x10000000 + i * 4160));
    }
    VectorTraceSource hitSrc(hitRecs), missSrc(missRecs);
    const auto hit = collectHwProfile(hitSrc, "hit");
    const auto miss = collectHwProfile(missSrc, "miss");
    EXPECT_GT(hit.ipcEv56, miss.ipcEv56 * 2);
    EXPECT_GT(hit.ipcEv67, miss.ipcEv67);
}

TEST(HwCounterTest, IndependentAluApproachesIssueWidth)
{
    std::vector<InstRecord> recs;
    for (int i = 0; i < 20000; ++i) {
        InstRecord r = test::alu(kInvalidReg);
        r.pc = 0x400000 + 4 * (i % 8);
        recs.push_back(r);
    }
    VectorTraceSource src(recs);
    const auto prof = collectHwProfile(src, "wide");
    EXPECT_GT(prof.ipcEv56, 1.8);
    EXPECT_GT(prof.ipcEv67, 3.5);
}

TEST(HwCounterTest, SerialChainLimitsEv67)
{
    std::vector<InstRecord> recs;
    for (int i = 0; i < 20000; ++i) {
        InstRecord r = test::alu(1, {1});
        r.pc = 0x400000 + 4 * (i % 8);
        recs.push_back(r);
    }
    VectorTraceSource src(recs);
    const auto prof = collectHwProfile(src, "serial");
    EXPECT_LT(prof.ipcEv67, 1.2);
}

TEST(HwCounterTest, MetricNamesAndVectorAgree)
{
    const auto &names = HwCounterProfile::metricNames();
    EXPECT_EQ(names.size(), HwCounterProfile::kNumMetrics);
    HwCounterProfile p;
    p.ipcEv56 = 1;
    p.ipcEv67 = 2;
    p.branchMissRate = 3;
    p.l1dMissRate = 4;
    p.l1iMissRate = 5;
    p.l2MissRate = 6;
    p.dtlbMissRate = 7;
    const auto v = p.toVector();
    ASSERT_EQ(v.size(), HwCounterProfile::kNumMetrics);
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_DOUBLE_EQ(v[i], double(i + 1));
}

TEST(HwCounterTest, ProfilesToMatrixPreservesRows)
{
    RandomTraceParams p;
    p.numInsts = 5000;
    std::vector<HwCounterProfile> profs;
    for (uint64_t s = 1; s <= 3; ++s) {
        p.seed = s;
        RandomTraceSource src(p);
        profs.push_back(collectHwProfile(src, "b" + std::to_string(s)));
    }
    const Matrix m = hwProfilesToMatrix(profs);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), HwCounterProfile::kNumMetrics);
    EXPECT_EQ(m.rowNames[2], "b3");
    EXPECT_DOUBLE_EQ(m(1, 0), profs[1].ipcEv56);
}

TEST(HwCounterTest, RejectsZeroWindow)
{
    MachineConfig cfg;
    cfg.window67 = 0;
    EXPECT_THROW(HwCounterAnalyzer{cfg}, std::invalid_argument);
}

TEST(HwCounterTest, RejectsZeroIssueWidth)
{
    MachineConfig cfg;
    cfg.issueWidth67 = 0;
    EXPECT_THROW(HwCounterAnalyzer{cfg}, std::invalid_argument);
}

/**
 * tests/hpc_golden.tsv holds the seven metrics (hex floats) the
 * earlier tick-stamped, division-indexed HPC model gave every registry
 * kernel's first 100K records. The rewritten model must match it bit
 * for bit.
 */
TEST(HwCounterTest, RegistryKernelsMatchGoldenMetrics)
{
    std::ifstream in(std::string(MICA_TESTS_DIR) + "/hpc_golden.tsv");
    ASSERT_TRUE(in) << "cannot open tests/hpc_golden.tsv";
    std::vector<std::string> want;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            want.push_back(line);
    }

    std::vector<std::string> got;
    for (const auto &e : workloads::BenchmarkRegistry::instance().all()) {
        const isa::Program prog = e.build();
        isa::Interpreter interp(prog);
        const HwCounterProfile p =
            collectHwProfile(interp, e.info.fullName(), 100000);
        std::string line = p.name + "\t" + std::to_string(p.instCount);
        for (double v : p.toVector()) {
            char hex[64];
            std::snprintf(hex, sizeof hex, "\t%a", v);
            line += hex;
        }
        got.push_back(line);
    }
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]);
}

TEST(HwCounterTest, BudgetTruncatesCollection)
{
    RandomTraceParams p;
    p.numInsts = 50000;
    RandomTraceSource src(p);
    const auto prof = collectHwProfile(src, "capped", 1000);
    EXPECT_EQ(prof.instCount, 1000u);
}

} // namespace
} // namespace mica::uarch
