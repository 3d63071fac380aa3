/**
 * @file
 * Tests for the MicaProfile container, the one-pass runner, subset
 * collection, and CSV dataset serialization.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/interpreter.hh"
#include "mica/dataset.hh"
#include "mica/ilp.hh"
#include "mica/inst_mix.hh"
#include "mica/profile.hh"
#include "mica/runner.hh"
#include "test_util.hh"
#include "trace/synthetic.hh"
#include "util/checked_io.hh"
#include "workloads/registry.hh"

namespace mica
{
namespace
{

RandomTraceParams
defaultParams(uint64_t seed = 1)
{
    RandomTraceParams p;
    p.numInsts = 20000;
    p.seed = seed;
    return p;
}

TEST(MicaCharTableTest, Has47UniqueEntriesInTableOrder)
{
    const auto &table = micaCharTable();
    EXPECT_EQ(table.size(), kNumMicaChars);
    for (size_t i = 0; i < kNumMicaChars; ++i) {
        EXPECT_EQ(table[i].index, i);
        EXPECT_NE(table[i].name, nullptr);
        EXPECT_NE(table[i].category, nullptr);
        for (size_t j = i + 1; j < kNumMicaChars; ++j)
            EXPECT_STRNE(table[i].name, table[j].name);
    }
}

TEST(MicaCharTableTest, CategoriesMatchTableII)
{
    EXPECT_STREQ(micaCharInfo(PctLoads).category, "instruction mix");
    EXPECT_STREQ(micaCharInfo(Ilp256).category, "ILP");
    EXPECT_STREQ(micaCharInfo(AvgDegreeOfUse).category,
                 "register traffic");
    EXPECT_STREQ(micaCharInfo(DWorkSet4K).category, "working set");
    EXPECT_STREQ(micaCharInfo(GlobalStoreStrideLe4096).category,
                 "data stride");
    EXPECT_STREQ(micaCharInfo(PpmPAs).category, "branch predictability");
}

TEST(MicaCharTableTest, EnumMatchesPaperNumbering)
{
    // Spot-check the enum against Table II row numbers (index = n-1).
    EXPECT_EQ(static_cast<size_t>(PctLoads), 0u);
    EXPECT_EQ(static_cast<size_t>(Ilp32), 6u);
    EXPECT_EQ(static_cast<size_t>(AvgInputOperands), 10u);
    EXPECT_EQ(static_cast<size_t>(DWorkSet32B), 19u);
    EXPECT_EQ(static_cast<size_t>(LocalLoadStrideEq0), 23u);
    EXPECT_EQ(static_cast<size_t>(PpmGAg), 43u);
    EXPECT_EQ(static_cast<size_t>(PpmPAs), 46u);
}

TEST(MicaProfileTest, IndexingAndVectorConversion)
{
    MicaProfile p;
    p[PctLoads] = 25.0;
    p[PpmPAs] = 0.1;
    const auto v = p.toVector();
    ASSERT_EQ(v.size(), kNumMicaChars);
    EXPECT_DOUBLE_EQ(v[0], 25.0);
    EXPECT_DOUBLE_EQ(v[46], 0.1);
}

TEST(RunnerTest, ProfileMatchesStandaloneAnalyzers)
{
    RandomTraceSource src(defaultParams(3));
    const MicaProfile p = collectMicaProfile(src, "x", {});

    RandomTraceSource src2(defaultParams(3));
    InstMixAnalyzer mix;
    IlpAnalyzer ilp;
    InstRecord r;
    while (src2.next(r)) {
        mix.accept(r);
        ilp.accept(r);
    }
    EXPECT_DOUBLE_EQ(p[PctLoads], mix.pctLoads());
    EXPECT_DOUBLE_EQ(p[PctFpOps], mix.pctFpOps());
    EXPECT_DOUBLE_EQ(p[Ilp32], ilp.ipc(0));
    EXPECT_DOUBLE_EQ(p[Ilp256], ilp.ipc(3));
}

TEST(RunnerTest, ProfileFieldsAreAllPopulated)
{
    RandomTraceSource src(defaultParams(5));
    const MicaProfile p = collectMicaProfile(src, "y", {});
    EXPECT_EQ(p.instCount, 20000u);
    // Every characteristic family must be nonzero for a random trace.
    EXPECT_GT(p[PctLoads], 0.0);
    EXPECT_GT(p[Ilp32], 0.0);
    EXPECT_GT(p[AvgInputOperands], 0.0);
    EXPECT_GT(p[DWorkSet32B], 0.0);
    EXPECT_GT(p[IWorkSet4K], 0.0);
    EXPECT_GT(p[GlobalLoadStrideLe4096], 0.0);
    EXPECT_GT(p[PpmGAg], 0.0);
}

TEST(RunnerTest, BudgetIsRespected)
{
    RandomTraceSource src(defaultParams(7));
    MicaRunnerConfig cfg;
    cfg.maxInsts = 500;
    const MicaProfile p = collectMicaProfile(src, "z", cfg);
    EXPECT_EQ(p.instCount, 500u);
}

TEST(RunnerTest, SubsetMatchesFullProfileOnSelectedChars)
{
    const std::vector<size_t> selected = {PctLoads, AvgInputOperands,
                                          RegDepLe8, LocalLoadStrideLe64,
                                          GlobalLoadStrideLe512,
                                          LocalStoreStrideLe4096,
                                          DWorkSet4K, Ilp256};
    RandomTraceSource a(defaultParams(11));
    const MicaProfile full = collectMicaProfile(a, "full", {});
    RandomTraceSource b(defaultParams(11));
    const MicaProfile sub =
        collectMicaProfileSubset(b, "sub", selected, {});
    for (size_t s : selected)
        EXPECT_DOUBLE_EQ(sub[s], full[s]) << micaCharInfo(s).name;
}

TEST(RunnerTest, SubsetLeavesUnrequestedFamiliesAtZero)
{
    RandomTraceSource src(defaultParams(13));
    const MicaProfile p =
        collectMicaProfileSubset(src, "s", {PctLoads}, {});
    EXPECT_GT(p[PctLoads], 0.0);
    EXPECT_DOUBLE_EQ(p[Ilp32], 0.0);        // ILP family not requested
    EXPECT_DOUBLE_EQ(p[PpmGAg], 0.0);       // PPM family not requested
}

/**
 * tests/mica_golden.tsv holds the instruction count and all 47
 * characteristics (hex floats) the one-pass runner gives every
 * registry kernel's first 100K records. The characteristics are
 * ratios of integer counts, so the table does not depend on libm; any
 * analyzer rewrite must match it bit for bit.
 */
TEST(RunnerTest, RegistryKernelsMatchGoldenCharacteristics)
{
    std::ifstream in(std::string(MICA_TESTS_DIR) + "/mica_golden.tsv");
    ASSERT_TRUE(in) << "cannot open tests/mica_golden.tsv";
    std::vector<std::string> want;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            want.push_back(line);
    }

    MicaRunnerConfig cfg;
    cfg.maxInsts = 100000;
    std::vector<std::string> got;
    for (const auto &e : workloads::BenchmarkRegistry::instance().all()) {
        const isa::Program prog = e.build();
        isa::Interpreter interp(prog);
        const MicaProfile p =
            collectMicaProfile(interp, e.info.fullName(), cfg);
        std::string line = p.name + "\t" + std::to_string(p.instCount);
        for (double v : p.values) {
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

TEST(DatasetTest, ProfilesToMatrixLayout)
{
    std::vector<MicaProfile> profs(2);
    profs[0].name = "a";
    profs[1].name = "b";
    profs[0][PctLoads] = 1.5;
    profs[1][PpmPAs] = 0.25;
    const Matrix m = profilesToMatrix(profs);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), kNumMicaChars);
    EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
    EXPECT_DOUBLE_EQ(m(1, 46), 0.25);
    EXPECT_EQ(m.rowNames, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(m.colNames.size(), kNumMicaChars);
}

TEST(DatasetTest, CsvRoundTripPreservesEverything)
{
    // Nothing reads the export back, so the test parses its cells:
    // every value must come back with all of its bits.
    const std::string path = "/tmp/mica_test_profiles.csv";
    std::vector<MicaProfile> profs;
    for (int i = 0; i < 3; ++i) {
        RandomTraceSource src(defaultParams(20 + i));
        profs.push_back(
            collectMicaProfile(src, "bench" + std::to_string(i), {}));
    }
    saveProfilesCsv(path, profs);
    const auto rows = test::csvCells(path);
    ASSERT_EQ(rows.size(), profs.size() + 1);
    ASSERT_EQ(rows[0].size(), kNumMicaChars + 2);
    EXPECT_EQ(rows[0][0], "name");
    EXPECT_EQ(rows[0][1], "inst_count");
    for (size_t i = 0; i < profs.size(); ++i) {
        const auto &cells = rows[i + 1];
        ASSERT_EQ(cells.size(), kNumMicaChars + 2);
        EXPECT_EQ(cells[0], profs[i].name);
        EXPECT_EQ(cells[1], std::to_string(profs[i].instCount));
        for (size_t c = 0; c < kNumMicaChars; ++c) {
            EXPECT_EQ(rows[0][c + 2], micaCharInfo(c).name);
            EXPECT_EQ(test::cellBits(cells[c + 2]),
                      test::doubleBits(profs[i][c]))
                << profs[i].name << " column " << c;
        }
    }
    std::remove(path.c_str());
}

TEST(DatasetTest, CsvWriteFailureNamesThePath)
{
    const std::string path = "/nonexistent/dir/p.csv";
    Matrix m;
    m.appendRow({1.0});
    m.rowNames = {"r0"};
    m.colNames = {"c0"};
    for (int which = 0; which < 2; ++which) {
        try {
            if (which == 0)
                saveProfilesCsv(path, {MicaProfile{}});
            else
                saveMatrixCsv(path, m);
            ADD_FAILURE() << "writer " << which << " did not throw";
        } catch (const util::IoError &e) {
            EXPECT_EQ(e.path(), path);
            EXPECT_EQ(e.code(), ENOENT);
        }
    }
}

TEST(DatasetTest, SaveMatrixCsvWritesHeaderAndRows)
{
    const std::string path = "/tmp/mica_test_matrix.csv";
    Matrix m;
    m.appendRow({1.25, 2.5});
    m.appendRow({3.0, 4.0});
    m.rowNames = {"r0", "r1"};
    m.colNames = {"c0", "c1"};
    saveMatrixCsv(path, m);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "name,c0,c1");
    std::getline(in, line);
    EXPECT_EQ(line.substr(0, 3), "r0,");
    std::remove(path.c_str());
}

} // namespace
} // namespace mica
