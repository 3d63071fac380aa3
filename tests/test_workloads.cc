/**
 * @file
 * Tests for the workload substrate: the 122-entry registry, kernel
 * termination and determinism (parameterized over every benchmark),
 * and per-family behavioral signatures.
 */

#include <gtest/gtest.h>

#include "isa/interpreter.hh"
#include "mica/runner.hh"
#include "workloads/kernel_lib.hh"
#include "workloads/registry.hh"

namespace mica::workloads
{
namespace
{

namespace k = kernels;

/** Run a program to completion under a hard cap. */
uint64_t
runToCompletion(const isa::Program &prog, uint64_t cap = 8000000)
{
    isa::Interpreter in(prog);
    InstRecord r;
    uint64_t n = 0;
    while (n < cap && in.next(r))
        ++n;
    EXPECT_TRUE(in.halted()) << prog.name << " did not halt";
    return n;
}

TEST(RegistryTest, HasExactly122Benchmarks)
{
    EXPECT_EQ(BenchmarkRegistry::instance().size(), 122u);
}

TEST(RegistryTest, HasTheSixPaperSuites)
{
    const auto suites = BenchmarkRegistry::instance().suites();
    ASSERT_EQ(suites.size(), 6u);
    EXPECT_EQ(suites[0], "BioInfoMark");
    EXPECT_EQ(suites[1], "BioMetricsWorkload");
    EXPECT_EQ(suites[2], "CommBench");
    EXPECT_EQ(suites[3], "MediaBench");
    EXPECT_EQ(suites[4], "MiBench");
    EXPECT_EQ(suites[5], "SPEC2000");
}

TEST(RegistryTest, SuiteSizesMatchTableI)
{
    const auto &reg = BenchmarkRegistry::instance();
    EXPECT_EQ(reg.bySuite("BioInfoMark").size(), 12u);
    EXPECT_EQ(reg.bySuite("BioMetricsWorkload").size(), 8u);
    EXPECT_EQ(reg.bySuite("CommBench").size(), 12u);
    EXPECT_EQ(reg.bySuite("MediaBench").size(), 12u);
    EXPECT_EQ(reg.bySuite("MiBench").size(), 30u);
    EXPECT_EQ(reg.bySuite("SPEC2000").size(), 48u);
}

TEST(RegistryTest, NamesAreUniqueAndWellFormed)
{
    const auto &reg = BenchmarkRegistry::instance();
    std::set<std::string> names;
    for (const auto &e : reg.all()) {
        EXPECT_FALSE(e.info.suite.empty());
        EXPECT_FALSE(e.info.program.empty());
        EXPECT_FALSE(e.info.input.empty());
        EXPECT_TRUE(names.insert(e.info.fullName()).second)
            << "duplicate " << e.info.fullName();
    }
    EXPECT_EQ(names.size(), 122u);
}

TEST(RegistryTest, FindLocatesKnownBenchmarks)
{
    const auto &reg = BenchmarkRegistry::instance();
    ASSERT_NE(reg.find("SPEC2000/bzip2.graphic"), nullptr);
    ASSERT_NE(reg.find("BioInfoMark/blast.protein"), nullptr);
    EXPECT_EQ(reg.find("SPEC2000/nope.ref"), nullptr);
    EXPECT_EQ(reg.find("SPEC2000/bzip2.graphic")->info.paperICountM,
              157003u);
}

TEST(RegistryTest, IsNamedAgreesWithFullName)
{
    // Every registry name and every near miss of it (a piece dropped,
    // one byte more or less, a separator moved), plus a trace name
    // with no input, against the built string.
    std::vector<BenchmarkInfo> infos;
    for (const auto &e : BenchmarkRegistry::instance().all())
        infos.push_back(e.info);
    infos.push_back({"traces", "zcustom", "", 0});
    infos.push_back({"a", "b.c", "d", 0});
    for (const BenchmarkInfo &info : infos) {
        const std::string name = info.fullName();
        for (const std::string &probe :
             {name, name + ".", name + "x", name.substr(1),
              name.substr(0, name.size() - 1), info.shortName(),
              info.suite + "." + info.shortName(),
              info.suite + "/" + info.program + "/" + info.input,
              std::string("a/b.c.d"), std::string("traces/zcustom"),
              std::string("traces/zcustom.")}) {
            EXPECT_EQ(info.isNamed(probe), name == probe)
                << name << " vs " << probe;
        }
    }
}

TEST(RegistryTest, PaperInstructionCountsArePositive)
{
    for (const auto &e : BenchmarkRegistry::instance().all())
        EXPECT_GT(e.info.paperICountM, 0u) << e.info.fullName();
}

// ----------------------------------------------------------------------
// Every benchmark kernel terminates, is deterministic, and is sized
// inside the harness envelope (parameterized over all 122 entries).
// ----------------------------------------------------------------------

class KernelExecutionTest : public ::testing::TestWithParam<size_t>
{};

TEST_P(KernelExecutionTest, BuildsAndTerminatesWithinBudget)
{
    const auto &e = BenchmarkRegistry::instance().all()[GetParam()];
    const isa::Program prog = e.build();
    EXPECT_FALSE(prog.code.empty());
    const uint64_t n = runToCompletion(prog);
    EXPECT_GE(n, 50000u) << e.info.fullName() << " too short";
    EXPECT_LE(n, 4000000u) << e.info.fullName() << " too long";
}

TEST_P(KernelExecutionTest, RebuildIsDeterministic)
{
    const auto &e = BenchmarkRegistry::instance().all()[GetParam()];
    const isa::Program p1 = e.build();
    const isa::Program p2 = e.build();
    ASSERT_EQ(p1.code.size(), p2.code.size());
    for (size_t i = 0; i < p1.code.size(); ++i) {
        EXPECT_EQ(p1.code[i].op, p2.code[i].op);
        EXPECT_EQ(p1.code[i].imm, p2.code[i].imm);
    }
    ASSERT_EQ(p1.segments.size(), p2.segments.size());
    for (size_t s = 0; s < p1.segments.size(); ++s)
        EXPECT_EQ(p1.segments[s].bytes, p2.segments[s].bytes);
}

std::string
kernelTestName(const ::testing::TestParamInfo<size_t> &info)
{
    std::string n = BenchmarkRegistry::instance()
                        .all()[info.param]
                        .info.fullName();
    for (char &c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return n;
}

INSTANTIATE_TEST_SUITE_P(All122, KernelExecutionTest,
                         ::testing::Range<size_t>(0, 122),
                         kernelTestName);

// ----------------------------------------------------------------------
// Family signatures: kernels land in the right region of the
// characteristic space.
// ----------------------------------------------------------------------

MicaProfile
profileOf(const isa::Program &prog, uint64_t budget = 120000)
{
    isa::Interpreter in(prog);
    MicaRunnerConfig cfg;
    cfg.maxInsts = budget;
    return collectMicaProfile(in, prog.name, cfg);
}

TEST(KernelSignatureTest, FpKernelsAreFpDominated)
{
    const auto p = profileOf(k::denseMatMul({.n = 24, .iters = 1}));
    EXPECT_GT(p[PctFpOps], 20.0);
    EXPECT_LT(p[PctIntMul] + 0.0, 10.0);
    const auto s = profileOf(k::stencilSweep({}));
    EXPECT_GT(s[PctFpOps], 15.0);
}

TEST(KernelSignatureTest, IntKernelsHaveNoFp)
{
    for (const auto &p :
         {profileOf(k::crc32({})), profileOf(k::blockCipher({})),
          profileOf(k::bwtSort({.blockBytes = 512}))}) {
        EXPECT_DOUBLE_EQ(p[PctFpOps], 0.0);
    }
}

TEST(KernelSignatureTest, PointerChaseHasLowIlpAndLargeWorkingSet)
{
    const auto chase = profileOf(
        k::pointerChase({.nodes = 1 << 14, .iters = 1, .steps = 9000}));
    const auto dense = profileOf(k::matVec({}));
    EXPECT_LT(chase[Ilp256], dense[Ilp256]);
    // Each chase step touches a fresh 64-byte node: pages >> stencil.
    const auto small = profileOf(k::crc32({}));
    EXPECT_GT(chase[DWorkSet4K], 4 * small[DWorkSet4K]);
}

TEST(KernelSignatureTest, KmerScanTouchesManyPages)
{
    const auto blast = profileOf(
        k::kmerScan({.dbBytes = 8000, .tableBytes = 1 << 22}));
    const auto cipher = profileOf(k::blockCipher({}));
    EXPECT_GT(blast[DWorkSet4K], 10 * cipher[DWorkSet4K]);
}

TEST(KernelSignatureTest, SerialCodecSignature)
{
    // ADPCM's defining traits: branch-dense control, a tiny data
    // working set, and byte-granular output. (Its register dataflow is
    // parallel under the idealized ILP model, which ignores control
    // dependences -- the serialization is architectural, not dataflow.)
    const auto p = profileOf(k::adpcmCodec({.samples = 4000}));
    EXPECT_GT(p[PctControl], 12.0);
    EXPECT_LT(p[DWorkSet4K], 24.0);
}

TEST(KernelSignatureTest, TableRecurrenceLimitsIlp)
{
    // CRC's crc -> table -> crc loop is a true register-dataflow cycle,
    // so its inherent ILP sits far below an unrolled dense kernel.
    const auto ser = profileOf(k::crc32({}));
    const auto wide = profileOf(k::matVec({}));
    EXPECT_LT(ser[Ilp256], 4.0);
    EXPECT_GT(wide[Ilp256], 2.0 * ser[Ilp256]);
}

TEST(KernelSignatureTest, StreamingKernelsHaveSmallLocalStrides)
{
    const auto p = profileOf(k::imageNormalize({}));
    EXPECT_GT(p[LocalLoadStrideLe8], 0.9);
    EXPECT_GT(p[GlobalLoadStrideLe8], 0.6);
}

TEST(KernelSignatureTest, RandomBranchKernelsAreHardToPredict)
{
    const auto sorter = profileOf(k::quickSort({.elems = 1024}));
    const auto streamer = profileOf(k::imageNormalize({}));
    EXPECT_GT(sorter[PpmGAg], streamer[PpmGAg]);
    EXPECT_GT(sorter[PpmGAg], 0.05);
    EXPECT_LT(streamer[PpmPAs], 0.05);
}

TEST(KernelSignatureTest, DctIsMultiplyHeavy)
{
    const auto p = profileOf(k::dct8x8({.blocks = 16}));
    EXPECT_GT(p[PctIntMul], 5.0);
}

TEST(KernelSignatureTest, InterpreterGrowsInstructionWorkingSet)
{
    const auto small = profileOf(k::interpDispatch(
        {.codeLen = 1024, .numOps = 8, .handlerBody = 4}));
    const auto large = profileOf(k::interpDispatch(
        {.codeLen = 1024, .numOps = 96, .handlerBody = 12}));
    EXPECT_GT(large[IWorkSet32B], 2 * small[IWorkSet32B]);
}

TEST(KernelSignatureTest, Lz77EntropyControlsBranchBehavior)
{
    const auto low = profileOf(
        k::lz77({.bufBytes = 6 << 10, .alphabet = 4, .seed = 1}));
    const auto high = profileOf(
        k::lz77({.bufBytes = 6 << 10, .alphabet = 0, .seed = 1}));
    // Compressible input spends more time in the match loop; the two
    // inputs must be measurably different benchmarks.
    EXPECT_NE(low[PctLoads], high[PctLoads]);
    EXPECT_NE(low[PpmGAg], high[PpmGAg]);
}

TEST(KernelSignatureTest, HostHelpersAreDeterministic)
{
    EXPECT_EQ(k::randomBytes(64, 16, 9), k::randomBytes(64, 16, 9));
    EXPECT_NE(k::randomBytes(64, 16, 9), k::randomBytes(64, 16, 10));
    EXPECT_EQ(k::randomDoubles(8, 0, 1, 3), k::randomDoubles(8, 0, 1, 3));
}

TEST(KernelSignatureTest, RandomCycleIsASingleCycle)
{
    const auto perm = k::randomCycle(257, 5);
    std::vector<bool> seen(perm.size(), false);
    size_t cur = 0, steps = 0;
    do {
        EXPECT_FALSE(seen[cur]);
        seen[cur] = true;
        cur = perm[cur];
        ++steps;
    } while (cur != 0 && steps <= perm.size());
    EXPECT_EQ(steps, perm.size());      // full cycle returns to start
}

TEST(KernelSignatureTest, AlphabetBoundsRandomBytes)
{
    for (uint8_t b : k::randomBytes(4096, 20, 77))
        EXPECT_LT(b, 20);
}

} // namespace
} // namespace mica::workloads
