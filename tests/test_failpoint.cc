/**
 * @file
 * Tests for the failpoint registry and spec grammar: parsing (actions,
 * args, triggers, rejection of unknown sites and malformed tokens),
 * deterministic trigger behaviour (@N, every=N, seeded probability),
 * later-point-wins masking with 'off', fire counting, and the armed /
 * disarmed fast-path contract.
 *
 * Failpoints are process-global; every test disarms on the way out so
 * the suites sharing this binary never see a leftover arming.
 */

#include <cerrno>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/failpoint.hh"

namespace mica
{
namespace
{

using util::FailDecision;
using util::FailOp;

#if !MICA_FAILPOINTS

// Compiled-out builds keep the API as inert stubs: nothing arms,
// nothing fires, and the registry is empty — so release binaries can
// prove the hooks cost nothing.
TEST(FailpointStubTest, CompiledOutApiIsInert)
{
    std::string err;
    EXPECT_FALSE(util::armFailpoints("store.put.write=error", &err));
    EXPECT_NE(err.find("compiled out"), std::string::npos) << err;
    EXPECT_FALSE(util::failpointsArmed());
    EXPECT_FALSE(util::evalFailpoint("store.put.write"));
    EXPECT_EQ(util::failpointFireCount("store.put.write"), 0u);
    EXPECT_TRUE(util::knownFailpoints().empty());
    util::disarmFailpoints();    // harmless no-op
}

#else

class FailpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::disarmFailpoints(); }

    void TearDown() override { util::disarmFailpoints(); }

    /** Arm @p spec, failing the test with the parser's message. */
    void
    arm(const std::string &spec)
    {
        std::string err;
        ASSERT_TRUE(util::armFailpoints(spec, &err)) << err;
    }
};

TEST_F(FailpointTest, DisarmedByDefault)
{
    EXPECT_FALSE(util::failpointsArmed());
    EXPECT_FALSE(util::evalFailpoint("store.put.write"));
}

TEST_F(FailpointTest, RegistryHasTheDocumentedShape)
{
    const auto &pts = util::knownFailpoints();
    ASSERT_FALSE(pts.empty());

    bool sawPutWrite = false, sawLoadRead = false, sawAnalyze = false;
    bool sawAppendWrite = false;
    size_t writeSites = 0;
    for (const auto &fp : pts) {
        writeSites += fp.writeSite;
        if (fp.name == "store.put.write") {
            sawPutWrite = true;
            EXPECT_TRUE(fp.writeSite);
        }
        if (fp.name == "store.append.write") {
            sawAppendWrite = true;
            EXPECT_TRUE(fp.writeSite);
        }
        EXPECT_NE(fp.name, "store.append.rename");
        if (fp.name == "store.load.read") {
            sawLoadRead = true;
            EXPECT_FALSE(fp.writeSite);
        }
        if (fp.name == "pipeline.analyze")
            sawAnalyze = true;
    }
    EXPECT_TRUE(sawPutWrite);
    EXPECT_TRUE(sawAppendWrite);
    EXPECT_TRUE(sawLoadRead);
    EXPECT_TRUE(sawAnalyze);
    // Every durable writer contributes open/write/fsync/rename, except
    // the profile store's append, which has no rename.
    EXPECT_EQ((writeSites - 3) % 4, 0u);
    EXPECT_GE(writeSites, 15u);
}

TEST_F(FailpointTest, ErrorActionCarriesTheNamedErrno)
{
    arm("store.put.write=error:ENOSPC");
    EXPECT_TRUE(util::failpointsArmed());

    const FailDecision d = util::evalFailpoint("store.put.write");
    ASSERT_TRUE(d);
    EXPECT_EQ(d.op, FailOp::Error);
    EXPECT_EQ(d.err, ENOSPC);
    EXPECT_STREQ(d.site, "store.put.write");

    // Unarmed sites stay silent even while others are armed.
    EXPECT_FALSE(util::evalFailpoint("store.put.fsync"));
}

TEST_F(FailpointTest, NumericErrnoAndDefaultEio)
{
    arm("store.load.read=error:13");    // EACCES by number
    EXPECT_EQ(util::evalFailpoint("store.load.read").err, EACCES);

    arm("store.load.read=error");
    EXPECT_EQ(util::evalFailpoint("store.load.read").err, EIO);
}

TEST_F(FailpointTest, ShortWriteDelayAndAbortArgs)
{
    arm("store.put.write=shortwrite:100");
    FailDecision d = util::evalFailpoint("store.put.write");
    EXPECT_EQ(d.op, FailOp::ShortWrite);
    EXPECT_EQ(d.param, 100u);

    arm("store.put.write=delay:7");
    d = util::evalFailpoint("store.put.write");
    EXPECT_EQ(d.op, FailOp::Delay);
    EXPECT_EQ(d.param, 7u);

    arm("store.put.rename=abort");
    d = util::evalFailpoint("store.put.rename");
    EXPECT_EQ(d.op, FailOp::Abort);
}

TEST_F(FailpointTest, NthHitTriggerFiresExactlyOnce)
{
    arm("trace.record.write=error:ENOSPC@3");
    EXPECT_FALSE(util::evalFailpoint("trace.record.write"));
    EXPECT_FALSE(util::evalFailpoint("trace.record.write"));
    EXPECT_TRUE(util::evalFailpoint("trace.record.write"));
    EXPECT_FALSE(util::evalFailpoint("trace.record.write"));
    EXPECT_EQ(util::failpointFireCount("trace.record.write"), 1u);
}

TEST_F(FailpointTest, EveryNthTriggerKeepsFiring)
{
    arm("trace.chunk.read=error,every=2");
    int fired = 0;
    for (int i = 0; i < 6; ++i)
        fired += bool(util::evalFailpoint("trace.chunk.read"));
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(util::failpointFireCount("trace.chunk.read"), 3u);
}

TEST_F(FailpointTest, SeededProbabilityIsReproducible)
{
    const std::string spec = "store.put.write=error,p=0.5,seed=42";
    auto pattern = [&]() {
        arm(spec);
        std::vector<bool> fires;
        for (int i = 0; i < 32; ++i)
            fires.push_back(bool(util::evalFailpoint("store.put.write")));
        return fires;
    };
    const std::vector<bool> a = pattern();
    const std::vector<bool> b = pattern();
    EXPECT_EQ(a, b);
    // p=0.5 over 32 draws: all-or-nothing would mean a broken RNG.
    size_t n = 0;
    for (bool f : a)
        n += f;
    EXPECT_GT(n, 0u);
    EXPECT_LT(n, 32u);
}

TEST_F(FailpointTest, LaterOffMasksAnEarlierArming)
{
    arm("store.put.write=error:ENOSPC;store.put.write=off");
    EXPECT_FALSE(util::evalFailpoint("store.put.write"));
}

TEST_F(FailpointTest, ReArmingReplacesAndDisarmResets)
{
    arm("store.put.write=error");
    EXPECT_TRUE(util::evalFailpoint("store.put.write"));
    EXPECT_EQ(util::failpointFireCount("store.put.write"), 1u);

    // A new spec replaces the old one wholesale.
    arm("store.put.fsync=error");
    EXPECT_FALSE(util::evalFailpoint("store.put.write"));
    EXPECT_TRUE(util::evalFailpoint("store.put.fsync"));

    util::disarmFailpoints();
    EXPECT_FALSE(util::failpointsArmed());
    EXPECT_EQ(util::failpointFireCount("store.put.fsync"), 0u);
}

TEST_F(FailpointTest, UnknownSiteIsRejectedByName)
{
    std::string err;
    EXPECT_FALSE(util::armFailpoints("nosuch.site=error", &err));
    EXPECT_NE(err.find("nosuch.site"), std::string::npos) << err;
    EXPECT_FALSE(util::failpointsArmed());
}

TEST_F(FailpointTest, MalformedSpecsAreRejected)
{
    std::string err;
    EXPECT_FALSE(util::armFailpoints("store.put.write", &err));
    EXPECT_FALSE(util::armFailpoints("store.put.write=", &err));
    EXPECT_FALSE(util::armFailpoints("store.put.write=explode", &err));
    EXPECT_FALSE(util::armFailpoints("store.put.write=error@zero", &err));
}

TEST_F(FailpointTest, FailpointHandleResolvesOnce)
{
    util::Failpoint fp("store.put.write");
    EXPECT_FALSE(fp.eval());
    arm("store.put.write=throw");
    const FailDecision d = fp.eval();
    ASSERT_TRUE(d);
    EXPECT_EQ(d.op, FailOp::Throw);
}

#endif // MICA_FAILPOINTS

} // namespace
} // namespace mica
