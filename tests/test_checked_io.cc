/**
 * @file
 * Tests for the checked-I/O layer and fault injection through the real
 * writers: IoError self-description (op + path + errno), the atomic
 * .tmp/fsync/rename commit leaving the destination untouched on any
 * injected failure (ENOSPC, short write, at every step), stale .tmp
 * debris never blocking the next attempt, and the same
 * destination-untouched contract driven end to end through all three
 * on-disk formats (profile store, index snapshot, trace file). Ends
 * with the in-process crash-consistency matrix.
 */

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/crash_matrix.hh"
#include "index/fingerprint_index.hh"
#include "index/snapshot.hh"
#include "pipeline/profile_store.hh"
#include "trace/trace_file.hh"
#include "util/checked_io.hh"
#include "util/failpoint.hh"

namespace mica
{
namespace
{

namespace fs = std::filesystem;

/** Self-cleaning unique temp directory (parallel ctest safe). */
struct TmpDir
{
    std::string dir;

    TmpDir()
    {
        char tmpl[] = "/tmp/mica_test_ckio_XXXXXX";
        const char *made = mkdtemp(tmpl);
        dir = made ? made : "/tmp/mica_test_ckio_fallback";
    }

    ~TmpDir() { fs::remove_all(dir); }

    std::string file(const std::string &name) const
    {
        return dir + "/" + name;
    }
};

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

class CheckedIoTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::disarmFailpoints(); }

    void TearDown() override { util::disarmFailpoints(); }

    void
    arm(const std::string &spec)
    {
        std::string err;
        ASSERT_TRUE(util::armFailpoints(spec, &err)) << err;
    }

    TmpDir tmp;
};

TEST_F(CheckedIoTest, IoErrorNamesOpPathAndErrno)
{
    const util::IoError e("write", "/data/profiles.bin", ENOSPC);
    EXPECT_EQ(e.op(), "write");
    EXPECT_EQ(e.path(), "/data/profiles.bin");
    EXPECT_EQ(e.code(), ENOSPC);

    const std::string msg = e.what();
    EXPECT_NE(msg.find("write"), std::string::npos) << msg;
    EXPECT_NE(msg.find("/data/profiles.bin"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::strerror(ENOSPC)), std::string::npos) << msg;

    // code 0 is the logical-corruption arm: "unexpected end of file".
    const util::IoError eof("read", "t.bin", 0);
    EXPECT_NE(std::string(eof.what()).find("unexpected end of file"),
              std::string::npos);
}

TEST_F(CheckedIoTest, MissingFileSurfacesEnoent)
{
    try {
        util::readFileBytes(tmp.file("absent.bin"), "store.load");
        FAIL() << "expected IoError";
    } catch (const util::IoError &e) {
        EXPECT_EQ(e.code(), ENOENT);
        EXPECT_EQ(e.op(), "open");
        EXPECT_NE(std::string(e.what()).find("absent.bin"),
                  std::string::npos);
    }
}

TEST_F(CheckedIoTest, AtomicWriteRoundTripsAndLeavesNoTmp)
{
    const std::string path = tmp.file("out.bin");
    const std::string payload = "forty-seven characteristics";
    util::atomicWriteFile(path, payload, "store.put");
    EXPECT_EQ(readAll(path), payload);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

#if MICA_FAILPOINTS

TEST_F(CheckedIoTest, FailedCommitLeavesDestinationUntouched)
{
    const std::string path = tmp.file("out.bin");
    const std::string oldData = "old complete contents";
    util::atomicWriteFile(path, oldData, "store.put");

    // Every step of the commit, failed independently, must leave the
    // previous file byte-identical and remove its .tmp.
    const char *specs[] = {
        "store.put.open=error:EACCES",
        "store.put.write=error:ENOSPC",
        "store.put.write=shortwrite:4",
        "store.put.fsync=error:EIO",
        "store.put.rename=error:EIO",
    };
    for (const char *spec : specs) {
        SCOPED_TRACE(spec);
        arm(spec);
        EXPECT_THROW(
            util::atomicWriteFile(path, std::string("new data"),
                                  "store.put"),
            util::IoError);
        util::disarmFailpoints();
        EXPECT_EQ(readAll(path), oldData);
        EXPECT_FALSE(fs::exists(path + ".tmp"));
    }
}

TEST_F(CheckedIoTest, ShortWriteReportsEnospcAndTruncates)
{
    const std::string path = tmp.file("short.bin");
    arm("trace.record.write=shortwrite:4");
    try {
        util::atomicWriteFile(path, std::string("0123456789"),
                              "trace.record");
        FAIL() << "expected IoError";
    } catch (const util::IoError &e) {
        EXPECT_EQ(e.code(), ENOSPC);
        EXPECT_EQ(e.op(), "write");
    }
    util::disarmFailpoints();
    // The torn bytes went to the .tmp, which the failure removed; the
    // destination never existed.
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

#endif // MICA_FAILPOINTS

TEST_F(CheckedIoTest, StaleTmpDebrisNeverBlocksTheNextCommit)
{
    const std::string path = tmp.file("out.bin");
    {
        std::ofstream junk(path + ".tmp", std::ios::binary);
        junk << "debris from a crashed run";
    }
    util::atomicWriteFile(path, std::string("fresh"), "store.put");
    EXPECT_EQ(readAll(path), "fresh");
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

#if MICA_FAILPOINTS

pipeline::StoredProfile
namedProfile(const std::string &name)
{
    pipeline::StoredProfile p;
    p.mica.name = name;
    p.hpc.name = name;
    return p;
}

TEST_F(CheckedIoTest, StorePutEnospcLeavesPreviousStoreReadable)
{
    const pipeline::StoreKey key;
    const std::string bin = tmp.file("profiles.bin");
    {
        pipeline::ProfileStore s(tmp.dir, key);
        s.put(namedProfile("suite/alpha.a"));
    }
    const std::string before = readAll(bin);
    ASSERT_FALSE(before.empty());

    // put() retries kPutAttempts times, warns, and never throws for
    // I/O: a full disk must not abort a sweep whose computation is
    // fine. The first attempt appends; after it fails, each retry
    // rewrites. The destination stays the previous complete store.
    arm("store.append.write=error:ENOSPC;store.put.write=error:ENOSPC");
    {
        pipeline::ProfileStore s(tmp.dir, key);
        ASSERT_TRUE(s.open());
        s.put(namedProfile("suite/beta.b"));
    }
    EXPECT_EQ(util::failpointFireCount("store.append.write"), 1u);
    EXPECT_EQ(util::failpointFireCount("store.put.write"),
              uint64_t(pipeline::ProfileStore::kPutAttempts - 1));
    util::disarmFailpoints();

    EXPECT_EQ(readAll(bin), before);
    EXPECT_FALSE(fs::exists(bin + ".tmp"));
    pipeline::ProfileStore reread(tmp.dir, key);
    ASSERT_TRUE(reread.open());
    EXPECT_NE(reread.find("suite/alpha.a"), nullptr);
    EXPECT_EQ(reread.find("suite/beta.b"), nullptr);
}

index::FingerprintIndex
tinyIndex(double salt)
{
    Matrix raw(3, 2);
    raw.rowNames = {"a", "b", "c"};
    raw.colNames = {"x", "y"};
    for (size_t r = 0; r < raw.rows(); ++r) {
        for (size_t c = 0; c < raw.cols(); ++c)
            raw(r, c) = salt + double(r * 2 + c);
    }
    return index::FingerprintIndex::build(raw);
}

TEST_F(CheckedIoTest, SnapshotSaveFailureNamesTheSinkAndKeepsOld)
{
    const std::string bin = tmp.file("index.bin");
    std::string why;
    ASSERT_TRUE(index::saveIndexSnapshot(tinyIndex(0.0), bin, "k", &why))
        << why;
    const std::string before = readAll(bin);

    arm("index.snapshot.write=error:ENOSPC");
    EXPECT_FALSE(
        index::saveIndexSnapshot(tinyIndex(1.0), bin, "k", &why));
    EXPECT_NE(why.find("index.bin"), std::string::npos) << why;
    EXPECT_NE(why.find(std::strerror(ENOSPC)), std::string::npos) << why;
    util::disarmFailpoints();

    EXPECT_EQ(readAll(bin), before);
    EXPECT_FALSE(fs::exists(bin + ".tmp"));
    index::FingerprintIndex idx;
    EXPECT_TRUE(index::loadIndexSnapshot(bin, "k", &idx, &why)) << why;
}

void
writeTinyTrace(const std::string &path, size_t records)
{
    TraceFileWriter w(path);
    InstRecord rec;
    for (size_t i = 0; i < records; ++i) {
        rec.pc = 0x1000 + i * 4;
        rec.cls = InstClass::IntAlu;
        w.append(rec);
    }
    w.close();
}

TEST_F(CheckedIoTest, TraceWriterShortWriteKeepsOldTraceReplayable)
{
    const std::string path = tmp.file("t__p.a.trace");
    writeTinyTrace(path, 50);
    const std::string before = readAll(path);

    // The trace layer wraps the IoError in its own exception; the
    // message must still name the sink and the OS reason.
    arm("trace.record.write=shortwrite");
    try {
        writeTinyTrace(path, 80);
        FAIL() << "expected TraceFileError";
    } catch (const TraceFileError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("t__p.a.trace"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::strerror(ENOSPC)), std::string::npos)
            << msg;
    }
    util::disarmFailpoints();

    EXPECT_EQ(readAll(path), before);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(probeTraceFile(path).recordCount, 50u);

    // And the next unfaulted recording commits over it cleanly.
    writeTinyTrace(path, 80);
    EXPECT_EQ(probeTraceFile(path).recordCount, 80u);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(CheckedIoTest, CrashMatrixAllCellsHoldTheContract)
{
    ASSERT_TRUE(experiments::crashMatrixSupported());
    const std::vector<experiments::CrashMatrixRow> rows =
        experiments::runCrashMatrix(tmp.file("matrix"));
    // Every write-path failpoint in the registry gets a cell.
    size_t writeSites = 0;
    for (const auto &fp : util::knownFailpoints())
        writeSites += fp.writeSite;
    EXPECT_EQ(rows.size(), writeSites);
    for (const auto &row : rows) {
        SCOPED_TRACE(row.site);
        EXPECT_TRUE(row.crashed) << row.detail;
        EXPECT_TRUE(row.oldValid || row.newValid) << row.detail;
        EXPECT_TRUE(row.recovered) << row.detail;
    }
}

#else // !MICA_FAILPOINTS

TEST_F(CheckedIoTest, CrashMatrixReportsCompiledOut)
{
    EXPECT_FALSE(experiments::crashMatrixSupported());
}

#endif // MICA_FAILPOINTS

} // namespace
} // namespace mica
