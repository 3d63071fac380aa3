/**
 * @file
 * Tests for the out-of-core corpus layer: manifest scanning (sharding,
 * determinism, validation), save/load round trips, the shard runner's
 * durable resume semantics (done markers, digest staleness, shard
 * quarantine), and the contract that profiling a corpus shard through
 * the file-list dataset path is byte-identical to profiling the same
 * traces as a directory.
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/experiments.hh"
#include "pipeline/corpus_runner.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "trace_v1_writer.hh"
#include "workloads/corpus.hh"

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
        char tmpl[] = "/tmp/mica_test_corpus_XXXXXX";
        const char *made = mkdtemp(tmpl);
        dir = made ? made : "/tmp/mica_test_corpus_fallback";
    }

    ~TmpDir() { fs::remove_all(dir); }

    std::string file(const std::string &name) const
    {
        return dir + "/" + name;
    }
};

std::vector<InstRecord>
sampleRecords(uint64_t n, uint64_t seed = 7)
{
    RandomTraceParams p;
    p.numInsts = n;
    p.seed = seed;
    RandomTraceSource src(p);
    std::vector<InstRecord> out;
    out.reserve(n);
    InstRecord r;
    while (src.next(r))
        out.push_back(r);
    return out;
}

void
writeTraceAt(const std::string &path, const std::vector<InstRecord> &recs)
{
    fs::create_directories(fs::path(path).parent_path());
    TraceFileWriter w(path);
    w.append(recs.data(), recs.size());
    w.close();
}

/**
 * A small tree: five binary traces (mixed formats, one nested) plus a
 * text trace, so sharding, nesting, and format tagging all exercise.
 */
workloads::CorpusManifest
makeCorpus(const TmpDir &tmp, size_t shardSize = 2)
{
    writeTraceAt(tmp.file("CommBench__tcp.tcp.trace"), sampleRecords(50, 1));
    test::writeTraceV1(tmp.file("MiBench__sha.large.trace"),
                       sampleRecords(60, 2));
    writeTraceAt(tmp.file("nested/a.trace"), sampleRecords(70, 3));
    writeTraceAt(tmp.file("nested/b.trace"), sampleRecords(80, 4));
    writeTraceAt(tmp.file("zz.trace"), sampleRecords(90, 5));
    std::ofstream(tmp.file("hand.txt")) << "alu dst=1\nload addr=8\n";
    std::ofstream(tmp.file("notes.md")) << "ignored\n";
    return workloads::scanCorpus(tmp.dir, shardSize);
}

TEST(CorpusScanTest, ShardsSortedFilesDeterministically)
{
    TmpDir tmp;
    const auto m = makeCorpus(tmp);

    // 6 trace files in lexicographic relative-path order, carved into
    // contiguous shards of 2.
    ASSERT_EQ(m.traceCount(), 6u);
    ASSERT_EQ(m.shards.size(), 3u);
    EXPECT_EQ(m.shards[0].name, "shard-000");
    EXPECT_EQ(m.shards[0].traces[0].file, "CommBench__tcp.tcp.trace");
    EXPECT_EQ(m.shards[0].traces[1].file, "MiBench__sha.large.trace");
    EXPECT_EQ(m.shards[1].traces[0].file, "hand.txt");
    EXPECT_EQ(m.shards[1].traces[1].file, "nested/a.trace");
    EXPECT_EQ(m.shards[2].traces[0].file, "nested/b.trace");
    EXPECT_EQ(m.shards[2].traces[1].file, "zz.trace");

    // Formats and counts come from the probe, not the filename.
    EXPECT_EQ(m.shards[0].traces[0].format, kTraceFormatV2);
    EXPECT_EQ(m.shards[0].traces[1].format, kTraceFormatV1);
    EXPECT_EQ(m.shards[1].traces[0].format, 0u);   // text
    EXPECT_EQ(m.shards[0].traces[0].records, 50u);
    EXPECT_EQ(m.records(), 50u + 60 + 70 + 80 + 90 + 2);

    // Scanning the identical tree again reproduces the manifest
    // bit-for-bit (this is what makes shard digests trustworthy).
    EXPECT_EQ(m.dump(), workloads::scanCorpus(tmp.dir, 2).dump());
}

TEST(CorpusScanTest, RejectsBadTreesAndCorruptTraces)
{
    TmpDir tmp;
    EXPECT_THROW(workloads::scanCorpus(tmp.dir + "/nope", 2),
                 workloads::CorpusError);
    EXPECT_THROW(workloads::scanCorpus(tmp.dir, 2),
                 workloads::CorpusError);   // no trace files
    writeTraceAt(tmp.file("ok.trace"), sampleRecords(10));
    EXPECT_THROW(workloads::scanCorpus(tmp.dir, 0),
                 workloads::CorpusError);   // shardSize 0
    std::ofstream(tmp.file("bad.trace")) << "garbage";
    // A corpus with a corrupt member must be fixed before sharding.
    EXPECT_THROW(workloads::scanCorpus(tmp.dir, 2), TraceFileError);
}

TEST(CorpusManifestTest, SaveLoadRoundTripsAndValidates)
{
    TmpDir tmp;
    const auto m = makeCorpus(tmp);
    workloads::saveCorpus(m);
    const auto loaded = workloads::loadCorpus(tmp.dir);
    EXPECT_EQ(loaded.dump(), m.dump());
    for (size_t i = 0; i < m.shards.size(); ++i)
        EXPECT_EQ(loaded.shards[i].digest(), m.shards[i].digest());

    // Absolute shard files point back into the tree.
    const auto files = loaded.shardFiles(1);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_TRUE(fs::exists(files[0]));
    EXPECT_TRUE(fs::exists(files[1]));

    // Validation names the violated invariant.
    TmpDir other;
    EXPECT_THROW(workloads::loadCorpus(other.dir), util::IoError);
    const auto reject = [&](const std::string &json) {
        std::ofstream(other.file("corpus.json")) << json;
        EXPECT_THROW(workloads::loadCorpus(other.dir),
                     workloads::CorpusError);
    };
    reject("not json at all");
    reject("{\"schema\":\"mica-corpus/999\",\"shards\":[]}");
    reject("{\"schema\":\"mica-corpus/1\",\"shards\":[]}");
    reject("{\"schema\":\"mica-corpus/1\",\"shards\":["
           "{\"name\":\"s\",\"traces\":[]}]}");
    reject("{\"schema\":\"mica-corpus/1\",\"shards\":["
           "{\"name\":\"s\",\"traces\":[{\"file\":\"a\",\"format\":1,"
           "\"records\":1,\"bytes\":1,\"digest\":\"0x0\"}]},"
           "{\"name\":\"s\",\"traces\":[{\"file\":\"b\",\"format\":1,"
           "\"records\":1,\"bytes\":1,\"digest\":\"0x0\"}]}]}");
}

TEST(CorpusRunnerTest, ResumeSkipsShardsWithValidMarkers)
{
    TmpDir tmp, out;
    const auto m = makeCorpus(tmp);

    size_t calls = 0;
    const auto fn = [&](size_t, const std::string &)
        -> pipeline::ShardResult {
        ++calls;
        return {3, 1};
    };

    pipeline::CorpusRunOptions opt;
    opt.outDir = out.file("run");
    auto first = pipeline::runCorpusShards(m, opt, fn);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(calls, 3u);
    for (const auto &o : first) {
        EXPECT_EQ(o.status, pipeline::ShardOutcome::Status::Done);
        EXPECT_EQ(o.benchmarks, 3u);
        EXPECT_EQ(o.failures, 1u);
        EXPECT_TRUE(fs::exists(fs::path(opt.outDir) / o.shard /
                               "shard.done.json"));
    }

    // Second run: every shard resumes from its marker, callback never
    // fires, and the recorded counts survive.
    auto second = pipeline::runCorpusShards(m, opt, fn);
    EXPECT_EQ(calls, 3u);
    for (const auto &o : second) {
        EXPECT_EQ(o.status, pipeline::ShardOutcome::Status::Skipped);
        EXPECT_EQ(o.benchmarks, 3u);
        EXPECT_EQ(o.failures, 1u);
    }

    // --rerun semantics: markers are ignored, everything recomputes.
    opt.rerunAll = true;
    auto third = pipeline::runCorpusShards(m, opt, fn);
    EXPECT_EQ(calls, 6u);
    for (const auto &o : third)
        EXPECT_EQ(o.status, pipeline::ShardOutcome::Status::Done);
}

TEST(CorpusRunnerTest, FailedShardIsQuarantinedAndRecomputes)
{
    TmpDir tmp, out;
    const auto m = makeCorpus(tmp);

    size_t calls = 0;
    pipeline::CorpusRunOptions opt;
    opt.outDir = out.file("run");
    auto first = pipeline::runCorpusShards(
        m, opt,
        [&](size_t i, const std::string &) -> pipeline::ShardResult {
            ++calls;
            if (i == 1)
                throw std::runtime_error("simulated shard failure");
            return {2, 0};
        });
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first[0].status, pipeline::ShardOutcome::Status::Done);
    EXPECT_EQ(first[1].status, pipeline::ShardOutcome::Status::Failed);
    EXPECT_EQ(first[1].error, "simulated shard failure");
    EXPECT_EQ(first[2].status, pipeline::ShardOutcome::Status::Done);
    EXPECT_FALSE(fs::exists(fs::path(opt.outDir) / first[1].shard /
                            "shard.done.json"));

    // The failed shard (and only it) recomputes on the next run.
    auto second = pipeline::runCorpusShards(
        m, opt,
        [&](size_t, const std::string &) -> pipeline::ShardResult {
            ++calls;
            return {2, 0};
        });
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(second[0].status, pipeline::ShardOutcome::Status::Skipped);
    EXPECT_EQ(second[1].status, pipeline::ShardOutcome::Status::Done);
    EXPECT_EQ(second[2].status, pipeline::ShardOutcome::Status::Skipped);

    // With isolation off, the failure propagates instead.
    opt.rerunAll = true;
    opt.isolate = false;
    EXPECT_THROW(
        pipeline::runCorpusShards(
            m, opt,
            [&](size_t, const std::string &) -> pipeline::ShardResult {
                throw std::runtime_error("boom");
            }),
        std::runtime_error);
}

TEST(CorpusRunnerTest, StaleOrForeignMarkersAreNotTrusted)
{
    TmpDir tmp, out;
    auto m = makeCorpus(tmp);

    size_t calls = 0;
    const auto fn = [&](size_t, const std::string &)
        -> pipeline::ShardResult {
        ++calls;
        return {1, 0};
    };
    pipeline::CorpusRunOptions opt;
    opt.outDir = out.file("run");
    pipeline::runCorpusShards(m, opt, fn);
    EXPECT_EQ(calls, 3u);

    // Re-record one shard-0 trace with different contents and rescan:
    // the shard digest moves, so shard 0's marker is stale and only
    // shard 0 recomputes.
    writeTraceAt(tmp.file("CommBench__tcp.tcp.trace"),
                 sampleRecords(50, 99));
    m = workloads::scanCorpus(tmp.dir, 2);
    auto rerun = pipeline::runCorpusShards(m, opt, fn);
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(rerun[0].status, pipeline::ShardOutcome::Status::Done);
    EXPECT_EQ(rerun[1].status, pipeline::ShardOutcome::Status::Skipped);
    EXPECT_EQ(rerun[2].status, pipeline::ShardOutcome::Status::Skipped);

    // A torn/garbage marker also reads as "not done".
    std::ofstream(out.file("run/shard-001/shard.done.json")) << "gar";
    auto torn = pipeline::runCorpusShards(m, opt, fn);
    EXPECT_EQ(calls, 5u);
    EXPECT_EQ(torn[1].status, pipeline::ShardOutcome::Status::Done);
}

// ----------------------------------------------------------------------
// The dataset contract: a shard profiled through traceFiles is
// byte-identical to the same files profiled as a directory.
// ----------------------------------------------------------------------

TEST(CorpusDatasetTest, FileListDatasetMatchesDirectoryDataset)
{
    TmpDir tmp;
    writeTraceAt(tmp.file("CommBench__tcp.tcp.trace"),
                 sampleRecords(400, 11));
    test::writeTraceV1(tmp.file("MiBench__sha.large.trace"),
                       sampleRecords(400, 12));
    const auto m = workloads::scanCorpus(tmp.dir, 8);
    ASSERT_EQ(m.shards.size(), 1u);

    experiments::DatasetConfig byDir;
    byDir.traceDir = tmp.dir;
    const auto a = experiments::collectSuiteDataset(byDir);

    experiments::DatasetConfig byFiles;
    byFiles.traceFiles = m.shardFiles(0);
    byFiles.traceLabel = "corpus:" + m.shards[0].name;
    const auto b = experiments::collectSuiteDataset(byFiles);

    ASSERT_EQ(a.benchmarks.size(), 2u);
    ASSERT_EQ(b.benchmarks.size(), 2u);
    for (size_t i = 0; i < a.benchmarks.size(); ++i) {
        EXPECT_EQ(a.benchmarks[i].fullName(), b.benchmarks[i].fullName());
        ASSERT_EQ(a.micaProfiles[i].values.size(),
                  b.micaProfiles[i].values.size());
        for (size_t v = 0; v < a.micaProfiles[i].values.size(); ++v)
            EXPECT_EQ(a.micaProfiles[i].values[v],
                      b.micaProfiles[i].values[v]);
        EXPECT_EQ(a.hpcProfiles[i].instCount, b.hpcProfiles[i].instCount);
    }

    // Mixing the two selectors is a usage error, not a silent pick.
    experiments::DatasetConfig both = byFiles;
    both.traceDir = tmp.dir;
    EXPECT_THROW(experiments::collectSuiteDataset(both),
                 std::invalid_argument);
}

} // namespace
} // namespace mica
