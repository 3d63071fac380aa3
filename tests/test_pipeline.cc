/**
 * @file
 * Tests for the parallel profiling pipeline: ThreadPool semantics,
 * ProfileStore durability, key rejection, per-entry content ids and
 * older formats, and end-to-end determinism of parallel collection.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/experiments.hh"
#include "isa/interpreter.hh"
#include "mica/dataset.hh"
#include "pipeline/parallel_collector.hh"
#include "pipeline/profile_store.hh"
#include "pipeline/thread_pool.hh"
#include "test_util.hh"
#include "trace/trace_file.hh"
#include "uarch/hpc_runner.hh"
#include "workloads/registry.hh"

namespace mica::pipeline
{
namespace
{

// ----------------------------------------------------------------------
// ThreadPool
// ----------------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::vector<std::future<int>> futs;
    for (int i = 0; i < 64; ++i)
        futs.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPoolTest, ZeroWorkersMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.workerCount(), 1u);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("job failed"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);

    // The worker that ran the throwing task must survive for new work.
    auto after = pool.submit([] { return 42; });
    EXPECT_EQ(after.get(), 42);
}

TEST(ThreadPoolTest, ManyConcurrentTasksAllComplete)
{
    ThreadPool pool(8);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 500; ++i)
        futs.push_back(pool.submit([&count] { ++count; }));
    for (auto &f : futs)
        f.get();
    EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, ParallelBlocksCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<int> hits(300, 0);
    parallelBlocks(&pool, hits.size(), [&](size_t b) { ++hits[b]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);

    // Null pool and zero count degrade to plain loops.
    std::vector<int> serialHits(7, 0);
    parallelBlocks(nullptr, serialHits.size(),
                   [&](size_t b) { ++serialHits[b]; });
    for (int h : serialHits)
        EXPECT_EQ(h, 1);
    parallelBlocks(&pool, 0, [&](size_t) { ADD_FAILURE(); });
}

TEST(ThreadPoolTest, ParallelBlocksFinishesAllBeforeRethrowing)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        parallelBlocks(&pool, 64, [&](size_t b) {
            ++ran;
            if (b % 16 == 3)
                throw std::runtime_error("block failed");
        });
        FAIL() << "expected rethrow";
    } catch (const std::runtime_error &) {
    }
    // Every block ran to completion before the exception unwound the
    // caller — no worker can still touch caller state afterwards.
    EXPECT_EQ(ran.load(), 64);
}

// ----------------------------------------------------------------------
// ProfileStore
// ----------------------------------------------------------------------

StoredProfile
fakeProfile(const std::string &name, double seed)
{
    StoredProfile p;
    p.mica.name = name;
    p.mica.instCount = static_cast<uint64_t>(seed * 1000);
    for (size_t i = 0; i < kNumMicaChars; ++i)
        p.mica.values[i] = seed + 0.001 * static_cast<double>(i);
    p.hpc.name = name;
    p.hpc.instCount = p.mica.instCount;
    p.hpc.ipcEv56 = seed;
    p.hpc.ipcEv67 = seed * 2;
    p.hpc.branchMissRate = seed / 3;
    p.hpc.l1dMissRate = seed / 4;
    p.hpc.l1iMissRate = seed / 5;
    p.hpc.l2MissRate = seed / 6;
    p.hpc.dtlbMissRate = seed / 7;
    return p;
}

/**
 * Per-test unique scratch directory: parallel ctest runs each TEST as
 * its own process, so a shared fixed path would race.
 */
struct StoreDir
{
    std::string dir;

    StoreDir()
    {
        char tmpl[] = "/tmp/mica_test_store_XXXXXX";
        const char *made = mkdtemp(tmpl);
        dir = made ? made : "/tmp/mica_test_store_fallback";
    }

    ~StoreDir() { std::filesystem::remove_all(dir); }
};

TEST(ProfileStoreTest, RoundTripsExactBits)
{
    StoreDir tmp;
    StoreKey key;
    key.maxInsts = 1000;

    ProfileStore writer(tmp.dir, key);
    EXPECT_FALSE(writer.open());    // nothing on disk yet
    writer.put(fakeProfile("s/a.x", 0.125));
    writer.put(fakeProfile("s/b.y", 0.375));

    ProfileStore reader(tmp.dir, key);
    ASSERT_TRUE(reader.open());
    ASSERT_EQ(reader.size(), 2u);
    const StoredProfile *p = reader.find("s/a.x");
    ASSERT_NE(p, nullptr);
    const StoredProfile want = fakeProfile("s/a.x", 0.125);
    EXPECT_EQ(p->mica.instCount, want.mica.instCount);
    for (size_t i = 0; i < kNumMicaChars; ++i)
        EXPECT_EQ(p->mica.values[i], want.mica.values[i]);    // bitwise
    EXPECT_EQ(p->hpc.ipcEv67, want.hpc.ipcEv67);
    EXPECT_EQ(reader.find("missing/none.z"), nullptr);
}

TEST(ProfileStoreTest, RejectsMismatchedKey)
{
    StoreDir tmp;
    StoreKey key;
    key.maxInsts = 1000;
    ProfileStore writer(tmp.dir, key);
    writer.put(fakeProfile("s/a.x", 0.5));

    StoreKey otherBudget = key;
    otherBudget.maxInsts = 2000;
    ProfileStore r1(tmp.dir, otherBudget);
    EXPECT_FALSE(r1.open());
    EXPECT_EQ(r1.size(), 0u);

    StoreKey otherPpm = key;
    otherPpm.ppmMaxOrder = 4;
    ProfileStore r2(tmp.dir, otherPpm);
    EXPECT_FALSE(r2.open());

    // A rejected store is rewritten by the next put, not appended to.
    r1.put(fakeProfile("s/b.y", 0.75));
    ProfileStore r4(tmp.dir, otherBudget);
    ASSERT_TRUE(r4.open());
    EXPECT_EQ(r4.size(), 1u);
    EXPECT_EQ(r4.find("s/a.x"), nullptr);
}

TEST(ProfileStoreTest, RejectsLegacyCsvEraDirectories)
{
    StoreDir tmp;
    std::filesystem::create_directories(tmp.dir);
    std::ofstream(tmp.dir + "/mica_profiles.csv") << "name,inst_count\n";
    std::ofstream(tmp.dir + "/profiles.bin") << "not a store";
    StoreKey key;
    ProfileStore store(tmp.dir, key);
    EXPECT_FALSE(store.open());
    EXPECT_EQ(store.size(), 0u);
}

TEST(ProfileStoreTest, TruncatedTrailingEntryIsDroppedNotFatal)
{
    StoreDir tmp;
    StoreKey key;
    ProfileStore writer(tmp.dir, key);
    writer.put(fakeProfile("s/a.x", 0.5));
    writer.put(fakeProfile("s/b.y", 0.25));

    // Simulate an interrupted append: chop the last entry mid-way.
    const auto path = tmp.dir + "/profiles.bin";
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 31);

    ProfileStore reader(tmp.dir, key);
    ASSERT_TRUE(reader.open());
    EXPECT_EQ(reader.size(), 1u);
    EXPECT_NE(reader.find("s/a.x"), nullptr);
    EXPECT_EQ(reader.find("s/b.y"), nullptr);
}

TEST(ProfileStoreTest, PutIsAtomicNoTmpSiblingSurvives)
{
    StoreDir tmp;
    StoreKey key;
    ProfileStore writer(tmp.dir, key);
    writer.put(fakeProfile("s/a.x", 0.5));
    // The tmp staging file was renamed into place, not left behind.
    EXPECT_FALSE(
        std::filesystem::exists(tmp.dir + "/profiles.bin.tmp"));
    EXPECT_TRUE(std::filesystem::exists(tmp.dir + "/profiles.bin"));

    // A stale .tmp from a crashed run never confuses a later put.
    std::ofstream(tmp.dir + "/profiles.bin.tmp") << "crash debris";
    writer.put(fakeProfile("s/b.y", 0.25));
    ProfileStore reader(tmp.dir, key);
    ASSERT_TRUE(reader.open());
    EXPECT_EQ(reader.size(), 2u);
    EXPECT_FALSE(
        std::filesystem::exists(tmp.dir + "/profiles.bin.tmp"));
}

TEST(ProfileStoreTest, TornHeaderRejectsCleanlyAndPutRebuilds)
{
    StoreDir tmp;
    StoreKey key;
    ProfileStore writer(tmp.dir, key);
    writer.put(fakeProfile("s/a.x", 0.5));
    writer.put(fakeProfile("s/b.y", 0.25));

    // Tear the file inside the header — the kind of state a crash
    // mid-write used to leave before writes went through tmp+rename.
    const auto path = tmp.dir + "/profiles.bin";
    std::filesystem::resize_file(path, 10);

    ProfileStore reader(tmp.dir, key);
    EXPECT_FALSE(reader.open());    // clean rejection, no entries
    EXPECT_EQ(reader.size(), 0u);

    // The next put rebuilds a complete, loadable store.
    reader.put(fakeProfile("s/c.z", 0.75));
    ProfileStore reopened(tmp.dir, key);
    ASSERT_TRUE(reopened.open());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_NE(reopened.find("s/c.z"), nullptr);
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
setFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/** @return whether @p got is @p want, bit for bit. */
bool
sameBits(const StoredProfile *got, const StoredProfile &want)
{
    return got && got->mica.name == want.mica.name &&
        got->mica.instCount == want.mica.instCount &&
        got->hpc.instCount == want.hpc.instCount &&
        std::memcmp(got->mica.values.data(), want.mica.values.data(),
                    sizeof(want.mica.values)) == 0 &&
        got->hpc.toVector() == want.hpc.toVector();
}

/**
 * A store in an older format, written from the layout the store's
 * header comment documents: the magic, the version, the old key
 * ("budget=N|ppm=K|suites=..." with an optional "|traces=..."), then
 * version 1's bare entries or version 2's frames (u32 length, u64
 * FNV-1a, entry) — neither with a content id.
 */
void
writeLegacyStore(const std::string &path, uint32_t version,
                 const std::string &oldKey,
                 const std::vector<StoredProfile> &profiles)
{
    std::string out("MICAPST\n");
    const auto pod = [](std::string &to, auto v) {
        to.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    pod(out, version);
    pod(out, static_cast<uint32_t>(oldKey.size()));
    out += oldKey;
    for (const StoredProfile &p : profiles) {
        std::string entry;
        pod(entry, uint32_t{0x50524F46});
        pod(entry, static_cast<uint32_t>(p.mica.name.size()));
        entry += p.mica.name;
        pod(entry, p.mica.instCount);
        for (double v : p.mica.values)
            pod(entry, v);
        pod(entry, p.hpc.instCount);
        for (double v : p.hpc.toVector())
            pod(entry, v);
        if (version == 2) {
            pod(out, static_cast<uint32_t>(entry.size()));
            pod(out, fnv1a(entry.data(), entry.size()));
        }
        out += entry;
    }
    setFileBytes(path, out);
}

/** @return the format version recorded in a store file. */
uint32_t
storeVersion(const std::string &path)
{
    uint32_t version = 0;
    std::memcpy(&version, fileBytes(path).data() + 8, sizeof(version));
    return version;
}

TEST(ProfileStoreTest, TornOrCorruptLastFrameKeepsTheEntriesBeforeIt)
{
    StoreDir tmp;
    StoreKey key;
    const std::string bin = tmp.dir + "/profiles.bin";
    const StoredProfile a = fakeProfile("s/a.x", 0.5);
    const StoredProfile b = fakeProfile("s/b.y", 0.25);
    const StoredProfile c = fakeProfile("s/c.z", 0.75);
    const StoredProfile d = fakeProfile("s/d.w", 0.125);
    {
        ProfileStore writer(tmp.dir, key);
        writer.put(a);
        writer.put(b);
    }
    const size_t lastFrame = fileBytes(bin).size();
    {
        ProfileStore writer(tmp.dir, key);
        ASSERT_TRUE(writer.open());
        writer.put(c);
    }
    const std::string whole = fileBytes(bin);
    ASSERT_GT(whole.size(), lastFrame + 12);

    // Every damaged copy must open to exactly a and b. The next put
    // must rewrite the file without the damage, so that a reopen sees
    // a, b and the new entry.
    const auto expectRepairs = [&](const std::string &damaged,
                                   const std::string &what) {
        SCOPED_TRACE(what);
        setFileBytes(bin, damaged);
        ProfileStore reader(tmp.dir, key);
        ASSERT_TRUE(reader.open());
        EXPECT_EQ(reader.size(), 2u);
        EXPECT_TRUE(sameBits(reader.find("s/a.x"), a));
        EXPECT_TRUE(sameBits(reader.find("s/b.y"), b));
        EXPECT_EQ(reader.find("s/c.z"), nullptr);

        reader.put(d);
        ProfileStore reopened(tmp.dir, key);
        ASSERT_TRUE(reopened.open());
        EXPECT_EQ(reopened.size(), 3u);
        EXPECT_TRUE(sameBits(reopened.find("s/a.x"), a));
        EXPECT_TRUE(sameBits(reopened.find("s/b.y"), b));
        EXPECT_TRUE(sameBits(reopened.find("s/d.w"), d));
    };
    for (size_t cut = lastFrame; cut < whole.size(); ++cut)
        expectRepairs(whole.substr(0, cut), "cut at " + std::to_string(cut));
    // Past the u32 length: the u64 checksum, then the payload.
    for (size_t at = lastFrame + 4; at < whole.size(); ++at) {
        std::string flipped = whole;
        flipped[at] = static_cast<char>(flipped[at] ^ 0xff);
        expectRepairs(flipped, "flip at " + std::to_string(at));
    }
    // A checksummed payload must hold one entry and nothing after it.
    const std::string payload = whole.substr(lastFrame + 12) + "x";
    const auto len = static_cast<uint32_t>(payload.size());
    const uint64_t sum = fnv1a(payload.data(), payload.size());
    expectRepairs(whole.substr(0, lastFrame) +
                      std::string(reinterpret_cast<const char *>(&len), 4) +
                      std::string(reinterpret_cast<const char *>(&sum), 8) +
                      payload,
                  "stray payload byte");
}

TEST(ProfileStoreTest, VersionOneStoreOpensAndAPutConvertsIt)
{
    StoreDir tmp;
    StoreKey key;
    key.maxInsts = 20000;
    const std::string bin = tmp.dir + "/profiles.bin";
    const std::vector<StoredProfile> old = {fakeProfile("s/a.x", 0.5),
                                            fakeProfile("s/b.y", 0.25),
                                            fakeProfile("s/c.z", 0.75)};
    writeLegacyStore(bin, 1, key.describe() + "|suites=", old);

    ProfileStore store(tmp.dir, key);
    ASSERT_TRUE(store.open());
    ASSERT_EQ(store.size(), 3u);
    for (const StoredProfile &p : old)
        EXPECT_TRUE(sameBits(store.find(p.name()), p)) << p.name();

    const StoredProfile d = fakeProfile("s/d.w", 0.125);
    store.put(d);
    EXPECT_EQ(storeVersion(bin), ProfileStore::kFormatVersion);
    ProfileStore reopened(tmp.dir, key);
    ASSERT_TRUE(reopened.open());
    EXPECT_EQ(reopened.size(), 4u);
    for (const StoredProfile &p : old)
        EXPECT_TRUE(sameBits(reopened.find(p.name()), p)) << p.name();
    EXPECT_TRUE(sameBits(reopened.find("s/d.w"), d));
}

TEST(ProfileStoreTest, FindHitsOnlyOnNameAndContentId)
{
    StoreDir tmp;
    StoreKey key;
    StoredProfile traced = fakeProfile("s/a.x", 0.5);
    traced.id = 0x1234;
    {
        ProfileStore writer(tmp.dir, key);
        writer.put(traced);
        writer.put(fakeProfile("s/b.y", 0.25));
    }

    // The id survives the file: the trace entry serves only a lookup
    // with its id, never a registry run (id 0) of the same name, and
    // a registry entry never serves a trace.
    ProfileStore reader(tmp.dir, key);
    ASSERT_TRUE(reader.open());
    ASSERT_NE(reader.find("s/a.x", 0x1234), nullptr);
    EXPECT_EQ(reader.find("s/a.x", 0x1234)->id, 0x1234u);
    EXPECT_EQ(reader.find("s/a.x"), nullptr);
    EXPECT_EQ(reader.find("s/a.x", 0x1235), nullptr);
    EXPECT_NE(reader.find("s/b.y"), nullptr);
    EXPECT_EQ(reader.find("s/b.y", 0x1234), nullptr);

    // A put replaces the entry of that name, on disk as in memory.
    const StoredProfile registry = fakeProfile("s/a.x", 0.75);
    reader.put(registry);
    EXPECT_EQ(reader.size(), 2u);
    ProfileStore reopened(tmp.dir, key);
    ASSERT_TRUE(reopened.open());
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(reopened.find("s/a.x", 0x1234), nullptr);
    ASSERT_NE(reopened.find("s/a.x"), nullptr);
    EXPECT_EQ(reopened.find("s/a.x")->hpc.ipcEv56, 0.75);

    // The replaced frame is dead weight: the next put after an open
    // rewrites the file to exactly the live entries, byte for byte
    // what a store holding only them would be.
    const StoredProfile c = fakeProfile("s/c.z", 0.125);
    reopened.put(c);
    StoreDir clean;
    {
        ProfileStore writer(clean.dir, key);
        writer.put(registry);
        writer.put(fakeProfile("s/b.y", 0.25));
        writer.put(c);
    }
    EXPECT_EQ(fileBytes(tmp.dir + "/profiles.bin"),
              fileBytes(clean.dir + "/profiles.bin"));
}

TEST(ProfileStoreTest, VersionTwoStoresOpenOrRejectByTheirOldKey)
{
    StoreKey key;
    key.maxInsts = 20000;
    const std::vector<StoredProfile> old = {fakeProfile("s/a.x", 0.5),
                                            fakeProfile("s/b.y", 0.25)};
    const StoredProfile c = fakeProfile("s/c.z", 0.75);

    // Registry profiles measured under this budget and PPM order are
    // the same whatever suite filter the old key carried: they open
    // as registry entries (id 0), and the first put converts the file.
    for (const std::string suites : {"", "s,t"}) {
        SCOPED_TRACE("suites=" + suites);
        StoreDir tmp;
        const std::string bin = tmp.dir + "/profiles.bin";
        writeLegacyStore(bin, 2, key.describe() + "|suites=" + suites, old);
        ProfileStore store(tmp.dir, key);
        ASSERT_TRUE(store.open());
        ASSERT_EQ(store.size(), 2u);
        for (const StoredProfile &p : old)
            EXPECT_TRUE(sameBits(store.find(p.name()), p)) << p.name();
        store.put(c);
        EXPECT_EQ(storeVersion(bin), ProfileStore::kFormatVersion);
        ProfileStore reopened(tmp.dir, key);
        ASSERT_TRUE(reopened.open());
        EXPECT_EQ(reopened.size(), 3u);
        for (const StoredProfile &p : old)
            EXPECT_TRUE(sameBits(reopened.find(p.name()), p)) << p.name();
        EXPECT_TRUE(sameBits(reopened.find("s/c.z"), c));
    }

    // Another budget, or a prefix of this one, is another config.
    for (const std::string other :
         {"budget=2000|ppm=8|suites=", "budget=200000|ppm=8|suites=",
          "budget=20000|ppm=4|suites=", "budget=20000|ppm=8"}) {
        SCOPED_TRACE(other);
        StoreDir tmp;
        writeLegacyStore(tmp.dir + "/profiles.bin", 2, other, old);
        ProfileStore store(tmp.dir, key);
        EXPECT_FALSE(store.open());
        EXPECT_EQ(store.size(), 0u);
    }

    // A trace store's old key named a whole trace set, so no entry in
    // it can be matched to its file: it reads as empty and the next
    // put rewrites it once, in the current format.
    StoreDir tmp;
    const std::string bin = tmp.dir + "/profiles.bin";
    writeLegacyStore(bin, 2,
                     key.describe() + "|suites=|traces=tr#1f2e3d4c", old);
    ProfileStore store(tmp.dir, key);
    EXPECT_FALSE(store.open());
    EXPECT_EQ(store.size(), 0u);
    store.put(c);
    EXPECT_EQ(storeVersion(bin), ProfileStore::kFormatVersion);
    ProfileStore reopened(tmp.dir, key);
    ASSERT_TRUE(reopened.open());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_TRUE(sameBits(reopened.find("s/c.z"), c));
}

TEST(ProfileStoreTest, PutOnACleanStoreAppendsExactlyOneFrame)
{
    StoreDir tmp;
    StoreKey key;
    const std::string bin = tmp.dir + "/profiles.bin";
    {
        ProfileStore writer(tmp.dir, key);
        writer.put(fakeProfile("s/a.x", 0.5));
    }
    const std::string before = fileBytes(bin);
    ProfileStore store(tmp.dir, key);
    ASSERT_TRUE(store.open());
    store.put(fakeProfile("s/b.y", 0.25));
    const std::string after = fileBytes(bin);

    // The old bytes stay in place; the rest is one frame: a u32
    // payload length, the payload's u64 FNV-1a, then the payload.
    ASSERT_GT(after.size(), before.size() + 12);
    EXPECT_EQ(after.compare(0, before.size(), before), 0);
    uint32_t len = 0;
    uint64_t sum = 0;
    std::memcpy(&len, after.data() + before.size(), sizeof(len));
    std::memcpy(&sum, after.data() + before.size() + 4, sizeof(sum));
    EXPECT_EQ(after.size(), before.size() + 12 + len);
    EXPECT_EQ(sum, fnv1a(after.data() + before.size() + 12, len));
}

TEST(ProfileStoreTest, EveryPutLeavesACompleteLoadableFile)
{
    // Rewrites go through tmp+rename and appends are fsynced before
    // put returns, so the on-disk file is a complete store after every
    // single put — an interrupted sweep can always reload everything
    // persisted so far.
    StoreDir tmp;
    StoreKey key;
    ProfileStore writer(tmp.dir, key);
    for (int i = 0; i < 5; ++i) {
        writer.put(fakeProfile("s/bench." + std::to_string(i),
                               0.125 * (i + 1)));
        ProfileStore reader(tmp.dir, key);
        ASSERT_TRUE(reader.open());
        EXPECT_EQ(reader.size(), static_cast<size_t>(i + 1));
    }
}

// ----------------------------------------------------------------------
// ParallelCollector
// ----------------------------------------------------------------------

std::vector<const workloads::BenchmarkEntry *>
someEntries(size_t n)
{
    std::vector<const workloads::BenchmarkEntry *> out;
    for (const auto &e : workloads::BenchmarkRegistry::instance().all()) {
        if (out.size() >= n)
            break;
        out.push_back(&e);
    }
    return out;
}

TEST(ParallelCollectorTest, ParallelMatchesSerialBitForBit)
{
    const auto entries = someEntries(6);
    MicaRunnerConfig rc;
    rc.maxInsts = 20000;
    const auto serial = collectProfiles(entries, rc, 1);
    const auto parallel = collectProfiles(entries, rc, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].name(), parallel[i].name());
        EXPECT_EQ(serial[i].mica.instCount, parallel[i].mica.instCount);
        for (size_t c = 0; c < kNumMicaChars; ++c)
            EXPECT_EQ(serial[i].mica.values[c], parallel[i].mica.values[c]);
        EXPECT_EQ(serial[i].hpc.ipcEv56, parallel[i].hpc.ipcEv56);
        EXPECT_EQ(serial[i].hpc.ipcEv67, parallel[i].hpc.ipcEv67);
        EXPECT_EQ(serial[i].hpc.l2MissRate, parallel[i].hpc.l2MissRate);
    }
}

TEST(ParallelCollectorTest, ProgressCoversEveryJobExactlyOnce)
{
    const auto entries = someEntries(5);
    MicaRunnerConfig rc;
    rc.maxInsts = 5000;
    std::atomic<size_t> calls{0};
    size_t lastDone = 0, lastTotal = 0;
    std::mutex m;
    collectProfiles(entries, rc, 4,
                    [&](size_t done, size_t total, const std::string &) {
                        ++calls;
                        std::lock_guard<std::mutex> lock(m);
                        lastDone = std::max(lastDone, done);
                        lastTotal = total;
                    });
    EXPECT_EQ(calls.load(), entries.size());
    EXPECT_EQ(lastDone, entries.size());
    EXPECT_EQ(lastTotal, entries.size());
}

void
expectSameProfile(const StoredProfile &got, const MicaProfile &mica,
                  const uarch::HwCounterProfile &hpc)
{
    EXPECT_EQ(got.mica.name, mica.name);
    EXPECT_EQ(got.mica.instCount, mica.instCount);
    for (size_t c = 0; c < kNumMicaChars; ++c)
        EXPECT_EQ(got.mica.values[c], mica.values[c]) << mica.name << c;
    EXPECT_EQ(got.hpc.name, hpc.name);
    EXPECT_EQ(got.hpc.instCount, hpc.instCount);
    const auto a = got.hpc.toVector(), b = hpc.toVector();
    for (size_t m = 0; m < a.size(); ++m)
        EXPECT_EQ(a[m], b[m]) << hpc.name << " hpc metric " << m;
}

/**
 * One fused pass per benchmark must give exactly what the separate
 * MICA and HPC collectors give, for program- and v2-trace-backed
 * entries, at one and at several workers.
 */
TEST(ParallelCollectorTest, FusedPassMatchesSeparateCollectors)
{
    const auto programs = someEntries(5);
    MicaRunnerConfig rc;
    rc.maxInsts = 20000;

    StoreDir tmp;
    for (const auto *e : programs) {
        std::string stem = e->info.fullName();
        stem.replace(stem.find('/'), 1, "__");
        const isa::Program prog = e->build();
        isa::Interpreter interp(prog);
        TraceFileWriter w(tmp.dir + "/" + stem + ".trace");
        InstRecord r;
        for (uint64_t n = 0; n < rc.maxInsts && interp.next(r); ++n)
            w.append(r);
        w.close();
    }
    const auto traces = workloads::traceBenchmarks(tmp.dir);
    ASSERT_EQ(traces.size(), programs.size());
    std::vector<const workloads::BenchmarkEntry *> traceEntries;
    for (const auto &e : traces)
        traceEntries.push_back(&e);

    for (const auto &entries : {programs, traceEntries}) {
        std::vector<MicaProfile> mica;
        std::vector<uarch::HwCounterProfile> hpc;
        for (const auto *e : entries) {
            const std::string name = e->info.fullName();
            if (e->source) {
                mica.push_back(collectMicaProfile(*e->source(), name, rc));
                hpc.push_back(uarch::collectHwProfile(*e->source(), name,
                                                      rc.maxInsts));
            } else {
                const isa::Program prog = e->build();
                isa::Interpreter a(prog), b(prog);
                mica.push_back(collectMicaProfile(a, name, rc));
                hpc.push_back(uarch::collectHwProfile(b, name, rc.maxInsts));
            }
        }
        for (unsigned jobs : {1u, 4u}) {
            const auto got = collectProfiles(entries, rc, jobs);
            ASSERT_EQ(got.size(), entries.size());
            for (size_t i = 0; i < got.size(); ++i)
                expectSameProfile(got[i], mica[i], hpc[i]);
        }
    }
}

TEST(ParallelCollectorTest, JobExceptionsReachTheCaller)
{
    workloads::BenchmarkEntry broken;
    broken.info.suite = "Fake";
    broken.info.program = "broken";
    broken.info.input = "x";
    broken.build = []() -> isa::Program {
        throw std::runtime_error("kernel build exploded");
    };
    std::vector<const workloads::BenchmarkEntry *> entries = {&broken};
    MicaRunnerConfig rc;
    for (unsigned jobs : {4u, 1u}) {
        std::vector<SweepFailure> failures;
        size_t delivered = 0;
        const auto got = collectProfiles(
            entries, rc, jobs, {},
            [&](const StoredProfile &) { ++delivered; }, {}, &failures);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(delivered, 0u);
        ASSERT_EQ(failures.size(), 1u) << "jobs " << jobs;
        EXPECT_EQ(failures[0].bench, "Fake/broken.x");
        EXPECT_EQ(failures[0].phase, "profile");
        EXPECT_EQ(failures[0].error, "kernel build exploded");
    }
}

// ----------------------------------------------------------------------
// End-to-end: collectSuiteDataset on the pipeline
// ----------------------------------------------------------------------

experiments::DatasetConfig
smallConfig()
{
    experiments::DatasetConfig cfg;
    cfg.maxInsts = 20000;
    cfg.suites = {"CommBench"};
    return cfg;
}

TEST(PipelineDatasetTest, JobsEightEqualsSerial)
{
    auto serialCfg = smallConfig();
    serialCfg.jobs = 1;
    auto parallelCfg = smallConfig();
    parallelCfg.jobs = 8;
    const auto a = experiments::collectSuiteDataset(serialCfg);
    const auto b = experiments::collectSuiteDataset(parallelCfg);
    ASSERT_EQ(a.benchmarks.size(), b.benchmarks.size());
    for (size_t i = 0; i < a.benchmarks.size(); ++i) {
        EXPECT_EQ(a.micaProfiles[i].name, b.micaProfiles[i].name);
        for (size_t c = 0; c < kNumMicaChars; ++c)
            EXPECT_EQ(a.micaProfiles[i][c], b.micaProfiles[i][c]);
        EXPECT_EQ(a.hpcProfiles[i].ipcEv56, b.hpcProfiles[i].ipcEv56);
        EXPECT_EQ(a.hpcProfiles[i].dtlbMissRate,
                  b.hpcProfiles[i].dtlbMissRate);
    }
}

TEST(PipelineDatasetTest, SecondRunHitsStoreAndBudgetChangeMisses)
{
    StoreDir tmp;
    auto cfg = smallConfig();
    cfg.cacheDir = tmp.dir;
    cfg.jobs = 2;

    size_t profiled = 0;
    cfg.progress = [&profiled](size_t, size_t, const std::string &) {
        ++profiled;
    };

    const auto fresh = experiments::collectSuiteDataset(cfg);
    EXPECT_EQ(profiled, fresh.benchmarks.size());

    profiled = 0;
    const auto cached = experiments::collectSuiteDataset(cfg);
    EXPECT_EQ(profiled, 0u);    // full store hit: no re-profiling
    for (size_t i = 0; i < fresh.micaProfiles.size(); ++i) {
        for (size_t c = 0; c < kNumMicaChars; ++c)
            EXPECT_EQ(cached.micaProfiles[i][c], fresh.micaProfiles[i][c]);
        EXPECT_EQ(cached.hpcProfiles[i].ipcEv67,
                  fresh.hpcProfiles[i].ipcEv67);
    }

    // The staleness bug the CSV cache had: a different budget must not
    // be served from the old store.
    profiled = 0;
    auto bigger = cfg;
    bigger.maxInsts = 40000;
    const auto recollected = experiments::collectSuiteDataset(bigger);
    EXPECT_EQ(profiled, recollected.benchmarks.size());
}

TEST(PipelineDatasetTest, PartialStoreOnlyProfilesTheGap)
{
    StoreDir tmp;
    auto cfg = smallConfig();
    cfg.cacheDir = tmp.dir;

    // Seed the store with a run over a subset of what we'll ask for
    // next, under the same key, by dropping benchmarks from the file.
    const auto full = experiments::collectSuiteDataset(cfg);
    pipeline::StoreKey key;
    key.maxInsts = cfg.maxInsts;
    key.ppmMaxOrder = cfg.ppmMaxOrder;
    ProfileStore seeded(tmp.dir, key);
    ASSERT_TRUE(seeded.open());
    ASSERT_EQ(seeded.size(), full.benchmarks.size());

    // Rewrite the store with only the first half of the entries.
    std::filesystem::remove(tmp.dir + "/profiles.bin");
    ProfileStore half(tmp.dir, key);
    half.open();
    const size_t keep = full.benchmarks.size() / 2;
    for (size_t i = 0; i < keep; ++i) {
        StoredProfile p;
        p.mica = full.micaProfiles[i];
        p.hpc = full.hpcProfiles[i];
        half.put(p);
    }

    size_t profiled = 0;
    cfg.progress = [&profiled](size_t, size_t, const std::string &) {
        ++profiled;
    };
    const auto merged = experiments::collectSuiteDataset(cfg);
    EXPECT_EQ(profiled, full.benchmarks.size() - keep);
    ASSERT_EQ(merged.benchmarks.size(), full.benchmarks.size());
    for (size_t i = 0; i < full.micaProfiles.size(); ++i) {
        for (size_t c = 0; c < kNumMicaChars; ++c)
            EXPECT_EQ(merged.micaProfiles[i][c], full.micaProfiles[i][c]);
    }
}

TEST(PipelineDatasetTest, SuiteFilterReadsAWiderStoreAndKeepsIt)
{
    StoreDir tmp;
    experiments::DatasetConfig wide;
    wide.maxInsts = 5000;
    wide.suites = {"CommBench", "MiBench"};
    wide.cacheDir = tmp.dir;
    wide.jobs = 2;
    size_t profiled = 0;
    wide.progress = [&profiled](size_t, size_t, const std::string &) {
        ++profiled;
    };
    const auto all = experiments::collectSuiteDataset(wide);
    EXPECT_EQ(profiled, all.benchmarks.size());
    const std::string before =
        fileBytes(tmp.dir + "/profiles.bin");

    // The filtered run is served from the wider store and leaves the
    // file alone, so the wider run after it still hits everything.
    profiled = 0;
    auto narrow = wide;
    narrow.suites = {"CommBench"};
    const auto comm = experiments::collectSuiteDataset(narrow);
    EXPECT_EQ(profiled, 0u);
    EXPECT_EQ(comm.benchmarks.size(), 12u);
    EXPECT_EQ(fileBytes(tmp.dir + "/profiles.bin"), before);
    for (size_t i = 0; i < comm.benchmarks.size(); ++i) {
        const size_t j = all.indexOf(comm.benchmarks[i].fullName());
        ASSERT_NE(j, static_cast<size_t>(-1));
        EXPECT_EQ(comm.micaProfiles[i].values, all.micaProfiles[j].values);
    }
    experiments::collectSuiteDataset(wide);
    EXPECT_EQ(profiled, 0u);
}

TEST(PipelineDatasetTest, ConfigFromArgsParsesJobs)
{
    // @return the parsed worker count, or -1 when the value rejects.
    auto parse = [](std::string flag) -> long long {
        char prog[] = "prog";
        char *argv[] = {prog, flag.data()};
        experiments::DatasetConfig cfg;
        std::string err;
        if (!experiments::datasetConfigFromFlags(
                util::parseCliArgs(2, argv, experiments::datasetFlags()),
                &cfg, &err)) {
            EXPECT_NE(err.find("--jobs"), std::string::npos) << err;
            return -1;
        }
        return cfg.jobs;
    };
    EXPECT_EQ(parse("--jobs=6"), 6);
    EXPECT_EQ(parse("--jobs=0"), 0);           // 0 = auto
    EXPECT_EQ(parse("--jobs=-1"), -1);         // no thread bomb
    EXPECT_EQ(parse("--jobs=banana"), -1);     // not serial: rejects
    EXPECT_EQ(parse("--jobs="), -1);
    EXPECT_EQ(parse("--jobs=12x"), -1);
    // Clamped; asserted on the config alone, no pool is started.
    EXPECT_EQ(parse("--jobs=999999"), 256);
}

TEST(PipelineDatasetTest, CompletedResultsPersistWhenASweepFails)
{
    StoreDir tmp;
    StoreKey key;
    ProfileStore store(tmp.dir, key);
    store.open();

    const auto good = someEntries(3);
    workloads::BenchmarkEntry broken;
    broken.info.suite = "Fake";
    broken.info.program = "broken";
    broken.info.input = "x";
    broken.build = []() -> isa::Program {
        throw std::runtime_error("kernel build exploded");
    };
    std::vector<const workloads::BenchmarkEntry *> entries = good;
    entries.push_back(&broken);

    MicaRunnerConfig rc;
    rc.maxInsts = 5000;
    std::atomic<size_t> persisted{0};
    ResultFn persist = [&](const StoredProfile &p) {
        store.put(p);
        ++persisted;
    };
    std::vector<SweepFailure> failures;
    collectProfiles(entries, rc, 4, {}, persist, {}, &failures);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].bench, "Fake/broken.x");
    EXPECT_EQ(persisted.load(), good.size());

    // Everything that completed survives on disk; the failure does not.
    ProfileStore reopened(tmp.dir, key);
    ASSERT_TRUE(reopened.open());
    EXPECT_EQ(reopened.size(), good.size());
    for (const auto *e : good)
        EXPECT_NE(reopened.find(e->info.fullName()), nullptr);
    EXPECT_EQ(reopened.find("Fake/broken.x"), nullptr);
}

// ----------------------------------------------------------------------
// CSV exports
// ----------------------------------------------------------------------

TEST(CsvHardeningTest, WellFormedCsvStillRoundTrips)
{
    // The exports are write-only; the test parses the written cells
    // and compares each value bit for bit.
    const std::string path = "/tmp/mica_test_good.csv";
    MicaProfile p;
    p.name = "bench/a.x";
    p.instCount = 4242;
    for (size_t i = 0; i < kNumMicaChars; ++i)
        p.values[i] = 0.25 * static_cast<double>(i) + 1.0 / 3.0;
    saveProfilesCsv(path, {p});
    auto rows = test::csvCells(path);
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[1].size(), kNumMicaChars + 2);
    EXPECT_EQ(rows[1][0], p.name);
    EXPECT_EQ(rows[1][1], "4242");
    for (size_t i = 0; i < kNumMicaChars; ++i)
        EXPECT_EQ(test::cellBits(rows[1][i + 2]),
                  test::doubleBits(p.values[i]))
            << "column " << i;

    uarch::HwCounterProfile h;
    h.name = p.name;
    h.instCount = p.instCount;
    h.ipcEv56 = 0.1;
    h.ipcEv67 = 2.0 / 3.0;
    h.branchMissRate = 1e-17;
    h.l1dMissRate = 0.5;
    h.l1iMissRate = 0.0;
    h.l2MissRate = 1.0 / 7.0;
    h.dtlbMissRate = 123456.789;
    experiments::SuiteDataset ds;
    ds.hpcProfiles = {h};
    saveMatrixCsv(path, ds.hpcMatrix());
    rows = test::csvCells(path);
    const std::vector<double> want = h.toVector();
    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[0].size(), want.size() + 1);
    ASSERT_EQ(rows[1].size(), want.size() + 1);
    EXPECT_EQ(rows[1][0], h.name);
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(rows[0][i + 1],
                  uarch::HwCounterProfile::metricNames()[i]);
        EXPECT_EQ(test::cellBits(rows[1][i + 1]),
                  test::doubleBits(want[i]))
            << "metric " << i;
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace mica::pipeline
