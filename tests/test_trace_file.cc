/**
 * @file
 * Tests for file-backed trace recording and replay: the binary format
 * round trip (v2 as written, v1 from the test-only writer, bit for
 * bit), writer atomicity, rejection of corrupt, truncated and
 * version-mismatched files, the RecordingSource tee, the
 * next()/nextBatch()/nextSpan() prefix contract across every source,
 * text traces, trace-directory benchmark surfacing, and the
 * load-bearing contract of the whole subsystem: replaying a recorded
 * trace produces profiles byte-identical to interpreting the program
 * directly.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/experiments.hh"
#include "isa/interpreter.hh"
#include "mica/dataset.hh"
#include "mica/runner.hh"
#include "pipeline/profile_store.hh"
#include "test_util.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "trace_v1_writer.hh"
#include "uarch/hpc_runner.hh"
#include "workloads/registry.hh"

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
        char tmpl[] = "/tmp/mica_test_trace_XXXXXX";
        const char *made = mkdtemp(tmpl);
        dir = made ? made : "/tmp/mica_test_trace_fallback";
    }

    ~TmpDir() { fs::remove_all(dir); }

    std::string file(const std::string &name) const
    {
        return dir + "/" + name;
    }
};

bool
sameRec(const InstRecord &a, const InstRecord &b)
{
    return a.pc == b.pc && a.cls == b.cls &&
           a.numSrcRegs == b.numSrcRegs && a.srcRegs == b.srcRegs &&
           a.dstReg == b.dstReg && a.memAddr == b.memAddr &&
           a.memSize == b.memSize && a.taken == b.taken &&
           a.target == b.target;
}

/** A deterministic, varied record stream for round-trip tests. */
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

/** Write @p recs with the library writer (format v2). */
std::string
writeTrace(const TmpDir &tmp, const std::vector<InstRecord> &recs,
           const std::string &name = "t.trace")
{
    const std::string path = tmp.file(name);
    TraceFileWriter w(path);
    w.append(recs.data(), recs.size());
    w.close();
    return path;
}

/** Write @p recs in format v1 (test-only writer, 4096-record chunks). */
std::string
writeTraceV1(const TmpDir &tmp, const std::vector<InstRecord> &recs,
             const std::string &name = "v1.trace")
{
    const std::string path = tmp.file(name);
    test::writeTraceV1(path, recs);
    return path;
}

/** Write @p recs in format v1 (test-only writer) or v2 (library). */
std::string
writeTraceAs(bool v1, const TmpDir &tmp, const std::vector<InstRecord> &recs,
             const std::string &name)
{
    return v1 ? writeTraceV1(tmp, recs, name) : writeTrace(tmp, recs, name);
}

/** @return the whole file as one string. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::stringstream s;
    s << f.rdbuf();
    return s.str();
}

/** Overwrite bytes at an absolute file offset. */
void
patchBytes(const std::string &path, uint64_t offset, const void *data,
           size_t n)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char *>(data),
            static_cast<std::streamsize>(n));
}

/** XOR the byte at @p offset of @p path with @p mask. */
void
flipByte(const std::string &path, uint64_t offset, uint8_t mask)
{
    const std::string b = fileBytes(path);
    ASSERT_LT(offset, b.size());
    const uint8_t v = static_cast<uint8_t>(b[offset]) ^ mask;
    patchBytes(path, offset, &v, 1);
}

// ----------------------------------------------------------------------
// Round trip
// ----------------------------------------------------------------------

TEST(TraceFileTest, RoundTripsBitForBitInBothFormats)
{
    TmpDir tmp;
    // Several chunks of either format plus a partial one.
    const auto recs =
        sampleRecords(TraceFileWriter::kChunkRecordsV2 + 3 * 4096 + 1234);
    for (const std::string &path :
         {writeTraceV1(tmp, recs), writeTrace(tmp, recs)}) {
        EXPECT_EQ(probeTraceFile(path).recordCount, recs.size());
        FileTraceSource src(path);
        EXPECT_EQ(src.recordCount(), recs.size());
        InstRecord a;
        for (size_t i = 0; i < recs.size(); ++i) {
            ASSERT_TRUE(src.next(a)) << path << " " << i;
            EXPECT_TRUE(sameRec(a, recs[i])) << path << " " << i;
        }
        EXPECT_FALSE(src.next(a));
    }
}

TEST(TraceFileTest, RecordingTheSameTraceTwiceIsByteIdentical)
{
    TmpDir tmp;
    const auto recs = sampleRecords(5000);
    const std::string p1 = writeTrace(tmp, recs, "a.trace");
    const std::string p2 = writeTrace(tmp, recs, "b.trace");
    // The writer encodes fields, never struct bytes, so recordings
    // are reproducible files.
    EXPECT_EQ(fileBytes(p1), fileBytes(p2));
    EXPECT_EQ(fileBytes(p1).size(), fs::file_size(p1));
}

TEST(TraceFileTest, EmptyTraceRoundTrips)
{
    TmpDir tmp;
    const std::string path = writeTraceV1(tmp, {});
    EXPECT_EQ(probeTraceFile(path).version, kTraceFormatV1);
    EXPECT_EQ(probeTraceFile(path).recordCount, 0u);
    FileTraceSource src(path);
    InstRecord r;
    EXPECT_FALSE(src.next(r));
}

TEST(TraceFileTest, ResetRewindsInBothFormats)
{
    TmpDir tmp;
    const auto recs = sampleRecords(6000);
    for (const std::string &path :
         {writeTraceV1(tmp, recs), writeTrace(tmp, recs)}) {
        FileTraceSource src(path);
        InstRecord r;
        for (int i = 0; i < 4999; ++i)
            ASSERT_TRUE(src.next(r));
        EXPECT_TRUE(src.reset());
        size_t n = 0;
        while (src.next(r)) {
            ASSERT_TRUE(sameRec(r, recs[n])) << path;
            ++n;
        }
        EXPECT_EQ(n, recs.size()) << path;
    }
}

TEST(TraceFileTest, SpansStopAtChunkBoundariesButNeverReturnZeroMidTrace)
{
    TmpDir tmp;
    // One full chunk plus 17 records, in each format's chunk size.
    for (const bool v1 : {true, false}) {
        const size_t n =
            (v1 ? 4096 : TraceFileWriter::kChunkRecordsV2) + 17;
        const auto recs = sampleRecords(n);
        auto src = std::make_unique<FileTraceSource>(
            writeTraceAs(v1, tmp, recs, "s.trace"));
        std::vector<InstRecord> buf(n + 100);
        const InstRecord *span = nullptr;
        size_t total = 0, calls = 0;
        size_t got;
        while ((got = src->nextSpan(span, buf.data(), buf.size())) != 0) {
            ASSERT_GT(got, 0u);
            for (size_t i = 0; i < got; ++i)
                ASSERT_TRUE(sameRec(span[i], recs[total + i]));
            total += got;
            ++calls;
        }
        EXPECT_EQ(total, n);
        EXPECT_EQ(calls, 2u) << "one span per chunk";
    }
}

/** Expect a TraceFileError whose message mentions @p needle. */
template <typename Fn>
void
expectReject(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected TraceFileError containing '" << needle << "'";
    } catch (const TraceFileError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual: " << e.what();
    }
}

TEST(TraceFileTest, ChunkCountPatchedAfterOpenRejects)
{
    TmpDir tmp;
    const auto recs = sampleRecords(5000);
    // A count rewritten after the open must be bounded by the payload
    // left before it sizes the chunk buffer (~206 GB for 0xFFFFFFFF
    // v1 records), in either format.
    for (const std::string &path :
         {writeTraceV1(tmp, recs), writeTrace(tmp, recs)}) {
        FileTraceSource src(path);
        const uint32_t huge = 0xFFFFFFFFu;
        patchBytes(path, 48 + 4, &huge, sizeof(huge));
        InstRecord r;
        expectReject([&] { src.next(r); },
                     "corrupt chunk header at payload offset 0");
    }
}

// ----------------------------------------------------------------------
// Columnar format v2
// ----------------------------------------------------------------------

TEST(TraceV2Test, RoundTripsThroughTheStreamedReader)
{
    TmpDir tmp;
    // Multiple v2 chunks plus a partial one.
    const auto recs =
        sampleRecords(2 * TraceFileWriter::kChunkRecordsV2 + 777);
    const std::string path = writeTrace(tmp, recs);

    const TraceFileInfo info = probeTraceFile(path);
    EXPECT_EQ(info.version, kTraceFormatV2);
    EXPECT_EQ(info.recordCount, recs.size());

    FileTraceSource streamed(path);
    InstRecord r;
    size_t n = 0;
    while (streamed.next(r)) {
        ASSERT_TRUE(sameRec(r, recs[n])) << n;
        ++n;
    }
    EXPECT_EQ(n, recs.size());
    EXPECT_TRUE(streamed.reset());
    EXPECT_TRUE(streamed.next(r));
    EXPECT_TRUE(sameRec(r, recs[0]));
}

TEST(TraceV2Test, CompressesAtLeast3xAndIsDeterministic)
{
    TmpDir tmp;
    const auto recs = sampleRecords(50000);
    const std::string p1 = writeTraceV1(tmp, recs);
    const std::string pa = writeTrace(tmp, recs, "a.trace");
    const std::string pb = writeTrace(tmp, recs, "b.trace");
    EXPECT_GE(fs::file_size(p1), 3 * fs::file_size(pa))
        << "v2 must be >= 3x smaller than v1";
    EXPECT_EQ(fileBytes(pa), fileBytes(pb));
}

TEST(TraceV2Test, EmptyTraceRoundTrips)
{
    TmpDir tmp;
    const std::string path = writeTrace(tmp, {});
    const TraceFileInfo info = probeTraceFile(path);
    EXPECT_EQ(info.version, kTraceFormatV2);
    EXPECT_EQ(info.recordCount, 0u);
    FileTraceSource streamed(path);
    InstRecord r;
    EXPECT_FALSE(streamed.next(r));
}

TEST(TraceV2Test, ConvertUpgradesV1AndReencodesV2)
{
    TmpDir tmp;
    const auto recs = sampleRecords(20000);
    const std::string v1 = writeTraceV1(tmp, recs, "orig.trace");

    const TraceConvertStats up =
        convertTraceFile(v1, tmp.file("conv.trace"));
    EXPECT_EQ(up.srcVersion, kTraceFormatV1);
    EXPECT_EQ(up.records, recs.size());
    EXPECT_GE(up.srcBytes, 3 * up.dstBytes);
    EXPECT_EQ(probeTraceFile(tmp.file("conv.trace")).version,
              kTraceFormatV2);
    std::string why;
    EXPECT_TRUE(
        traceRecordsIdentical(v1, tmp.file("conv.trace"), why)) << why;

    // The upgrade equals a direct recording of the same records, and
    // re-encoding a v2 file reproduces it bit for bit.
    const std::string direct = writeTrace(tmp, recs, "direct.trace");
    EXPECT_EQ(fileBytes(tmp.file("conv.trace")), fileBytes(direct));
    const TraceConvertStats again =
        convertTraceFile(direct, tmp.file("again.trace"));
    EXPECT_EQ(again.srcVersion, kTraceFormatV2);
    EXPECT_EQ(fileBytes(tmp.file("again.trace")), fileBytes(direct));

    // Canonical records: writing the upgraded file's records back as
    // v1 reproduces the original file bit for bit.
    std::vector<InstRecord> back;
    FileTraceSource in(tmp.file("conv.trace"));
    InstRecord r;
    while (in.next(r))
        back.push_back(r);
    EXPECT_EQ(fileBytes(writeTraceV1(tmp, back, "back.trace")),
              fileBytes(v1));
}

TEST(TraceV2Test, ConvertReadsTheSourceToItsEndBeforeKeepingACopy)
{
    TmpDir tmp;
    // A padding byte of the last record, in the last of five v1
    // chunks: no field changes, so only the checksum at the end of
    // the payload can catch it.
    const auto recs = sampleRecords(5 * 4096);
    const std::string v1 = writeTraceV1(tmp, recs, "orig.trace");
    flipByte(v1,
             fs::file_size(v1) - sizeof(InstRecord) +
                 offsetof(InstRecord, dstReg) + sizeof(uint16_t),
             0x01);
    const std::string dst = tmp.file("conv.trace");
    expectReject([&] { convertTraceFile(v1, dst); },
                 "payload checksum mismatch");
    EXPECT_FALSE(fs::exists(dst));
    EXPECT_FALSE(fs::exists(dst + ".tmp"));

    // The comparison reads both files to the end, too.
    const std::string copy = writeTraceV1(tmp, recs, "copy.trace");
    std::string why;
    expectReject([&] { traceRecordsIdentical(copy, v1, why); },
                 "payload checksum mismatch");
}

TEST(TraceV2Test, FlippedColumnByteRejectsNamingTheColumn)
{
    TmpDir tmp;
    const auto recs = sampleRecords(3000);
    const std::string path = writeTrace(tmp, recs);

    // Read the first chunk's column lengths so the patch lands on the
    // register column's width byte (offset: 48-byte file header +
    // 32-byte chunk header + cls and pc streams).
    uint32_t colBytes[6] = {};
    {
        std::ifstream f(path, std::ios::binary);
        f.seekg(48 + 8);
        f.read(reinterpret_cast<char *>(colBytes), sizeof(colBytes));
        ASSERT_TRUE(f.good());
    }
    const uint8_t badWidth = 17;
    patchBytes(path, 48 + 32 + colBytes[0] + colBytes[1], &badWidth, 1);
    expectReject([&] { probeTraceFile(path); }, "column 'reg'");
}

TEST(TraceV2Test, FlippedPayloadBitsAndTruncationReject)
{
    TmpDir tmp;
    const auto recs = sampleRecords(3000);
    const std::string path = writeTrace(tmp, recs);
    const uint64_t full = fs::file_size(path);

    const std::string cut = tmp.file("cut.trace");
    fs::copy_file(path, cut, fs::copy_options::overwrite_existing);
    fs::resize_file(cut, full - 1);
    EXPECT_THROW(probeTraceFile(cut), TraceFileError);

    // A flipped byte anywhere in a column stream must reject — either
    // a column decode error or the payload checksum catches it.
    const uint8_t junk = 0xa5;
    patchBytes(path, full - 10, &junk, 1);
    EXPECT_THROW(probeTraceFile(path), TraceFileError);
}

// ----------------------------------------------------------------------
// Writer atomicity
// ----------------------------------------------------------------------

TEST(TraceFileTest, WriterIsAtomicTmpUntilClose)
{
    TmpDir tmp;
    const std::string path = tmp.file("a.trace");
    {
        TraceFileWriter w(path);
        w.append(test::alu(1));
        EXPECT_FALSE(fs::exists(path));
        EXPECT_TRUE(fs::exists(path + ".tmp"));
        w.close();
    }
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(probeTraceFile(path).recordCount, 1u);
}

TEST(TraceFileTest, AbandonedWriterLeavesNoFinalFile)
{
    TmpDir tmp;
    const std::string path = tmp.file("a.trace");
    {
        TraceFileWriter w(path);
        w.append(test::alu(1));
        // No close(): simulates a crash mid-recording.
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// ----------------------------------------------------------------------
// Rejection: corrupt, truncated, mismatched files
// ----------------------------------------------------------------------

TEST(TraceFileTest, RejectsMissingAndNonTraceFiles)
{
    TmpDir tmp;
    expectReject([&] { probeTraceFile(tmp.file("absent.trace")); },
                 "No such file or directory");
    std::ofstream(tmp.file("junk.trace")) << "this is not a trace";
    expectReject([&] { probeTraceFile(tmp.file("junk.trace")); },
                 "not a mica trace file");
    expectReject([&] { FileTraceSource s(tmp.file("junk.trace")); },
                 "not a mica trace file");
}

TEST(TraceFileTest, RejectsVersionAndLayoutMismatch)
{
    TmpDir tmp;
    const auto recs = sampleRecords(10);

    for (const bool v1 : {true, false}) {
        const std::string p1 = writeTraceAs(v1, tmp, recs, "v.trace");
        const uint32_t badVersion = kTraceFormatLatest + 1;
        patchBytes(p1, 8, &badVersion, sizeof(badVersion));
        expectReject([&] { probeTraceFile(p1); }, "version");

        const std::string p2 = writeTraceAs(v1, tmp, recs, "h.trace");
        const uint64_t badHash = kTraceLayoutHash ^ 1;
        patchBytes(p2, 16, &badHash, sizeof(badHash));
        expectReject([&] { probeTraceFile(p2); }, "layout mismatch");
    }
}

TEST(TraceFileTest, RejectsTruncationAnywhere)
{
    TmpDir tmp;
    const auto recs = sampleRecords(100);
    for (const std::string &path :
         {writeTraceV1(tmp, recs), writeTrace(tmp, recs)}) {
        const uint64_t full = fs::file_size(path);
        for (uint64_t keep : {uint64_t(0), uint64_t(7), uint64_t(47),
                              uint64_t(48), uint64_t(56), full - 1}) {
            const std::string cut = tmp.file("cut.trace");
            fs::copy_file(path, cut,
                          fs::copy_options::overwrite_existing);
            fs::resize_file(cut, keep);
            EXPECT_THROW(probeTraceFile(cut), TraceFileError) << keep;
            EXPECT_THROW(FileTraceSource s(cut), TraceFileError) << keep;
        }
    }
}

TEST(TraceFileTest, RejectsFlippedPayloadBits)
{
    TmpDir tmp;
    const auto recs = sampleRecords(100);
    const std::string path = writeTraceV1(tmp, recs);
    const uint8_t junk = 0xa5;
    patchBytes(path, 56 + 3, &junk, 1);     // inside the first record
    expectReject([&] { probeTraceFile(path); }, "checksum mismatch");
}

TEST(TraceFileTest, RejectsCorruptChunkHeaderAndCountMismatch)
{
    TmpDir tmp;
    const auto recs = sampleRecords(100);

    for (const bool v1 : {true, false}) {
        const std::string p1 = writeTraceAs(v1, tmp, recs, "cm.trace");
        const uint32_t badMagic = 0xdeadbeef;
        patchBytes(p1, 48, &badMagic, sizeof(badMagic));
        expectReject([&] { probeTraceFile(p1); }, "corrupt chunk header");

        const std::string p2 = writeTraceAs(v1, tmp, recs, "cc.trace");
        const uint64_t badCount = 99;
        patchBytes(p2, 24, &badCount, sizeof(badCount));
        expectReject([&] { probeTraceFile(p2); },
                     "record count mismatch");
    }
}

TEST(TraceFileTest, RejectsUnfinishedRecording)
{
    TmpDir tmp;
    for (const bool v1 : {true, false}) {
        const std::string path =
            writeTraceAs(v1, tmp, sampleRecords(10), "u.trace");
        const uint64_t unfinished = kTraceUnfinished;
        patchBytes(path, 24, &unfinished, sizeof(unfinished));
        expectReject([&] { probeTraceFile(path); },
                     "unfinished recording");
    }
}

// ----------------------------------------------------------------------
// RecordingSource
// ----------------------------------------------------------------------

TEST(RecordingSourceTest, TeesEveryConsumedRecordExactlyOnce)
{
    TmpDir tmp;
    const auto recs = sampleRecords(1000);
    const std::string path = tmp.file("tee.trace");
    {
        VectorTraceSource inner(recs);
        TraceFileWriter w(path);
        RecordingSource tee(inner, w);

        // Mixed consumption: next, nextBatch, nextSpan, then drain.
        InstRecord r;
        InstRecord buf[64];
        const InstRecord *span = nullptr;
        ASSERT_TRUE(tee.next(r));
        EXPECT_TRUE(sameRec(r, recs[0]));
        ASSERT_EQ(tee.nextBatch(buf, 10), 10u);
        ASSERT_EQ(tee.nextSpan(span, buf, 25), 25u);
        while (tee.next(r)) {
        }
        EXPECT_EQ(w.recordCount(), recs.size());
        w.close();
    }
    FileTraceSource replay(path);
    InstRecord r;
    size_t i = 0;
    while (replay.next(r)) {
        ASSERT_TRUE(sameRec(r, recs[i])) << i;
        ++i;
    }
    EXPECT_EQ(i, recs.size());
}

TEST(RecordingSourceTest, IsSinglePass)
{
    TmpDir tmp;
    VectorTraceSource inner(sampleRecords(10));
    TraceFileWriter w(tmp.file("x.trace"));
    RecordingSource tee(inner, w);
    InstRecord r;
    tee.next(r);
    EXPECT_FALSE(tee.reset());     // a rewind would re-record
    w.abort();
}

// ----------------------------------------------------------------------
// The prefix contract: next / nextBatch / nextSpan interleave onto
// one stream, same records, same order — for every source.
// ----------------------------------------------------------------------

/** Drain a source through a fixed mixed-call schedule. */
std::vector<InstRecord>
drainInterleaved(TraceSource &src, size_t cap)
{
    std::vector<InstRecord> out;
    InstRecord buf[97];
    const InstRecord *span = nullptr;
    int phase = 0;
    while (out.size() < cap) {
        size_t got = 0;
        switch (phase % 4) {
          case 0: {
            InstRecord r;
            if (src.next(r)) {
                out.push_back(r);
                got = 1;
            }
            break;
          }
          case 1:
            got = src.nextBatch(buf, 7);
            out.insert(out.end(), buf, buf + got);
            break;
          case 2:
            got = src.nextSpan(span, buf, 53);
            out.insert(out.end(), span, span + got);
            break;
          case 3:
            got = src.nextBatch(buf, 97);
            out.insert(out.end(), buf, buf + got);
            break;
        }
        if (got == 0 && phase % 4 == 0)
            break;      // next() said end-of-trace: done
        ++phase;
    }
    return out;
}

/** Drain a source via next() only. */
std::vector<InstRecord>
drainPlain(TraceSource &src, size_t cap)
{
    std::vector<InstRecord> out;
    InstRecord r;
    while (out.size() < cap && src.next(r))
        out.push_back(r);
    return out;
}

void
expectPrefixContract(TraceSource &a, TraceSource &b, size_t cap)
{
    const auto plain = drainPlain(a, cap);
    const auto mixed = drainInterleaved(b, cap);
    ASSERT_GE(mixed.size(), plain.size());
    ASSERT_GE(plain.size(), std::min<size_t>(cap, mixed.size()));
    const size_t n = std::min(plain.size(), mixed.size());
    for (size_t i = 0; i < n; ++i)
        ASSERT_TRUE(sameRec(plain[i], mixed[i])) << "record " << i;
}

TEST(PrefixContractTest, VectorSource)
{
    const auto recs = sampleRecords(2000);
    VectorTraceSource a(recs), b(recs);
    expectPrefixContract(a, b, recs.size());
}

TEST(PrefixContractTest, RandomSource)
{
    RandomTraceParams p;
    p.numInsts = 2000;
    p.seed = 11;
    RandomTraceSource a(p), b(p);
    expectPrefixContract(a, b, p.numInsts);
}

TEST(PrefixContractTest, Interpreter)
{
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "CommBench/tcp.tcp");
    ASSERT_NE(e, nullptr);
    const isa::Program prog = e->build();
    isa::Interpreter a(prog), b(prog);
    expectPrefixContract(a, b, 20000);
}

TEST(PrefixContractTest, FileSourceInBothFormats)
{
    TmpDir tmp;
    const auto recs =
        sampleRecords(TraceFileWriter::kChunkRecordsV2 + 321);
    const std::string v1 = writeTraceV1(tmp, recs);
    const std::string v2 = writeTrace(tmp, recs);

    FileTraceSource a1(v1), b1(v1);
    expectPrefixContract(a1, b1, recs.size());

    FileTraceSource a2(v2), b2(v2);
    expectPrefixContract(a2, b2, recs.size());

    // And across formats: both files observe the same stream.
    FileTraceSource c1(v1), c2(v2);
    expectPrefixContract(c1, c2, recs.size());
}

// ----------------------------------------------------------------------
// Text traces
// ----------------------------------------------------------------------

TEST(TextTraceTest, ParsesLenientlyWithDefaults)
{
    std::istringstream in(
        "# hand-made trace\n"
        "\n"
        "load pc=0x400000 addr=0x10000 size=4 dst=3 src=1:2\n"
        "ALU, dst=4, src=3\n"
        "branch taken=1 target=0x400000 bogus=field\n"
        "jmp\n"
        "st addr=64\n");
    const auto recs = parseTextTrace(in, "test");
    ASSERT_EQ(recs.size(), 5u);
    EXPECT_EQ(recs[0].cls, InstClass::Load);
    EXPECT_EQ(recs[0].memAddr, 0x10000u);
    EXPECT_EQ(recs[0].memSize, 4);
    EXPECT_EQ(recs[0].dstReg, 3);
    EXPECT_EQ(recs[0].numSrcRegs, 2);
    EXPECT_EQ(recs[0].srcRegs[0], 1);
    EXPECT_EQ(recs[0].srcRegs[1], 2);
    EXPECT_EQ(recs[1].cls, InstClass::IntAlu);    // commas, case
    EXPECT_EQ(recs[1].dstReg, 4);
    EXPECT_EQ(recs[2].cls, InstClass::Branch);
    EXPECT_TRUE(recs[2].taken);
    EXPECT_EQ(recs[2].target, 0x400000u);
    EXPECT_EQ(recs[3].cls, InstClass::Jump);
    EXPECT_TRUE(recs[3].taken);                   // unconditional default
    EXPECT_EQ(recs[4].cls, InstClass::Store);
    EXPECT_EQ(recs[4].memSize, 8);                // default access size
    // Sequential default PCs where none was given.
    EXPECT_EQ(recs[1].pc, 0x400000u + 4);
    EXPECT_EQ(recs[3].pc, 0x400000u + 12);
}

TEST(TextTraceTest, UnknownClassRejectsWithLineNumber)
{
    std::istringstream in("alu\nwizardry dst=1\n");
    expectReject([&] { parseTextTrace(in, "t.csv"); },
                 "line 2: unknown instruction class 'wizardry'");
}

TEST(TraceBenchmarksTest, EntrySourcesReadEveryFormat)
{
    TmpDir tmp;
    std::ofstream(tmp.file("hand.csv")) << "alu dst=1\nload addr=8\n";
    const auto recs = sampleRecords(3);
    // Registry order: CommBench, MiBench, then the "traces" suite.
    const auto entries = workloads::traceBenchmarksFromFiles(
        {tmp.file("hand.csv"),
         writeTraceV1(tmp, recs, "CommBench__tcp.tcp.trace"),
         writeTrace(tmp, recs, "MiBench__sha.large.trace")});
    ASSERT_EQ(entries.size(), 3u);
    InstRecord r;
    for (size_t i = 0; i < 2; ++i) {
        auto src = entries[i].source();
        ASSERT_TRUE(src->next(r));
        EXPECT_TRUE(sameRec(r, recs[0]));
    }
    auto text = entries[2].source();
    ASSERT_TRUE(text->next(r));
    EXPECT_EQ(r.cls, InstClass::IntAlu);
    ASSERT_TRUE(text->next(r));
    EXPECT_EQ(r.cls, InstClass::Load);
    EXPECT_FALSE(text->next(r));
}

// ----------------------------------------------------------------------
// Trace directories as benchmarks
// ----------------------------------------------------------------------

TEST(TraceBenchmarksTest, SurfacesNamesAndRegistryOrder)
{
    TmpDir tmp;
    // Deliberately created in anti-registry order; MiBench/sha.large
    // follows CommBench/tcp.tcp in Table I. Either format surfaces.
    writeTrace(tmp, sampleRecords(10), "MiBench__sha.large.trace");
    writeTraceV1(tmp, sampleRecords(10), "CommBench__tcp.tcp.trace");
    std::ofstream(tmp.file("zcustom.txt")) << "alu dst=1\n";
    std::ofstream(tmp.file("notes.md")) << "ignored\n";

    const auto entries = workloads::traceBenchmarks(tmp.dir);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].info.fullName(), "CommBench/tcp.tcp");
    EXPECT_EQ(entries[1].info.fullName(), "MiBench/sha.large");
    // Unknown names trail, in the synthetic "traces" suite.
    EXPECT_EQ(entries[2].info.suite, "traces");
    EXPECT_EQ(entries[2].info.program, "zcustom");

    // Factories open fresh sources positioned at the start.
    for (const auto &e : entries) {
        ASSERT_TRUE(static_cast<bool>(e.source));
        auto src = e.source();
        InstRecord r;
        EXPECT_TRUE(src->next(r));
    }
}

TEST(TraceBenchmarksTest, RejectsCorruptFilesAndMissingDirs)
{
    TmpDir tmp;
    EXPECT_THROW(workloads::traceBenchmarks(tmp.dir + "/nope"),
                 TraceFileError);
    std::ofstream(tmp.file("bad.trace")) << "garbage";
    EXPECT_THROW(workloads::traceBenchmarks(tmp.dir), TraceFileError);
}

TEST(TraceBenchmarksTest, RejectsBudgetBeyondTheRecording)
{
    TmpDir tmp;
    writeTraceV1(tmp, sampleRecords(500), "CommBench__tcp.tcp.trace");
    // Budget within (or at) the recorded length is fine; 0 means
    // "replay everything recorded".
    EXPECT_EQ(workloads::traceBenchmarks(tmp.dir, 500).size(), 1u);
    EXPECT_EQ(workloads::traceBenchmarks(tmp.dir, 0).size(), 1u);
    // Beyond it, replay would come up short of direct interpretation.
    expectReject([&] { workloads::traceBenchmarks(tmp.dir, 501); },
                 "silently diverge");
}

TEST(TraceBenchmarksTest, FindsOneBenchmarksFileAndReplaysIt)
{
    TmpDir tmp;
    // The stem round-trips through the name mapping traceBenchmarks
    // applies; a name without a suite is its own stem.
    EXPECT_EQ(workloads::traceStem("CommBench/tcp.tcp"),
              "CommBench__tcp.tcp");
    EXPECT_EQ(workloads::traceStem("zcustom"), "zcustom");

    writeTrace(tmp, sampleRecords(500), "CommBench__tcp.tcp.trace");
    const std::string found =
        workloads::findTraceFile(tmp.dir, "CommBench/tcp.tcp");
    EXPECT_EQ(found, tmp.file("CommBench__tcp.tcp.trace"));
    auto entries = workloads::traceBenchmarksFromFiles({found}, 500);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].info.fullName(), "CommBench/tcp.tcp");
    auto src = entries[0].source();
    InstRecord r;
    size_t n = 0;
    while (src->next(r))
        ++n;
    EXPECT_EQ(n, 500u);

    // A missing file is "", not an error; a budget beyond the
    // recording rejects as it does in a sweep.
    EXPECT_EQ(workloads::findTraceFile(tmp.dir, "MiBench/sha.large"), "");
    expectReject(
        [&] { workloads::traceBenchmarksFromFiles({found}, 501); },
        "silently diverge");

    // A stem with no suite lands in the "traces" suite, and only the
    // name the sweep gives it finds it.
    std::ofstream(tmp.file("zcustom.txt")) << "alu dst=1\nld addr=8\n";
    const std::string text =
        workloads::findTraceFile(tmp.dir, "traces/zcustom");
    EXPECT_EQ(text, tmp.file("zcustom.txt"));
    EXPECT_EQ(workloads::findTraceFile(tmp.dir, "zcustom"), "");
    entries = workloads::traceBenchmarksFromFiles({text}, 2);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].info.suite, "traces");
    EXPECT_EQ(entries[0].info.program, "zcustom");
    EXPECT_EQ(entries[0].info.input, "");
    // A text trace's budget guard runs where it is parsed: in its job.
    expectReject(
        [&] {
            workloads::traceBenchmarksFromFiles({text}, 3).front().source();
        },
        "silently diverge");

    // Every name a sweep of the directory reports finds its own file:
    // a stem with no input is named without a trailing dot, and a name
    // in the placeholder suite finds a bare stem as well as a
    // "traces__" one.
    std::ofstream(tmp.file("traces__y.txt")) << "alu dst=1\n";
    const auto swept = workloads::traceBenchmarks(tmp.dir);
    std::vector<std::string> names;
    for (const auto &e : swept)
        names.push_back(e.info.fullName());
    EXPECT_EQ(names, (std::vector<std::string>{
                         "CommBench/tcp.tcp", "traces/y", "traces/zcustom"}));
    const std::string files[] = {"CommBench__tcp.tcp.trace",
                                 "traces__y.txt", "zcustom.txt"};
    for (size_t i = 0; i < swept.size() && i < 3; ++i) {
        EXPECT_EQ(workloads::findTraceFile(tmp.dir, names[i]),
                  tmp.file(files[i]))
            << names[i];
    }
    EXPECT_EQ(workloads::findTraceFile(tmp.dir, "traces/zcustom."), "");

    // A stem ending in its dot has no input either, and still maps back.
    std::ofstream(tmp.file("w..txt")) << "alu dst=1\n";
    entries = workloads::traceBenchmarksFromFiles({tmp.file("w..txt")}, 0);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].info.fullName(), "traces/w.");
    EXPECT_EQ(workloads::findTraceFile(tmp.dir, "traces/w."),
              tmp.file("w..txt"));
}

TEST(TraceBenchmarksTest, RejectsDuplicateBenchmarkNames)
{
    TmpDir tmp;
    writeTraceV1(tmp, sampleRecords(10), "CommBench__tcp.tcp.trace");
    std::ofstream(tmp.file("CommBench__tcp.tcp.csv")) << "alu dst=1\n";
    expectReject([&] { workloads::traceBenchmarks(tmp.dir); },
                 "duplicate trace benchmark 'CommBench/tcp.tcp'");
    // The single-benchmark lookup obeys the sweep's rule: no format
    // wins, and the error names both files.
    expectReject(
        [&] { workloads::findTraceFile(tmp.dir, "CommBench/tcp.tcp"); },
        "duplicate trace benchmark 'CommBench/tcp.tcp' (" +
            tmp.file("CommBench__tcp.tcp.csv"));
    fs::remove(tmp.file("CommBench__tcp.tcp.csv"));
    EXPECT_EQ(workloads::findTraceFile(tmp.dir, "CommBench/tcp.tcp"),
              tmp.file("CommBench__tcp.tcp.trace"));

    // One stem at the root and in a subdirectory.
    fs::create_directories(tmp.file("sub"));
    writeTrace(tmp, sampleRecords(10), "sub/CommBench__tcp.tcp.trace");
    expectReject([&] { workloads::traceBenchmarks(tmp.dir); },
                 "duplicate trace benchmark 'CommBench/tcp.tcp'");
    expectReject(
        [&] { workloads::findTraceFile(tmp.dir, "CommBench/tcp.tcp"); },
        tmp.file("sub/CommBench__tcp.tcp.trace") +
            ": duplicate trace benchmark 'CommBench/tcp.tcp' (" +
            tmp.file("CommBench__tcp.tcp.trace"));

    // Two stems the sweep maps to one placeholder-suite name.
    std::ofstream(tmp.file("y.txt")) << "alu dst=1\n";
    std::ofstream(tmp.file("traces__y.txt")) << "alu dst=2\n";
    expectReject([&] { workloads::findTraceFile(tmp.dir, "traces/y"); },
                 "duplicate trace benchmark 'traces/y'");
}

TEST(TraceBenchmarksTest, WalksSubdirectoriesOfTheTree)
{
    TmpDir tmp;
    fs::create_directories(tmp.file("sub/deeper"));
    writeTrace(tmp, sampleRecords(10), "MiBench__sha.large.trace");
    writeTraceV1(tmp, sampleRecords(10), "sub/CommBench__tcp.tcp.trace");
    std::ofstream(tmp.file("sub/deeper/zcustom.txt")) << "alu dst=1\n";
    std::ofstream(tmp.file("sub/deeper/notes.md")) << "ignored\n";
    std::ofstream(tmp.file("sub/x.trace.tmp")) << "staging debris\n";
    // A profile store inside the tree, with the CSV exports older
    // builds wrote next to it: they are no traces.
    fs::create_directories(tmp.file("sub/cache"));
    std::ofstream(tmp.file("sub/cache/profiles.bin")) << "store\n";
    std::ofstream(tmp.file("sub/cache/mica_profiles.csv")) << "name\n";

    // One walk lists the tree, relative to its root and sorted.
    EXPECT_EQ(workloads::traceTreeFiles(tmp.dir),
              (std::vector<std::string>{"MiBench__sha.large.trace",
                                        "sub/CommBench__tcp.tcp.trace",
                                        "sub/deeper/zcustom.txt"}));

    // The sweep finds every nested file, in registry order.
    const auto entries = workloads::traceBenchmarks(tmp.dir);
    std::vector<std::string> names;
    for (const auto &e : entries)
        names.push_back(e.info.fullName());
    EXPECT_EQ(names, (std::vector<std::string>{"CommBench/tcp.tcp",
                                               "MiBench/sha.large",
                                               "traces/zcustom"}));

    // The single-benchmark lookup finds nested files too.
    EXPECT_EQ(workloads::findTraceFile(tmp.dir, "CommBench/tcp.tcp"),
              tmp.file("sub/CommBench__tcp.tcp.trace"));
    EXPECT_EQ(workloads::findTraceFile(tmp.dir, "traces/zcustom"),
              tmp.file("sub/deeper/zcustom.txt"));
    EXPECT_EQ(workloads::findTraceFile(tmp.dir + "/nope", "traces/zcustom"),
              "");

    // Two files in different directories that map to one name reject
    // the set, naming both files.
    writeTrace(tmp, sampleRecords(10), "sub/deeper/CommBench__tcp.tcp.trace");
    expectReject([&] { workloads::traceBenchmarks(tmp.dir); },
                 "duplicate trace benchmark 'CommBench/tcp.tcp'");
    expectReject([&] { workloads::traceBenchmarks(tmp.dir); },
                 "sub/CommBench__tcp.tcp.trace");
}

TEST(TraceBenchmarksTest, ContentIdFollowsTheBytesNotThePath)
{
    TmpDir tmp;
    fs::create_directories(tmp.file("a"));
    writeTraceV1(tmp, sampleRecords(100, 1), "a/CommBench__tcp.tcp.trace");
    writeTrace(tmp, sampleRecords(100, 3), "a/CommBench__frag.frag.trace");
    const std::string text = "alu dst=1\nld addr=8\n";
    std::ofstream(tmp.file("a/zcustom.txt")) << text;
    const auto ids = [&](const std::string &dir) {
        std::map<std::string, uint64_t> out;
        for (const auto &e : workloads::traceBenchmarks(tmp.file(dir)))
            out[e.info.fullName()] = e.contentId;
        return out;
    };
    const std::string tcp = "CommBench/tcp.tcp", frag = "CommBench/frag.frag";
    const auto first = ids("a");
    ASSERT_EQ(first.size(), 3u);
    EXPECT_NE(first.at(tcp), 0u);     // never a registry kernel's id
    EXPECT_NE(first.at(tcp), first.at(frag));
    EXPECT_EQ(first.at("traces/zcustom"), fnv1a(text.data(), text.size()));
    EXPECT_EQ(ids("a"), first);       // stable for unchanged contents

    // A copy elsewhere holds the same records under the same ids.
    fs::copy(tmp.file("a"), tmp.file("b"), fs::copy_options::recursive);
    EXPECT_EQ(ids("b"), first);

    // Re-recording one benchmark moves its id and no other.
    writeTraceV1(tmp, sampleRecords(100, 2), "a/CommBench__tcp.tcp.trace");
    auto after = ids("a");
    EXPECT_NE(after.at(tcp), first.at(tcp));
    after[tcp] = first.at(tcp);
    EXPECT_EQ(after, first);
}

// ----------------------------------------------------------------------
// The load-bearing contract: replayed profiles are byte-identical to
// interpreting the program directly, for every analyzer, at any
// batch path, from either format.
// ----------------------------------------------------------------------

void
expectProfilesIdentical(const MicaProfile &a, const MicaProfile &b)
{
    EXPECT_EQ(a.instCount, b.instCount);
    for (size_t i = 0; i < kNumMicaChars; ++i)
        EXPECT_EQ(a.values[i], b.values[i]) << "characteristic " << i;
}

TEST(TraceReplayTest, ReplayedProfilesMatchInterpreterBitForBit)
{
    TmpDir tmp;
    MicaRunnerConfig rc;
    rc.maxInsts = 30000;
    for (const char *name : {"CommBench/tcp.tcp", "MiBench/sha.large",
                             "SPEC2000/gzip.log"}) {
        const auto *e =
            workloads::BenchmarkRegistry::instance().find(name);
        ASSERT_NE(e, nullptr) << name;
        const isa::Program prog = e->build();

        // Record under the same budget the profiling run uses: v2
        // through the library writer, v1 through the test-only one.
        const std::string v2 = tmp.file("r.trace");
        std::vector<InstRecord> recs;
        {
            isa::Interpreter interp(prog);
            TraceFileWriter w(v2);
            RecordingSource tee(interp, w);
            std::vector<InstRecord> buf(1024);
            const InstRecord *span = nullptr;
            size_t got;
            while (recs.size() < rc.maxInsts &&
                   (got = tee.nextSpan(
                        span, buf.data(),
                        std::min<uint64_t>(buf.size(),
                                           rc.maxInsts - recs.size()))) !=
                       0)
                recs.insert(recs.end(), span, span + got);
            w.close();
        }
        const std::string v1 = writeTraceV1(tmp, recs, "r1.trace");

        isa::Interpreter direct(prog);
        const MicaProfile ref = collectMicaProfile(direct, name, rc);
        direct.reset();
        const auto hpcRef =
            uarch::collectHwProfile(direct, name, rc.maxInsts);

        for (const std::string &path : {v1, v2}) {
            FileTraceSource src(path);
            expectProfilesIdentical(collectMicaProfile(src, name, rc),
                                    ref);

            // The per-record reference engine path sees the same
            // stream.
            MicaRunnerConfig perRecord = rc;
            perRecord.engineBatch = 0;
            ASSERT_TRUE(src.reset());
            expectProfilesIdentical(
                collectMicaProfile(src, name, perRecord), ref);

            // And the HPC characterization.
            ASSERT_TRUE(src.reset());
            const auto hpcReplay =
                uarch::collectHwProfile(src, name, rc.maxInsts);
            const auto va = hpcRef.toVector(), vb = hpcReplay.toVector();
            ASSERT_EQ(va.size(), vb.size());
            for (size_t i = 0; i < va.size(); ++i)
                EXPECT_EQ(va[i], vb[i]) << path << " hpc metric " << i;
        }
    }
}

TEST(TraceReplayTest, DatasetFromTracesMatchesDirectAndIsJobsInvariant)
{
    TmpDir tmp;
    const std::string traceDir = tmp.dir + "/traces";
    const uint64_t budget = 20000;

    // Record two registry benchmarks the way `mica trace record` does.
    for (const char *name : {"CommBench/tcp.tcp", "CommBench/frag.frag"}) {
        const auto *e =
            workloads::BenchmarkRegistry::instance().find(name);
        ASSERT_NE(e, nullptr);
        std::string stem = name;
        stem.replace(stem.find('/'), 1, "__");
        const isa::Program prog = e->build();
        isa::Interpreter interp(prog);
        TraceFileWriter w(traceDir + "/" + stem + ".trace");
        RecordingSource tee(interp, w);
        std::vector<InstRecord> buf(1024);
        uint64_t n = 0;
        const InstRecord *span = nullptr;
        size_t got;
        while (n < budget &&
               (got = tee.nextSpan(span, buf.data(),
                                   std::min<uint64_t>(
                                       buf.size(), budget - n))) != 0)
            n += got;
        w.close();
    }

    experiments::DatasetConfig direct;
    direct.maxInsts = budget;
    direct.suites = {"CommBench"};
    auto directDs = experiments::collectSuiteDataset(direct);

    experiments::DatasetConfig replay;
    replay.maxInsts = budget;
    replay.traceDir = traceDir;
    auto replayDs = experiments::collectSuiteDataset(replay);

    ASSERT_EQ(replayDs.benchmarks.size(), 2u);
    for (size_t r = 0; r < replayDs.benchmarks.size(); ++r) {
        const size_t d =
            directDs.indexOf(replayDs.benchmarks[r].fullName());
        ASSERT_NE(d, static_cast<size_t>(-1));
        expectProfilesIdentical(replayDs.micaProfiles[r],
                                directDs.micaProfiles[d]);
    }

    // jobs=8 replays the identical dataset.
    experiments::DatasetConfig replay8 = replay;
    replay8.jobs = 8;
    auto replay8Ds = experiments::collectSuiteDataset(replay8);
    ASSERT_EQ(replay8Ds.benchmarks.size(), replayDs.benchmarks.size());
    for (size_t r = 0; r < replayDs.benchmarks.size(); ++r) {
        expectProfilesIdentical(replay8Ds.micaProfiles[r],
                                replayDs.micaProfiles[r]);
        const auto va = replayDs.hpcProfiles[r].toVector();
        const auto vb = replay8Ds.hpcProfiles[r].toVector();
        for (size_t i = 0; i < va.size(); ++i)
            EXPECT_EQ(va[i], vb[i]);
    }
}

TEST(TraceReplayTest, V1CommBenchReplayMatchesDirectAtJobs1And8)
{
    TmpDir tmp;
    const std::string traceDir = tmp.dir + "/v1";
    const uint64_t budget = 20000;
    fs::create_directories(traceDir);
    const auto &reg = workloads::BenchmarkRegistry::instance();
    const auto comm = reg.bySuite("CommBench");
    ASSERT_EQ(comm.size(), 12u);
    for (const auto *e : comm) {
        const isa::Program prog = e->build();
        isa::Interpreter interp(prog);
        std::vector<InstRecord> recs;
        InstRecord r;
        while (recs.size() < budget && interp.next(r))
            recs.push_back(r);
        test::writeTraceV1(traceDir + "/" +
                               workloads::traceStem(e->info.fullName()) +
                               ".trace",
                           recs);
    }

    // The CSVs `mica profile all` / `mica hpc all --csv` would write.
    const auto csvs = [&](const experiments::DatasetConfig &cfg,
                          const std::string &tag) {
        const auto ds = experiments::collectSuiteDataset(cfg);
        EXPECT_TRUE(ds.failures.empty()) << tag;
        saveProfilesCsv(tmp.file(tag + ".mica.csv"), ds.micaProfiles);
        saveMatrixCsv(tmp.file(tag + ".hpc.csv"), ds.hpcMatrix());
        return std::make_pair(fileBytes(tmp.file(tag + ".mica.csv")),
                              fileBytes(tmp.file(tag + ".hpc.csv")));
    };
    experiments::DatasetConfig direct;
    direct.maxInsts = budget;
    direct.suites = {"CommBench"};
    const auto want = csvs(direct, "direct");
    ASSERT_FALSE(want.first.empty());

    for (const unsigned jobs : {1u, 8u}) {
        experiments::DatasetConfig replay;
        replay.maxInsts = budget;
        replay.traceDir = traceDir;
        replay.jobs = jobs;
        const auto got = csvs(replay, "replay" + std::to_string(jobs));
        EXPECT_EQ(got.first, want.first) << "MICA at jobs=" << jobs;
        EXPECT_EQ(got.second, want.second) << "HPC at jobs=" << jobs;
    }
}

TEST(TraceReplayTest, ReRecordedTraceInvalidatesTheProfileStore)
{
    TmpDir tmp;
    const std::string traceDir = tmp.dir + "/traces";
    const std::string cacheDir = tmp.dir + "/cache";
    const auto *e = workloads::BenchmarkRegistry::instance().find(
        "CommBench/tcp.tcp");
    ASSERT_NE(e, nullptr);
    const isa::Program prog = e->build();

    auto record = [&](uint64_t budget) {
        isa::Interpreter interp(prog);
        TraceFileWriter w(traceDir + "/CommBench__tcp.tcp.trace");
        RecordingSource tee(interp, w);
        std::vector<InstRecord> buf(1024);
        uint64_t n = 0;
        const InstRecord *span = nullptr;
        size_t got;
        while (n < budget &&
               (got = tee.nextSpan(span, buf.data(),
                                   std::min<uint64_t>(
                                       buf.size(), budget - n))) != 0)
            n += got;
        w.close();
    };

    experiments::DatasetConfig cfg;
    cfg.traceDir = traceDir;
    cfg.cacheDir = cacheDir;    // budget 0: replay whatever is there

    record(15000);
    const auto first = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(first.micaProfiles.size(), 1u);
    EXPECT_EQ(first.micaProfiles[0].instCount, 15000u);

    // Same directory, same config — but the trace bytes changed. The
    // content-keyed store must re-profile, not serve the stale 15000-
    // record profile.
    record(18000);
    const auto second = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(second.micaProfiles.size(), 1u);
    EXPECT_EQ(second.micaProfiles[0].instCount, 18000u);
}

TEST(TraceReplayTest, UnknownSuiteFilterRejectsInsteadOfEmptyDataset)
{
    experiments::DatasetConfig cfg;
    cfg.maxInsts = 1000;
    cfg.suites = {"CommBnech"};     // typo'd suite
    EXPECT_THROW(experiments::collectSuiteDataset(cfg),
                 std::invalid_argument);
}

/** Interpret @p records of registry benchmark @p name into @p path. */
void
recordBenchmark(const std::string &name, const std::string &path,
                uint64_t records)
{
    const auto *e = workloads::BenchmarkRegistry::instance().find(name);
    ASSERT_NE(e, nullptr) << name;
    const isa::Program prog = e->build();
    isa::Interpreter interp(prog);
    std::vector<InstRecord> recs;
    InstRecord r;
    while (recs.size() < records && interp.next(r))
        recs.push_back(r);
    fs::create_directories(fs::path(path).parent_path());
    TraceFileWriter w(path);
    w.append(recs.data(), recs.size());
    w.close();
}

/** A tree of three CommBench traces, one of them in a subdirectory. */
const char *const kTreeFiles[][2] = {
    {"CommBench/tcp.tcp", "CommBench__tcp.tcp.trace"},
    {"CommBench/frag.frag", "CommBench__frag.frag.trace"},
    {"CommBench/drr.drr", "sub/CommBench__drr.drr.trace"},
};

/**
 * @return a store-backed trace-tree config whose progress hook counts
 * the benchmarks it profiles into @p profiled.
 */
experiments::DatasetConfig
treeConfig(const std::string &tree, const std::string &cache,
           size_t *profiled)
{
    experiments::DatasetConfig cfg;
    cfg.maxInsts = 5000;
    cfg.traceDir = tree;
    cfg.cacheDir = cache;
    cfg.progress = [profiled](size_t, size_t, const std::string &) {
        ++*profiled;
    };
    return cfg;
}

TEST(TraceReplayTest, RewritingOneTraceRecomputesOnlyIt)
{
    TmpDir tmp;
    for (const auto &f : kTreeFiles)
        recordBenchmark(f[0], tmp.file("tree/") + f[1], 6000);
    size_t profiled = 0;
    const auto cfg =
        treeConfig(tmp.file("tree"), tmp.file("cache"), &profiled);
    const auto first = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(first.benchmarks.size(), 3u);
    EXPECT_EQ(profiled, 3u);

    // Longer recordings replay the same first 5000 records, but they
    // are other bytes: only the rewritten file is profiled again.
    profiled = 0;
    recordBenchmark("CommBench/drr.drr",
                    tmp.file("tree/sub/CommBench__drr.drr.trace"), 7000);
    const auto second = experiments::collectSuiteDataset(cfg);
    EXPECT_EQ(profiled, 1u);
    ASSERT_EQ(second.benchmarks.size(), 3u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(second.micaProfiles[i].values,
                  first.micaProfiles[i].values);
    profiled = 0;
    experiments::collectSuiteDataset(cfg);
    EXPECT_EQ(profiled, 0u);
}

TEST(TraceReplayTest, MovedTreeHitsTheStore)
{
    TmpDir tmp;
    for (const auto &f : kTreeFiles)
        recordBenchmark(f[0], tmp.file("tree/") + f[1], 6000);
    size_t profiled = 0;
    experiments::collectSuiteDataset(
        treeConfig(tmp.file("tree"), tmp.file("cache"), &profiled));
    EXPECT_EQ(profiled, 3u);

    profiled = 0;
    fs::rename(tmp.file("tree"), tmp.file("moved"));
    const auto moved = experiments::collectSuiteDataset(
        treeConfig(tmp.file("moved"), tmp.file("cache"), &profiled));
    EXPECT_EQ(profiled, 0u);
    EXPECT_EQ(moved.benchmarks.size(), 3u);
}

TEST(TraceReplayTest, QuarantinedTraceAloneIsProfiledOnceMended)
{
    TmpDir tmp;
    for (const auto &f : kTreeFiles)
        recordBenchmark(f[0], tmp.file("tree/") + f[1], 6000);
    const std::string path = tmp.file("tree/sub/CommBench__drr.drr.trace");
    const std::string good = fileBytes(path);
    std::string damaged = good;
    damaged.replace(100, 2, "XX");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << damaged;

    // The damaged trace's job rejects it as it decodes; the rest of
    // the tree is profiled and stored.
    size_t profiled = 0;
    const auto cfg =
        treeConfig(tmp.file("tree"), tmp.file("cache"), &profiled);
    const auto first = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(first.failures.size(), 1u);
    EXPECT_EQ(first.failures[0].bench, "CommBench/drr.drr");
    EXPECT_EQ(first.failures[0].phase, "profile");
    EXPECT_EQ(first.benchmarks.size(), 2u);
    EXPECT_EQ(profiled, 2u);

    // Once mended, it alone is profiled; the others come from the store.
    profiled = 0;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << good;
    const auto second = experiments::collectSuiteDataset(cfg);
    EXPECT_TRUE(second.failures.empty());
    EXPECT_EQ(second.benchmarks.size(), 3u);
    EXPECT_EQ(profiled, 1u);
}

TEST(TraceReplayTest, TraceAndRegistryEntriesNeverServeEachOther)
{
    TmpDir tmp;
    for (const auto &f : kTreeFiles)
        recordBenchmark(f[0], tmp.file("tree/") + f[1], 6000);
    size_t profiled = 0;
    const auto traced =
        treeConfig(tmp.file("tree"), tmp.file("cache"), &profiled);
    experiments::collectSuiteDataset(traced);
    EXPECT_EQ(profiled, 3u);

    // Same names, same budget, same store: a registry run profiles
    // all twelve kernels (the trace entries hold other records as far
    // as the store knows) and replaces the three trace entries...
    profiled = 0;
    auto registry = traced;
    registry.traceDir.clear();
    registry.suites = {"CommBench"};
    experiments::collectSuiteDataset(registry);
    EXPECT_EQ(profiled, 12u);

    // ...which in turn serve no trace replay.
    profiled = 0;
    experiments::collectSuiteDataset(traced);
    EXPECT_EQ(profiled, 3u);
    profiled = 0;
    experiments::collectSuiteDataset(registry);
    EXPECT_EQ(profiled, 3u);
}

// ----------------------------------------------------------------------
// One pass over a trace: the scan reads headers, and each job checks
// every byte it decodes — also past its budget — before it returns.
// ----------------------------------------------------------------------

/**
 * @return the file offset of the pc column of the v2 chunk at file
 * offset @p chunk; @p next receives the offset of the chunk after it.
 * XOR-ing 0x02 into a pc column's first byte leaves a stream that
 * still decodes, so only the payload checksum can catch it.
 */
uint64_t
pcColumnAt(const std::string &path, uint64_t chunk, uint64_t *next = nullptr)
{
    uint32_t colBytes[6] = {};
    std::ifstream f(path, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(chunk + 8));
    f.read(reinterpret_cast<char *>(colBytes), sizeof(colBytes));
    EXPECT_TRUE(f.good());
    uint64_t body = 0;
    for (uint32_t b : colBytes)
        body += b;
    if (next)
        *next = chunk + 32 + body;
    return chunk + 32 + colBytes[0];
}

TEST(TraceReplayTest, DamagedPayloadsPassTheScanAndFailTheirJobs)
{
    TmpDir tmp;
    for (const auto &f : kTreeFiles)
        recordBenchmark(f[0], tmp.file("tree/") + f[1], 6000);
    // Headers intact: a pc byte that still decodes, and a class byte
    // ('X') the decoder rejects.
    const std::string tcp = tmp.file("tree/CommBench__tcp.tcp.trace");
    flipByte(tcp, pcColumnAt(tcp, 48), 0x02);
    const uint8_t badCls = 'X';
    patchBytes(tmp.file("tree/sub/CommBench__drr.drr.trace"), 80, &badCls,
               1);

    std::vector<std::pair<std::string, std::string>> bad;
    EXPECT_EQ(
        workloads::traceBenchmarks(tmp.file("tree"), 5000, &bad).size(),
        3u);
    EXPECT_TRUE(bad.empty());

    std::vector<experiments::SuiteDataset> runs;
    for (const unsigned jobs : {1u, 4u}) {
        experiments::DatasetConfig cfg;
        cfg.maxInsts = 5000;
        cfg.traceDir = tmp.file("tree");
        cfg.jobs = jobs;
        runs.push_back(experiments::collectSuiteDataset(cfg));
    }
    for (const auto &ds : runs) {
        ASSERT_EQ(ds.failures.size(), 2u);
        EXPECT_EQ(ds.failures[0].bench, "CommBench/drr.drr");
        EXPECT_EQ(ds.failures[1].bench, "CommBench/tcp.tcp");
        for (const auto &f : ds.failures)
            EXPECT_EQ(f.phase, "profile") << f.bench;
        EXPECT_NE(ds.failures[0].error.find("corrupt column 'cls'"),
                  std::string::npos)
            << ds.failures[0].error;
        EXPECT_NE(ds.failures[1].error.find("payload checksum mismatch"),
                  std::string::npos)
            << ds.failures[1].error;
        ASSERT_EQ(ds.benchmarks.size(), 1u);
        EXPECT_EQ(ds.benchmarks[0].fullName(), "CommBench/frag.frag");
    }
    const auto &a = runs[0], &b = runs[1];
    for (size_t i = 0; i < a.failures.size(); ++i)
        EXPECT_EQ(a.failures[i].error, b.failures[i].error);
    ASSERT_EQ(a.micaProfiles.size(), b.micaProfiles.size());
    for (size_t i = 0; i < a.micaProfiles.size(); ++i) {
        expectProfilesIdentical(a.micaProfiles[i], b.micaProfiles[i]);
        EXPECT_EQ(a.hpcProfiles[i].toVector(), b.hpcProfiles[i].toVector());
    }
}

TEST(TraceReplayTest, BudgetBelowTheRecordingStillChecksEveryByte)
{
    TmpDir tmp;
    const std::string name = "CommBench/tcp.tcp";
    const std::string dir = tmp.file("d");
    const std::string path = dir + "/CommBench__tcp.tcp.trace";
    recordBenchmark(name, path, 40000);
    const std::string good = fileBytes(path);
    // Chunks of 16384, 16384 and 7232 records: the first pc column is
    // inside the budget's 20000 records, the last chunk's beyond it.
    uint64_t second = 0, third = 0;
    const uint64_t first = pcColumnAt(path, 48, &second);
    pcColumnAt(path, second, &third);
    ASSERT_LT(third, good.size());
    const uint64_t last = pcColumnAt(path, third);

    MicaRunnerConfig rc;
    rc.maxInsts = 20000;
    // What `mica profile NAME --traces=DIR` opens.
    const auto single = [&] {
        return workloads::traceBenchmarksFromFiles(
                   {workloads::findTraceFile(dir, name)}, rc.maxInsts)
            .front()
            .source();
    };
    for (const uint64_t at : {first, last}) {
        SCOPED_TRACE(at);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << good;
        flipByte(path, at, 0x02);

        experiments::DatasetConfig cfg;
        cfg.maxInsts = rc.maxInsts;
        cfg.traceDir = dir;
        const auto ds = experiments::collectSuiteDataset(cfg);
        ASSERT_EQ(ds.failures.size(), 1u);
        EXPECT_EQ(ds.failures[0].bench, name);
        EXPECT_EQ(ds.failures[0].phase, "profile");
        EXPECT_NE(ds.failures[0].error.find("payload checksum mismatch"),
                  std::string::npos)
            << ds.failures[0].error;
        EXPECT_TRUE(ds.benchmarks.empty());

        expectReject([&] { collectMicaProfile(*single(), name, rc); },
                     "payload checksum mismatch");
        expectReject(
            [&] { uarch::collectHwProfile(*single(), name, rc.maxInsts); },
            "payload checksum mismatch");
    }
}

TEST(TraceReplayTest, WarmStoreServesPayloadsDamagedAfterProfiling)
{
    TmpDir tmp;
    for (const auto &f : kTreeFiles)
        recordBenchmark(f[0], tmp.file("tree/") + f[1], 6000);
    size_t profiled = 0;
    const auto cfg =
        treeConfig(tmp.file("tree"), tmp.file("cache"), &profiled);
    const auto cold = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(profiled, 3u);

    // A hit is served from the header's content id; its payload is
    // not read, so damage behind an intact header goes unseen here
    // (`mica trace ls` is the tool that checks a tree).
    for (const auto &f : kTreeFiles)
        flipByte(tmp.file("tree/") + f[1], 100, 0xff);
    profiled = 0;
    const auto warm = experiments::collectSuiteDataset(cfg);
    EXPECT_EQ(profiled, 0u);
    EXPECT_TRUE(warm.failures.empty());
    ASSERT_EQ(warm.benchmarks.size(), 3u);
    for (size_t i = 0; i < 3; ++i)
        expectProfilesIdentical(warm.micaProfiles[i], cold.micaProfiles[i]);
}

TEST(TraceReplayTest, FileReRecordedAfterTheScanRejects)
{
    TmpDir tmp;
    const std::string one = tmp.file("d/CommBench__tcp.tcp.trace");
    recordBenchmark("CommBench/tcp.tcp", one, 6000);
    const auto entries = workloads::traceBenchmarks(tmp.file("d"), 5000);
    ASSERT_EQ(entries.size(), 1u);
    recordBenchmark("CommBench/tcp.tcp", one, 7000);
    expectReject([&] { entries[0].source(); },
                 "file changed since it was scanned");

    // In a sweep, files re-recorded while the first job ran fail their
    // own jobs, and no store entry holds their new records under the
    // old ids: the rerun profiles every new recording in full.
    for (const auto &f : kTreeFiles)
        recordBenchmark(f[0], tmp.file("tree/") + f[1], 6000);
    size_t profiled = 0;
    auto cfg = treeConfig(tmp.file("tree"), tmp.file("cache"), &profiled);
    cfg.maxInsts = 0;
    cfg.progress = [&](size_t done, size_t, const std::string &) {
        if (done == 1) {
            for (const auto &f : kTreeFiles)
                recordBenchmark(f[0], tmp.file("tree/") + f[1], 7000);
        }
    };
    const auto first = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(first.failures.size(), 2u);
    for (const auto &f : first.failures) {
        EXPECT_EQ(f.phase, "profile");
        EXPECT_NE(f.error.find("file changed since it was scanned"),
                  std::string::npos)
            << f.error;
    }
    ASSERT_EQ(first.micaProfiles.size(), 1u);
    EXPECT_EQ(first.micaProfiles[0].instCount, 6000u);

    cfg.progress = [&](size_t, size_t, const std::string &) { ++profiled; };
    const auto second = experiments::collectSuiteDataset(cfg);
    EXPECT_TRUE(second.failures.empty());
    EXPECT_EQ(profiled, 3u);
    ASSERT_EQ(second.micaProfiles.size(), 3u);
    for (const auto &p : second.micaProfiles)
        EXPECT_EQ(p.instCount, 7000u) << p.name;
}

TEST(TraceReplayTest, TextTraceRewrittenAfterTheScanRejects)
{
    TmpDir tmp;
    const std::string two = "alu dst=1\nld addr=8\n";
    const std::string four = two + "alu dst=2\nst addr=16\n";
    fs::create_directories(tmp.file("d"));
    std::ofstream(tmp.file("d/zcustom.txt")) << two;
    const auto entries = workloads::traceBenchmarks(tmp.file("d"));
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].contentId, fnv1a(two.data(), two.size()));
    std::ofstream(tmp.file("d/zcustom.txt")) << four;
    expectReject([&] { entries[0].source(); },
                 "file changed since it was scanned");

    // In a sweep, a text trace rewritten after the scan fails its own
    // job, and the store files no records under the old id.
    std::ofstream(tmp.file("d/a.txt")) << two;
    std::ofstream(tmp.file("d/zcustom.txt")) << two;
    size_t profiled = 0;
    auto cfg = treeConfig(tmp.file("d"), tmp.file("cache"), &profiled);
    cfg.maxInsts = 0;
    cfg.progress = [&](size_t done, size_t, const std::string &) {
        if (done == 1)
            std::ofstream(tmp.file("d/zcustom.txt")) << four;
    };
    const auto first = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(first.failures.size(), 1u);
    EXPECT_EQ(first.failures[0].phase, "profile");
    EXPECT_EQ(first.failures[0].bench, "traces/zcustom");
    EXPECT_NE(first.failures[0].error.find("file changed since it was "
                                           "scanned"),
              std::string::npos)
        << first.failures[0].error;

    cfg.progress = [&](size_t, size_t, const std::string &) { ++profiled; };
    const auto second = experiments::collectSuiteDataset(cfg);
    EXPECT_TRUE(second.failures.empty());
    EXPECT_EQ(profiled, 1u);
    ASSERT_EQ(second.micaProfiles.size(), 2u);
    EXPECT_EQ(second.micaProfiles[1].instCount, 4u);
}

TEST(TraceReplayTest, TextTraceBudgetGuardRunsInItsJob)
{
    TmpDir tmp;
    const std::string two = "alu dst=1\nld addr=8\n";
    fs::create_directories(tmp.file("d"));
    std::ofstream(tmp.file("d/zcustom.txt")) << two;
    size_t profiled = 0;
    auto cfg = treeConfig(tmp.file("d"), tmp.file("cache"), &profiled);
    cfg.maxInsts = 1000;

    // Cold: the scan only hashes the bytes; the job parses two records
    // and rejects them under the budget.
    const auto cold = experiments::collectSuiteDataset(cfg);
    ASSERT_EQ(cold.failures.size(), 1u);
    EXPECT_EQ(cold.failures[0].phase, "profile");
    EXPECT_EQ(cold.failures[0].bench, "traces/zcustom");
    EXPECT_NE(cold.failures[0].error.find("silently diverge"),
              std::string::npos)
        << cold.failures[0].error;

    // Warm: an entry stored under this budget and the file's id is a
    // hit, so the file is never parsed and nothing is quarantined.
    pipeline::StoreKey key;
    key.maxInsts = cfg.maxInsts;
    pipeline::ProfileStore store(tmp.file("cache"), key);
    store.open();
    pipeline::StoredProfile stored;
    stored.mica.name = stored.hpc.name = "traces/zcustom";
    stored.id = fnv1a(two.data(), two.size());
    store.put(stored);
    profiled = 0;
    const auto warm = experiments::collectSuiteDataset(cfg);
    EXPECT_EQ(profiled, 0u);
    EXPECT_TRUE(warm.failures.empty());
    ASSERT_EQ(warm.benchmarks.size(), 1u);
    EXPECT_EQ(warm.benchmarks[0].fullName(), "traces/zcustom");
}

/** Recompute a one-chunk v1 file's payload checksum after a patch. */
void
resealV1(const std::string &path)
{
    const std::string b = fileBytes(path);
    uint64_t h = fnv1a(b.data() + 48, 4);
    h = fnv1a(b.data() + 52, 4, h);
    h = fnv1a(b.data() + 56, b.size() - 56, h);
    patchBytes(path, 40, &h, sizeof(h));
}

TEST(TraceFileTest, V1RecordOutOfRangeRejectsBeforeAnyAnalyzer)
{
    TmpDir tmp;
    // Record 50 of a 100-record v1 file whose checksum is correct:
    // each field alone, then all three. The analyzers index tables
    // with the class and the source count, so the reader must reject
    // the chunk before handing out any of its records.
    struct Case
    {
        int cls, srcs, taken;
        const char *what;
    };
    const Case cases[] = {
        {200, -1, -1, "class 200"},
        {-1, 4, -1, "4 source registers"},
        {-1, -1, 2, "taken byte 2"},
        {200, 250, 7, "(class 200, 250 source registers, taken byte 7)"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        auto recs = sampleRecords(100);
        if (c.cls >= 0)
            recs[50].cls = static_cast<InstClass>(c.cls);
        if (c.srcs >= 0)
            recs[50].numSrcRegs = static_cast<uint8_t>(c.srcs);
        const std::string path = writeTraceV1(tmp, recs, "evil.trace");
        if (c.taken >= 0) {
            const uint8_t taken = static_cast<uint8_t>(c.taken);
            patchBytes(path,
                       48 + 8 + 50 * sizeof(InstRecord) +
                           offsetof(InstRecord, taken),
                       &taken, 1);
            resealV1(path);
        }
        expectReject([&] { probeTraceFile(path); }, "corrupt record 50 (");
        expectReject([&] { probeTraceFile(path); }, c.what);
        FileTraceSource src(path);
        MicaRunnerConfig rc;
        uarch::HwCounterAnalyzer hw;
        expectReject(
            [&] { collectMicaProfile(src, "traces/evil", rc, {&hw}); },
            "corrupt record 50 (");

        experiments::DatasetConfig cfg;
        cfg.traceDir = tmp.dir;
        const auto ds = experiments::collectSuiteDataset(cfg);
        ASSERT_EQ(ds.failures.size(), 1u);
        EXPECT_EQ(ds.failures[0].bench, "traces/evil");
        EXPECT_EQ(ds.failures[0].phase, "profile");
    }
}

} // namespace
} // namespace mica
