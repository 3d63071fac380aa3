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

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
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
        auto src = openTraceFile(writeTraceAs(v1, tmp, recs, "s.trace"));
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
    // A count rewritten after the open-time probe must be bounded
    // before it sizes the chunk buffer (~206 GB for 0xFFFFFFFF v1
    // records), in either format.
    for (const std::string &path :
         {writeTraceV1(tmp, recs), writeTrace(tmp, recs)}) {
        FileTraceSource src(path);
        const uint32_t huge = 0xFFFFFFFFu;
        patchBytes(path, 48 + 4, &huge, sizeof(huge));
        InstRecord r;
        expectReject([&] { src.next(r); },
                     "chunk header changed after open");
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
    EXPECT_EQ(info.chunkCount, 3u);

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

TEST(TextTraceTest, OpenTraceFileDispatchesOnExtension)
{
    TmpDir tmp;
    std::ofstream(tmp.file("hand.csv")) << "alu dst=1\nload addr=8\n";
    auto text = openTraceFile(tmp.file("hand.csv"));
    InstRecord r;
    ASSERT_TRUE(text->next(r));
    EXPECT_EQ(r.cls, InstClass::IntAlu);

    const auto recs = sampleRecords(3);
    for (const std::string &bin :
         {writeTraceV1(tmp, recs), writeTrace(tmp, recs)}) {
        auto src = openTraceFile(bin);
        ASSERT_TRUE(src->next(r));
        EXPECT_TRUE(sameRec(r, recs[0]));
    }
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

    // .trace wins over .csv for the same stem.
    writeTrace(tmp, sampleRecords(500), "CommBench__tcp.tcp.trace");
    std::ofstream(tmp.file("CommBench__tcp.tcp.csv")) << "alu dst=1\n";
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

    // A stem with no suite lands in the "traces" suite.
    std::ofstream(tmp.file("zcustom.txt")) << "alu dst=1\nld addr=8\n";
    const std::string text = workloads::findTraceFile(tmp.dir, "zcustom");
    EXPECT_EQ(text, tmp.file("zcustom.txt"));
    entries = workloads::traceBenchmarksFromFiles({text}, 2);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].info.suite, "traces");
    EXPECT_EQ(entries[0].info.program, "zcustom");
    expectReject(
        [&] { workloads::traceBenchmarksFromFiles({text}, 3); },
        "silently diverge");
}

TEST(TraceBenchmarksTest, RejectsDuplicateBenchmarkNames)
{
    TmpDir tmp;
    writeTraceV1(tmp, sampleRecords(10), "CommBench__tcp.tcp.trace");
    std::ofstream(tmp.file("CommBench__tcp.tcp.csv")) << "alu dst=1\n";
    expectReject([&] { workloads::traceBenchmarks(tmp.dir); },
                 "duplicate trace benchmark 'CommBench/tcp.tcp'");
}

TEST(TraceBenchmarksTest, ContentStampTracksTraceBytes)
{
    TmpDir tmp;
    writeTraceV1(tmp, sampleRecords(100, 1), "CommBench__tcp.tcp.trace");
    uint64_t s1 = 0, s2 = 0, s3 = 0;
    workloads::traceBenchmarks(tmp.dir, 0, &s1);
    workloads::traceBenchmarks(tmp.dir, 0, &s2);
    EXPECT_EQ(s1, s2);      // stable for unchanged contents
    // Re-record the same benchmark with different records: the name
    // is identical but the stamp must move (this is what keys the
    // profile store to trace contents, not the directory path).
    writeTraceV1(tmp, sampleRecords(100, 2), "CommBench__tcp.tcp.trace");
    workloads::traceBenchmarks(tmp.dir, 0, &s3);
    EXPECT_NE(s1, s3);
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

TEST(TraceReplayTest, StoreKeySeparatesTraceAndInterpreterRuns)
{
    pipeline::StoreKey interp;
    interp.maxInsts = 1000;
    pipeline::StoreKey traced = interp;
    traced.traceDir = "some/dir";
    EXPECT_NE(interp.describe(), traced.describe());
    // Interpreter-keyed stores keep their pre-trace-era key strings.
    EXPECT_EQ(interp.describe().find("traces="), std::string::npos);
}

} // namespace
} // namespace mica
