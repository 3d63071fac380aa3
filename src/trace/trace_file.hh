/**
 * @file
 * File-backed trace recording and replay.
 *
 * The paper's methodology is defined over dynamic instruction traces,
 * but until this subsystem every trace had to come from the built-in
 * mini-ISA interpreter. A versioned binary trace format decouples the
 * two: any TraceSource can be teed to disk once (RecordingSource +
 * TraceFileWriter) and replayed any number of times, byte-identically,
 * by the streamed FileTraceSource. A lenient text reader covers
 * hand-made traces.
 *
 * Format (all integers native-endian; a byte-swapped file fails the
 * version check and is rejected):
 *
 *   header, 48 bytes:
 *     char[8]  magic        "MICATRC\n"
 *     u32      version      1 (raw records) or 2 (columnar)
 *     u32      recordBytes  sizeof(InstRecord)
 *     u64      layoutHash   kTraceLayoutHash (field offsets + sizes)
 *     u64      recordCount  total records (kTraceUnfinished until the
 *                           writer's close() patches it)
 *     u64      payloadBytes total bytes of all chunks after the header
 *     u64      payloadHash  fnv1a over every payload byte
 *   v1 payload: a sequence of chunks
 *     u32      chunkMagic   kTraceChunkMagic ("TCHK")
 *     u32      count        records in this chunk (> 0)
 *     InstRecord[count]     raw records, padding bytes zeroed
 *   v2 payload: a sequence of columnar chunks
 *     u32      chunkMagic   kTraceChunkMagicV2 ("TCH2")
 *     u32      count        records in this chunk (> 0)
 *     u32[6]   colBytes     byte length of each column stream
 *     byte[..] columns      the six streams, concatenated in column
 *                           order (see trace/columnar.hh)
 *
 * The writer emits v2 only: a v2 chunk stores the records as
 * delta/varint/bit-packed column streams (~5 bytes per record instead
 * of 48). v1 files, written by older builds, stay readable forever:
 * FileTraceSource dispatches on the header version and reads both.
 *
 * FileTraceSource is the only reader of a file's chunks. Opening one
 * checks the header and the exact file size. Reading checks every
 * chunk as it is decoded (its header against the payload left, a v1
 * record's ranges, a v2 column stream's encoding), folds it into the
 * running checksum and counts its records; at the end of the payload
 * both must equal the header's. A consumer that stops early calls
 * TraceSource::finish(), which reads the rest through the same path.
 * Every failure is a TraceFileError naming the file and the reason,
 * thrown before the consumer can return a result — a bad trace file
 * never silently degrades into re-interpreting, partial replay, or
 * replaying flipped bits.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/inst_record.hh"
#include "trace/trace_source.hh"
#include "util/checked_io.hh"

namespace mica
{

/** Format 1: chunks of raw InstRecords (read only; the writer emits v2). */
constexpr uint32_t kTraceFormatV1 = 1;

/** Format 2: columnar chunks (delta/varint/bit-packed streams). */
constexpr uint32_t kTraceFormatV2 = 2;

/** Newest format this build can read, and the one it writes. */
constexpr uint32_t kTraceFormatLatest = kTraceFormatV2;

/** Sentinel recordCount of a recording whose writer never closed. */
constexpr uint64_t kTraceUnfinished = ~0ull;

/**
 * Hash of the InstRecord memory layout (size, alignment, and every
 * field's offset + size). Recorded in the header and compared on open,
 * so a trace written by a build with a different record layout is
 * rejected instead of reinterpreting its bytes as garbage.
 */
constexpr uint64_t
traceLayoutHash()
{
    uint64_t h = 14695981039346656037ull;   // FNV-1a
    const uint64_t parts[] = {
        sizeof(InstRecord), alignof(InstRecord),
        offsetof(InstRecord, pc), sizeof(uint64_t),
        offsetof(InstRecord, cls), sizeof(InstClass),
        offsetof(InstRecord, numSrcRegs), sizeof(uint8_t),
        offsetof(InstRecord, srcRegs), 3 * sizeof(uint16_t),
        offsetof(InstRecord, dstReg), sizeof(uint16_t),
        offsetof(InstRecord, memAddr), sizeof(uint64_t),
        offsetof(InstRecord, memSize), sizeof(uint8_t),
        offsetof(InstRecord, taken), sizeof(bool),
        offsetof(InstRecord, target), sizeof(uint64_t),
        static_cast<uint64_t>(kNumInstClasses),
    };
    for (uint64_t v : parts) {
        h ^= v;
        h *= 1099511628211ull;
    }
    return h;
}

constexpr uint64_t kTraceLayoutHash = traceLayoutHash();

/**
 * Every trace-file failure carries the file path, a reason, and —
 * when the OS was involved — the errno, so callers can distinguish a
 * missing file (ENOENT) from a permission problem (EACCES) from
 * corruption (code() == 0) without parsing the message.
 */
class TraceFileError : public std::runtime_error
{
  public:
    TraceFileError(const std::string &path, const std::string &reason,
                   int err = 0)
        : std::runtime_error("trace file " + path + ": " + reason),
          err_(err)
    {}

    /** @return the errno, or 0 for format/corruption failures. */
    int code() const { return err_; }

  private:
    int err_;
};

/**
 * Header facts of one binary trace file, checked against the file
 * size when a FileTraceSource opens it and against the payload when
 * the source reaches its end.
 */
struct TraceFileInfo
{
    uint32_t version = 0;       ///< trace format version (1 or 2)
    uint64_t recordCount = 0;   ///< total records across all chunks
    uint64_t payloadBytes = 0;  ///< bytes after the 48-byte header
    uint64_t payloadHash = 0;   ///< FNV-1a of the payload
};

/** Word-folding FNV-1a, the hash the trace format uses throughout. */
uint64_t fnv1a(const void *data, size_t n,
               uint64_t h = 14695981039346656037ull);

/**
 * Check every byte of the binary trace at @p path: open a
 * FileTraceSource and read it to the end. For callers whose job is
 * checking files (`mica trace ls`, the crash matrix); replay checks
 * as it goes.
 *
 * @return the checked header facts.
 * @throws TraceFileError naming the file and the failed check.
 */
TraceFileInfo probeTraceFile(const std::string &path);

/**
 * Streaming writer for the binary trace format (always v2).
 *
 * Records are buffered into fixed-size chunks and flushed as each
 * chunk fills. All bytes go to "<path>.tmp"; close() patches the
 * final record count into the header and renames the file into place,
 * so readers only ever see complete traces — a crash mid-recording
 * leaves at most a stale .tmp sibling, never a torn trace file.
 */
class TraceFileWriter
{
  public:
    /**
     * Records buffered per chunk. Columnar encoding amortizes the
     * 32-byte chunk header and the per-chunk delta restart over more
     * records; the decode scratch stays well under 1 MB.
     */
    static constexpr size_t kChunkRecordsV2 = 16384;

    /**
     * Create the destination directory if needed and open the .tmp
     * sibling.
     * @throws TraceFileError when the file cannot be opened.
     */
    explicit TraceFileWriter(const std::string &path);

    /** Discards the .tmp file unless close() already ran. */
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one record. */
    void append(const InstRecord &rec);

    /** Append @p n records. */
    void append(const InstRecord *recs, size_t n);

    /**
     * Flush pending records, finalize the header, and atomically
     * rename the .tmp file to the destination path.
     * @throws TraceFileError when any write or the rename fails.
     */
    void close();

    /** Abandon the recording and delete the .tmp file. */
    void abort();

    /** @return records appended so far. */
    uint64_t recordCount() const { return count_; }

    /** @return the destination path. */
    const std::string &path() const { return path_; }

  private:
    void flushChunk();

    std::string path_;
    std::string tmpPath_;
    util::CheckedFile out_;
    std::vector<InstRecord> chunk_;
    std::string enc_;           ///< reused chunk encode buffer
    uint64_t count_ = 0;
    uint64_t payloadBytes_ = 0;
    uint64_t payloadHash_ = 14695981039346656037ull;    // FNV-1a basis
    bool open_ = false;
};

/**
 * The binary trace reader, for both formats, and the only code that
 * walks a file's chunks: one buffered chunk in memory at a time, so
 * replay cost is O(chunk) memory regardless of trace length. Each
 * chunk is checked as it is decoded, and the end of the payload
 * checks the record count and checksum against the header (see the
 * file comment); any failure throws TraceFileError from the call that
 * reached it. Supports reset(); spans point into the internal chunk
 * buffer.
 */
class FileTraceSource : public TraceSource
{
  public:
    /**
     * Open @p path and check its header and exact size; the payload
     * is checked as it is read.
     * @throws TraceFileError when the file cannot be opened or its
     *         header fails a check.
     */
    explicit FileTraceSource(const std::string &path);

    bool next(InstRecord &rec) override;
    size_t nextBatch(InstRecord *buf, size_t n) override;
    size_t nextSpan(const InstRecord *&span, InstRecord *buf,
                    size_t n) override;
    bool reset() override;

    /** Read and check the rest of the payload. @throws TraceFileError */
    void finish() override { while (refill()) {} }

    /** @return the header facts. */
    const TraceFileInfo &info() const { return info_; }

    /** @return total records in the file, per its header. */
    uint64_t recordCount() const { return info_.recordCount; }

  private:
    /**
     * Load and check the next chunk into buf_; at the end of the
     * payload, check the totals. @return false at end of trace.
     */
    bool refill();

    /** Read @p n payload bytes. @throws TraceFileError */
    void readPayload(void *buf, size_t n);

    std::string path_;
    TraceFileInfo info_;
    util::CheckedFile in_;
    std::vector<InstRecord> buf_;
    std::vector<char> enc_;     ///< reused v2 column payload buffer
    size_t pos_ = 0;            ///< consumed records within buf_
    uint64_t offset_ = 0;       ///< payload bytes read so far
    uint64_t records_ = 0;      ///< records decoded so far
    uint64_t hash_ = 14695981039346656037ull;   ///< FNV-1a so far
};

/**
 * Tees every record pulled through it to a TraceFileWriter, whatever
 * mix of next()/nextBatch()/nextSpan() the consumer uses — each
 * consumed record is written exactly once, in trace order. The
 * wrapper is single-pass: reset() refuses (a rewound replay would be
 * recorded twice), so record a fresh wrapper per pass instead.
 */
class RecordingSource : public TraceSource
{
  public:
    RecordingSource(TraceSource &inner, TraceFileWriter &writer)
        : inner_(inner), writer_(writer)
    {}

    bool
    next(InstRecord &rec) override
    {
        if (!inner_.next(rec))
            return false;
        writer_.append(rec);
        return true;
    }

    size_t
    nextBatch(InstRecord *buf, size_t n) override
    {
        const size_t got = inner_.nextBatch(buf, n);
        writer_.append(buf, got);
        return got;
    }

    size_t
    nextSpan(const InstRecord *&span, InstRecord *buf, size_t n) override
    {
        const size_t got = inner_.nextSpan(span, buf, n);
        writer_.append(span, got);
        return got;
    }

    bool reset() override { return false; }

  private:
    TraceSource &inner_;
    TraceFileWriter &writer_;
};

/**
 * Parse a hand-made text trace. One record per line:
 *
 *   # comment                (blank lines and '#' comments skipped)
 *   load  pc=0x400000 addr=0x10000 size=8 dst=3 src=1:2
 *   alu   dst=4 src=3
 *   branch pc=0x400008 taken=1 target=0x400000
 *
 * The first token is the instruction class (case-insensitive; the
 * aliases ld/st/br/jmp/ret/mul/div are accepted), followed by
 * whitespace- or comma-separated key=value fields: pc, addr, size,
 * dst, src (colon-separated list), taken (0/1/true/false), target.
 * The reader is lenient: unknown keys and malformed values are
 * ignored, missing fields get sensible defaults (sequential PCs,
 * 8-byte accesses, unconditional transfers taken) — but an unknown
 * instruction class throws TraceFileError naming the line, because
 * silently dropping instructions would skew every characteristic.
 *
 * @param what label used in error messages (e.g. the file path)
 */
std::vector<InstRecord> parseTextTrace(std::istream &in,
                                       const std::string &what);

/**
 * Read a text trace file's bytes, unparsed (what its content id
 * hashes). @throws TraceFileError when the file cannot be opened.
 */
std::string readTextTraceBytes(const std::string &path);

/** Read a text trace file. @throws TraceFileError (open or parse). */
std::vector<InstRecord> readTextTrace(const std::string &path);

/** Facts reported by convertTraceFile. */
struct TraceConvertStats
{
    uint32_t srcVersion = 0;    ///< format of the source file
    uint64_t records = 0;       ///< records copied
    uint64_t srcBytes = 0;      ///< source file size on disk
    uint64_t dstBytes = 0;      ///< destination file size on disk
};

/**
 * Re-encode the binary trace at @p src (v1 or v2) into a v2 file at
 * @p dst (written atomically via the normal .tmp + rename writer
 * path), then re-open both files and verify them record-identical —
 * every record of @p dst must equal the canonical form
 * (trace/columnar.hh) of the corresponding @p src record.
 *
 * @throws TraceFileError when @p src fails validation, the write
 *         fails, or — after deleting @p dst — verification fails.
 */
TraceConvertStats convertTraceFile(const std::string &src,
                                   const std::string &dst);

/**
 * Replay @p a and @p b side by side and compare canonicalized records.
 * @param why receives a description of the first difference.
 * @return true when both traces hold identical records.
 */
bool traceRecordsIdentical(const std::string &a, const std::string &b,
                           std::string &why);

} // namespace mica
