#include "trace/trace_file.hh"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/obs.hh"
#include "trace/columnar.hh"
#include "trace/synthetic.hh"
#include "util/failpoint.hh"

namespace mica
{

namespace
{

constexpr char kTraceMagic[8] = {'M', 'I', 'C', 'A', 'T', 'R', 'C', '\n'};
constexpr uint32_t kTraceChunkMagic = 0x4b484354;     // "TCHK"
constexpr uint32_t kTraceChunkMagicV2 = 0x32484354;   // "TCH2"
constexpr size_t kTraceHeaderBytes = 48;
constexpr size_t kChunkHeaderBytes = 8;

/** v2 chunk header: magic, count, and six column byte lengths. */
constexpr size_t kChunkHeaderBytesV2 =
    8 + columnar::kNumColumns * sizeof(uint32_t);

/**
 * Upper bounds a v2 chunk header may claim. The writer emits at most
 * kChunkRecordsV2 records (< 1 MB encoded); these caps only exist so
 * a corrupt chunk header cannot make the reader allocate gigabytes
 * before the end-of-payload checksum could reject the file.
 */
constexpr uint32_t kMaxChunkRecordsV2 = 1u << 20;
constexpr uint64_t kMaxChunkPayloadV2 = 64ull << 20;

/** Source-register lanes of an InstRecord. */
constexpr unsigned kMaxSrcRegs =
    std::tuple_size<decltype(InstRecord::srcRegs)>::value;

static_assert(std::is_trivially_copyable<InstRecord>::value,
              "v1 trace files store raw InstRecord bytes");

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** Fixed-size header, written and patched field by field. */
struct TraceHeader
{
    uint32_t version = kTraceFormatV2;
    uint32_t recordBytes = sizeof(InstRecord);
    uint64_t layoutHash = kTraceLayoutHash;
    uint64_t recordCount = kTraceUnfinished;
    uint64_t payloadBytes = 0;
    uint64_t payloadHash = kFnvOffset;
};

template <typename T>
void
putPod(std::string &out, const T &v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

/** The header's exact on-disk bytes (written whole, and re-patched). */
std::string
headerBytes(const TraceHeader &h)
{
    std::string b;
    b.reserve(kTraceHeaderBytes);
    b.append(kTraceMagic, sizeof(kTraceMagic));
    putPod(b, h.version);
    putPod(b, h.recordBytes);
    putPod(b, h.layoutHash);
    putPod(b, h.recordCount);
    putPod(b, h.payloadBytes);
    putPod(b, h.payloadHash);
    return b;
}

/** Re-raise a checked-I/O failure as this subsystem's error type. */
[[noreturn]] void
rethrowTraceIo(const util::IoError &e)
{
    throw TraceFileError(e.path(),
                         e.op() + " failed: " +
                             (e.code() ? std::strerror(e.code())
                                       : "unexpected end of file"),
                         e.code());
}

/**
 * Act on an armed read-path failpoint: stall for Delay, simulate a
 * crash for Abort, otherwise fail the read with the injected errno.
 */
void
checkReadFailpoint(const char *site, const std::string &path,
                   const char *what)
{
    if (!util::failpointsArmed())
        return;
    util::FailDecision d = util::evalFailpoint(site);
    if (!d)
        return;
    if (d.op == util::FailOp::Delay) {
        std::this_thread::sleep_for(std::chrono::milliseconds(d.param));
        return;
    }
    if (d.op == util::FailOp::Abort)
        ::_exit(util::kCrashExitCode);
    const int err = d.err ? d.err : EIO;
    throw TraceFileError(path,
                         std::string(what) + " failed: " +
                             std::strerror(err),
                         err);
}

/**
 * Read and check the 48-byte header at the start of @p in, and the
 * file size it implies. The payload is checked by FileTraceSource as
 * it decodes.
 */
TraceFileInfo
readHeader(util::CheckedFile &in, const std::string &path)
{
    uint64_t fileBytes = 0;
    char buf[kTraceHeaderBytes] = {};
    try {
        fileBytes = in.size();
        const size_t got = in.readUpTo(buf, sizeof(buf));
        // Check the magic before the length so any non-trace file —
        // however short — reports "not a trace", not "truncated".
        if (got < sizeof(kTraceMagic) ||
            std::memcmp(buf, kTraceMagic, sizeof(kTraceMagic)) != 0)
            throw TraceFileError(path,
                                 "not a mica trace file (bad magic)");
        if (got < kTraceHeaderBytes)
            throw TraceFileError(path, "truncated header");
    } catch (const util::IoError &e) {
        rethrowTraceIo(e);
    }
    TraceHeader h;
    std::memcpy(&h.version, buf + 8, sizeof(h.version));
    std::memcpy(&h.recordBytes, buf + 12, sizeof(h.recordBytes));
    std::memcpy(&h.layoutHash, buf + 16, sizeof(h.layoutHash));
    std::memcpy(&h.recordCount, buf + 24, sizeof(h.recordCount));
    std::memcpy(&h.payloadBytes, buf + 32, sizeof(h.payloadBytes));
    std::memcpy(&h.payloadHash, buf + 40, sizeof(h.payloadHash));
    if (h.version < kTraceFormatV1 || h.version > kTraceFormatLatest) {
        throw TraceFileError(
            path, "unsupported trace format version " +
                std::to_string(h.version) + " (this build reads 1.." +
                std::to_string(kTraceFormatLatest) + ")");
    }
    if (h.recordBytes != sizeof(InstRecord) ||
        h.layoutHash != kTraceLayoutHash) {
        throw TraceFileError(path,
                             "record layout mismatch (file recorded by "
                             "an incompatible build)");
    }
    if (h.recordCount == kTraceUnfinished)
        throw TraceFileError(path,
                             "unfinished recording (writer never closed)");
    if (fileBytes != kTraceHeaderBytes + h.payloadBytes)
        throw TraceFileError(path, "truncated or oversized payload (" +
                                       std::to_string(fileBytes) +
                                       " bytes on disk, header claims " +
                                       std::to_string(kTraceHeaderBytes +
                                                      h.payloadBytes) +
                                       ")");
    return {h.version, h.recordCount, h.payloadBytes, h.payloadHash};
}

} // namespace

/**
 * Incremental FNV-1a folding 8 bytes per step (then byte-at-a-time
 * for the tail). Word-wise keeps the checksum fold at a small
 * fraction of replay cost instead of dominating it; detection
 * strength is equivalent for the flipped-bits/truncation corruption
 * this guards against.
 */
uint64_t
fnv1a(const void *data, size_t n, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    while (n >= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        h ^= w;
        h *= kFnvPrime;
        p += 8;
        n -= 8;
    }
    while (n > 0) {
        h ^= *p++;
        h *= kFnvPrime;
        --n;
    }
    return h;
}

TraceFileInfo
probeTraceFile(const std::string &path)
{
    obs::ObsSpan sp("trace.probe");
    FileTraceSource src(path);
    src.finish();
    sp.arg("records", src.recordCount());
    return src.info();
}

// ----------------------------------------------------------------------
// TraceFileWriter
// ----------------------------------------------------------------------

TraceFileWriter::TraceFileWriter(const std::string &path)
    : path_(path), tmpPath_(path + ".tmp")
{
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);

    try {
        out_ = util::CheckedFile::openWrite(tmpPath_, "trace.record");
        const std::string h = headerBytes(TraceHeader());
        out_.writeAll(h.data(), h.size());    // recordCount = unfinished
    } catch (const util::IoError &e) {
        out_ = util::CheckedFile();
        std::filesystem::remove(tmpPath_, ec);
        rethrowTraceIo(e);
    }
    chunk_.reserve(kChunkRecordsV2);
    open_ = true;
}

TraceFileWriter::~TraceFileWriter()
{
    if (open_)
        abort();
}

void
TraceFileWriter::append(const InstRecord &rec)
{
    append(&rec, 1);
}

void
TraceFileWriter::append(const InstRecord *recs, size_t n)
{
    for (size_t i = 0; i < n;) {
        const size_t take =
            std::min(n - i, kChunkRecordsV2 - chunk_.size());
        chunk_.insert(chunk_.end(), recs + i, recs + i + take);
        i += take;
        if (chunk_.size() == kChunkRecordsV2)
            flushChunk();
    }
    count_ += n;
}

void
TraceFileWriter::flushChunk()
{
    if (chunk_.empty())
        return;
    const uint32_t count = static_cast<uint32_t>(chunk_.size());
    enc_.clear();
    uint32_t colBytes[columnar::kNumColumns] = {};
    columnar::encodeChunk(chunk_.data(), chunk_.size(), enc_, colBytes);
    char ch[kChunkHeaderBytesV2];
    std::memcpy(ch, &kTraceChunkMagicV2, sizeof(kTraceChunkMagicV2));
    std::memcpy(ch + 4, &count, sizeof(count));
    std::memcpy(ch + 8, colBytes, sizeof(colBytes));
    out_.writeAll(ch, sizeof(ch));
    out_.writeAll(enc_.data(), enc_.size());
    payloadHash_ = fnv1a(ch, sizeof(ch), payloadHash_);
    payloadHash_ = fnv1a(enc_.data(), enc_.size(), payloadHash_);
    payloadBytes_ += kChunkHeaderBytesV2 + enc_.size();
    chunk_.clear();
}

void
TraceFileWriter::close()
{
    if (!open_)
        return;
    try {
        flushChunk();

        TraceHeader h;
        h.recordCount = count_;
        h.payloadBytes = payloadBytes_;
        h.payloadHash = payloadHash_;
        const std::string hb = headerBytes(h);
        out_.seekTo(0);
        out_.writeAll(hb.data(), hb.size());
        out_.syncToDisk();
        out_.close();
        open_ = false;
        util::checkedRename(tmpPath_, path_, "trace.record");
    } catch (const util::IoError &e) {
        open_ = false;
        out_ = util::CheckedFile();    // drop the fd, silently
        std::error_code ec;
        std::filesystem::remove(tmpPath_, ec);
        rethrowTraceIo(e);
    }
}

void
TraceFileWriter::abort()
{
    if (open_) {
        out_ = util::CheckedFile();    // drop the fd, silently
        open_ = false;
    }
    std::error_code ec;
    std::filesystem::remove(tmpPath_, ec);
}

// ----------------------------------------------------------------------
// FileTraceSource
// ----------------------------------------------------------------------

FileTraceSource::FileTraceSource(const std::string &path) : path_(path)
{
    static obs::Counter opens("trace.open");
    opens.add(1);
    try {
        in_ = util::CheckedFile::openRead(path_, "trace.replay");
    } catch (const util::IoError &e) {
        rethrowTraceIo(e);
    }
    info_ = readHeader(in_, path_);
}

void
FileTraceSource::readPayload(void *buf, size_t n)
{
    try {
        in_.readExact(buf, n);
    } catch (const util::IoError &e) {
        rethrowTraceIo(e);
    }
}

bool
FileTraceSource::refill()
{
    const uint64_t left = info_.payloadBytes - offset_;
    if (left == 0) {
        // End of payload: the chunks must hold exactly the header's
        // records and hash to its checksum, or the consumer's result
        // rests on altered records.
        if (records_ != info_.recordCount)
            throw TraceFileError(
                path_, "record count mismatch (header says " +
                           std::to_string(info_.recordCount) +
                           ", chunks hold " + std::to_string(records_) +
                           ")");
        if (hash_ != info_.payloadHash)
            throw TraceFileError(path_, "payload checksum mismatch");
        buf_.clear();
        pos_ = 0;
        return false;
    }
    checkReadFailpoint("trace.chunk.read", path_, "chunk read");
    static obs::Counter chunks("trace.chunk.decoded");
    static obs::Counter bytes("trace.bytes.read");

    const bool v1 = info_.version == kTraceFormatV1;
    const size_t headBytes = v1 ? kChunkHeaderBytes : kChunkHeaderBytesV2;
    if (left < headBytes)
        throw TraceFileError(path_, "truncated chunk header");
    char head[kChunkHeaderBytesV2];
    readPayload(head, headBytes);
    uint32_t magic = 0, count = 0;
    uint32_t colBytes[columnar::kNumColumns] = {};
    std::memcpy(&magic, head, sizeof(magic));
    std::memcpy(&count, head + 4, sizeof(count));
    uint64_t bodyBytes = uint64_t(count) * sizeof(InstRecord);
    if (!v1) {
        std::memcpy(colBytes, head + 8, sizeof(colBytes));
        bodyBytes = 0;
        for (uint32_t b : colBytes)
            bodyBytes += b;
    }
    // Bound the chunk by the payload still left (and a v2 chunk by
    // the writer's caps) before it sizes a buffer.
    if (magic != (v1 ? kTraceChunkMagic : kTraceChunkMagicV2) ||
        count == 0 || bodyBytes > left - headBytes ||
        (!v1 && (count > kMaxChunkRecordsV2 ||
                 bodyBytes > kMaxChunkPayloadV2)))
        throw TraceFileError(path_, "corrupt chunk header at payload "
                                    "offset " + std::to_string(offset_));

    buf_.resize(count);
    if (v1) {
        hash_ = fnv1a(&magic, sizeof(magic), hash_);
        hash_ = fnv1a(&count, sizeof(count), hash_);
        readPayload(buf_.data(), bodyBytes);
        hash_ = fnv1a(buf_.data(), bodyBytes, hash_);
        // v1 records are raw bytes; the v2 decoder enforces these
        // ranges by construction. Check them before any analyzer
        // indexes a table with a class or a source count.
        const auto *raw = reinterpret_cast<const unsigned char *>(
            buf_.data());
        for (uint32_t i = 0; i < count; ++i, raw += sizeof(InstRecord)) {
            const unsigned cls = raw[offsetof(InstRecord, cls)];
            const unsigned srcs = raw[offsetof(InstRecord, numSrcRegs)];
            const unsigned taken = raw[offsetof(InstRecord, taken)];
            if (cls >= kNumInstClasses || srcs > kMaxSrcRegs || taken > 1)
                throw TraceFileError(
                    path_, "corrupt record " +
                               std::to_string(records_ + i) +
                               " (class " + std::to_string(cls) + ", " +
                               std::to_string(srcs) +
                               " source registers, taken byte " +
                               std::to_string(taken) + ")");
        }
    } else {
        hash_ = fnv1a(head, headBytes, hash_);
        enc_.resize(bodyBytes);
        readPayload(enc_.data(), enc_.size());
        hash_ = fnv1a(enc_.data(), enc_.size(), hash_);
        columnar::decodeChunk(enc_.data(), colBytes, count, buf_.data(),
                              path_);
    }
    chunks.add(1);
    bytes.add(headBytes + bodyBytes);
    offset_ += headBytes + bodyBytes;
    records_ += count;
    pos_ = 0;
    return true;
}

size_t
FileTraceSource::nextSpan(const InstRecord *&span, InstRecord *, size_t n)
{
    if (pos_ == buf_.size() && !refill())
        return 0;
    const size_t got = std::min(n, buf_.size() - pos_);
    span = buf_.data() + pos_;
    pos_ += got;
    return got;
}

// ----------------------------------------------------------------------
// Text traces
// ----------------------------------------------------------------------

namespace
{

/** Lower-cased copy for case-insensitive matching. */
std::string
lowered(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** @return true and the class for a known class token. */
bool
classFromToken(const std::string &token, InstClass &cls)
{
    const std::string t = lowered(token);
    if (t == "intalu" || t == "alu" || t == "int")
        cls = InstClass::IntAlu;
    else if (t == "intmul" || t == "mul")
        cls = InstClass::IntMul;
    else if (t == "intdiv" || t == "div")
        cls = InstClass::IntDiv;
    else if (t == "fpalu" || t == "fp")
        cls = InstClass::FpAlu;
    else if (t == "fpmul")
        cls = InstClass::FpMul;
    else if (t == "fpdiv")
        cls = InstClass::FpDiv;
    else if (t == "load" || t == "ld")
        cls = InstClass::Load;
    else if (t == "store" || t == "st")
        cls = InstClass::Store;
    else if (t == "branch" || t == "br")
        cls = InstClass::Branch;
    else if (t == "jump" || t == "jmp")
        cls = InstClass::Jump;
    else if (t == "call")
        cls = InstClass::Call;
    else if (t == "return" || t == "ret")
        cls = InstClass::Return;
    else if (t == "nop")
        cls = InstClass::Nop;
    else
        return false;
    return true;
}

/** Lenient number parse (decimal or 0x hex); false on garbage. */
bool
parseU64(const std::string &s, uint64_t &v)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    v = std::strtoull(s.c_str(), &end, 0);
    return *end == '\0';
}

bool
parseBool(const std::string &s, bool &v)
{
    const std::string t = lowered(s);
    if (t == "1" || t == "true" || t == "t" || t == "yes") {
        v = true;
        return true;
    }
    if (t == "0" || t == "false" || t == "f" || t == "no") {
        v = false;
        return true;
    }
    return false;
}

} // namespace

std::vector<InstRecord>
parseTextTrace(std::istream &in, const std::string &what)
{
    std::vector<InstRecord> out;
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        // Strip comments; commas count as whitespace so CSV-style
        // rows parse the same as space-separated ones.
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        for (char &c : line) {
            if (c == ',')
                c = ' ';
        }
        std::istringstream ls(line);
        std::string token;
        if (!(ls >> token))
            continue;   // blank line

        InstRecord rec;
        if (!classFromToken(token, rec.cls)) {
            throw TraceFileError(
                what, "line " + std::to_string(lineNo) +
                          ": unknown instruction class '" + token + "'");
        }
        // Defaults a hand-made trace should not have to spell out:
        // sequential PCs, 8-byte accesses, unconditional transfers
        // taken.
        rec.pc = 0x400000 + 4 * out.size();
        if (rec.isMem())
            rec.memSize = 8;
        if (rec.cls == InstClass::Jump || rec.cls == InstClass::Call ||
            rec.cls == InstClass::Return)
            rec.taken = true;

        while (ls >> token) {
            const size_t eq = token.find('=');
            if (eq == std::string::npos)
                continue;   // lenient: stray token
            const std::string key = lowered(token.substr(0, eq));
            const std::string val = token.substr(eq + 1);
            uint64_t num = 0;
            if (key == "pc" && parseU64(val, num)) {
                rec.pc = num;
            } else if ((key == "addr" || key == "mem") &&
                       parseU64(val, num)) {
                rec.memAddr = num;
            } else if (key == "size" && parseU64(val, num)) {
                rec.memSize = static_cast<uint8_t>(num);
            } else if (key == "dst" && parseU64(val, num)) {
                rec.dstReg = static_cast<uint16_t>(num);
            } else if (key == "target" && parseU64(val, num)) {
                rec.target = num;
            } else if (key == "taken") {
                bool b = false;
                if (parseBool(val, b))
                    rec.taken = b;
            } else if (key == "src") {
                std::istringstream ss(val);
                std::string part;
                rec.numSrcRegs = 0;
                while (std::getline(ss, part, ':') &&
                       rec.numSrcRegs < rec.srcRegs.size()) {
                    if (parseU64(part, num)) {
                        rec.srcRegs[rec.numSrcRegs++] =
                            static_cast<uint16_t>(num);
                    }
                }
            }
            // Unknown keys and malformed values fall through: lenient.
        }
        out.push_back(rec);
    }
    return out;
}

std::string
readTextTraceBytes(const std::string &path)
{
    checkReadFailpoint("trace.replay.open", path, "open");
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        const int err = errno;
        throw TraceFileError(path,
                             std::string("open failed: ") +
                                 std::strerror(err),
                             err);
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

std::vector<InstRecord>
readTextTrace(const std::string &path)
{
    std::istringstream in(readTextTraceBytes(path));
    return parseTextTrace(in, path);
}

TraceConvertStats
convertTraceFile(const std::string &src, const std::string &dst)
{
    obs::ObsSpan sp("trace.convert");
    TraceConvertStats stats;
    {
        FileTraceSource in(src);
        stats.srcVersion = in.info().version;
        stats.srcBytes = kTraceHeaderBytes + in.info().payloadBytes;
        // A source that fails its end-of-payload check throws before
        // close(), so the writer discards the copy.
        TraceFileWriter out(dst);
        const InstRecord *span = nullptr;
        size_t got = 0;
        while ((got = in.nextSpan(span, nullptr, size_t(-1))) > 0)
            out.append(span, got);
        stats.records = out.recordCount();
        out.close();
    }

    // Trust nothing about the copy loop: re-open both files and prove
    // them record-identical before reporting success.
    std::string why;
    if (!traceRecordsIdentical(src, dst, why)) {
        std::error_code ec;
        std::filesystem::remove(dst, ec);
        throw TraceFileError(dst, "conversion verification failed: " +
                                      why);
    }
    stats.dstBytes = std::filesystem::file_size(dst);
    sp.arg("records", stats.records);
    sp.arg("dst_bytes", stats.dstBytes);
    return stats;
}

bool
traceRecordsIdentical(const std::string &a, const std::string &b,
                      std::string &why)
{
    FileTraceSource ra(a);
    FileTraceSource rb(b);
    if (ra.recordCount() != rb.recordCount()) {
        why = a + " holds " + std::to_string(ra.recordCount()) +
              " records, " + b + " holds " +
              std::to_string(rb.recordCount());
        return false;
    }
    // Two cursors over the two files' spans, which break at each
    // file's own chunk boundaries.
    const InstRecord *x = nullptr, *y = nullptr;
    size_t nx = 0, ny = 0;
    for (uint64_t i = 0;; ++i) {
        if (nx == 0)
            nx = ra.nextSpan(x, nullptr, size_t(-1));
        if (ny == 0)
            ny = rb.nextSpan(y, nullptr, size_t(-1));
        if (nx == 0)
            break;
        if (ny == 0) {
            why = b + " ended early at record " + std::to_string(i);
            return false;
        }
        // Compare canonical forms: the validity rules in
        // inst_record.hh make anything beyond them unobservable, and
        // v2 encoding canonicalizes by construction.
        const InstRecord ca = columnar::canonicalRecord(*x++);
        const InstRecord cb = columnar::canonicalRecord(*y++);
        if (std::memcmp(&ca, &cb, sizeof(InstRecord)) != 0) {
            why = "record " + std::to_string(i) + " differs";
            return false;
        }
        --nx;
        --ny;
    }
    // Both files are read to the end, so both pass their checks.
    rb.finish();
    why.clear();
    return true;
}

} // namespace mica
