#include "index/snapshot.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "index/fingerprint.hh"
#include "obs/obs.hh"
#include "trace/trace_file.hh"
#include "util/checked_io.hh"

namespace mica::index
{

namespace
{

constexpr char kMagic[8] = {'M', 'I', 'C', 'A', 'I', 'D', 'X', '\n'};

/** A key longer than this is not one indexKey wrote. */
constexpr uint32_t kMaxKeyLen = 4096;

template <typename T>
void
appendPod(std::string &out, T v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

/** Reads fixed-size fields off the front of a byte string. */
struct Cursor
{
    const std::string &bytes;
    size_t at = 0;

    size_t left() const { return bytes.size() - at; }

    template <typename T>
    bool
    pod(T &v)
    {
        if (left() < sizeof(T))
            return false;
        std::memcpy(&v, bytes.data() + at, sizeof(T));
        at += sizeof(T);
        return true;
    }
};

bool
fail(std::string *why, const std::string &reason)
{
    static obs::Counter rejects("index.snapshot.reject");
    rejects.add(1);
    if (why)
        *why = reason;
    return false;
}

} // namespace

bool
saveIndexRecord(const IndexRecord &rec, const std::string &path,
                std::string *why)
{
    obs::ObsSpan sp("index.snapshot.save");
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);

    std::string out(kMagic, sizeof(kMagic));
    appendPod(out, kSnapshotVersion);
    appendPod(out, FingerprintSet::kVersion);
    appendPod(out, static_cast<uint32_t>(rec.key.size()));
    out += rec.key;
    appendPod(out, static_cast<uint32_t>(rec.sourceCols));
    appendPod(out, static_cast<uint32_t>(rec.columns.size()));
    for (size_t c : rec.columns)
        appendPod(out, static_cast<uint32_t>(c));
    appendPod(out, fnv1a(out.data(), out.size()));
    try {
        util::atomicWriteFile(path, out, "index.snapshot");
    } catch (const util::IoError &e) {
        if (why)
            *why = e.what();
        return false;
    }
    return true;
}

bool
loadIndexRecord(const std::string &path, IndexRecord *out,
                std::string *why)
{
    *out = IndexRecord{};
    std::string bytes;
    try {
        bytes = util::readFileBytes(path, "index.load");
    } catch (const util::IoError &e) {
        // An absent record is the normal first open, not a reject.
        if (why)
            *why = e.code() == ENOENT ? "no index record" : e.what();
        return false;
    }
    if (bytes.size() < sizeof(kMagic) ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return fail(why, "not an index record");
    Cursor in{bytes, sizeof(kMagic)};
    uint32_t version = 0, fpVersion = 0, keyLen = 0;
    if (!in.pod(version) || version < 1 || version > kSnapshotVersion ||
        !in.pod(fpVersion) || fpVersion != FingerprintSet::kVersion)
        return fail(why, "index record format version mismatch");
    if (!in.pod(keyLen) || keyLen > kMaxKeyLen || in.left() < keyLen)
        return fail(why, "truncated index record header");
    std::string key = bytes.substr(in.at, keyLen);
    in.at += keyLen;
    if (version < kSnapshotVersion) {
        // An older format: its key names the space it was built in,
        // but it holds no column record.
        out->key = std::move(key);
        return fail(why, "index record format " + std::to_string(version) +
                             " predates the column record");
    }

    uint32_t sourceCols = 0, count = 0;
    if (!in.pod(sourceCols) || !in.pod(count))
        return fail(why, "truncated index record");
    // Both bounds hold before the column table is allocated.
    if (count > sourceCols)
        return fail(why, "column count past the source width");
    if (in.left() != uint64_t{count} * sizeof(uint32_t) + sizeof(uint64_t))
        return fail(why, "index record size does not match its "
                         "column count");
    uint64_t sum = 0;
    std::memcpy(&sum, bytes.data() + bytes.size() - sizeof(sum),
                sizeof(sum));
    if (fnv1a(bytes.data(), bytes.size() - sizeof(sum)) != sum)
        return fail(why, "index record checksum mismatch");

    std::vector<size_t> columns(count);
    for (size_t &c : columns) {
        uint32_t v = 0;
        in.pod(v);
        if (v >= sourceCols)
            return fail(why, "column index past the source width");
        c = v;
    }
    out->key = std::move(key);
    out->sourceCols = sourceCols;
    out->columns = std::move(columns);
    return true;
}

} // namespace mica::index
