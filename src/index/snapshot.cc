#include "index/snapshot.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/obs.hh"
#include "trace/trace_file.hh"
#include "util/checked_io.hh"

namespace mica::index
{

namespace
{

constexpr char kMagic[8] = {'M', 'I', 'C', 'A', 'I', 'D', 'X', '\n'};

/**
 * Sanity ceilings so a corrupt header or length field is rejected
 * before any allocation is attempted. The per-field caps alone are
 * not enough — count and dim can each be in range while their
 * product asks for terabytes — so total payload sizes are bounded
 * too (kMaxTotalDoubles = 1 GiB of doubles).
 */
constexpr uint64_t kMaxCount = 1u << 20;
constexpr uint64_t kMaxDim = 1u << 16;
constexpr uint64_t kMaxTotalDoubles = 1ull << 27;
constexpr uint32_t kMaxStringLen = 4096;

template <typename T>
void
writePod(std::ostream &out, const T &v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
bool
readPod(std::istream &in, T &v)
{
    in.read(reinterpret_cast<char *>(&v), sizeof(T));
    return in.gcount() == sizeof(T);
}

void
writeString(std::ostream &out, const std::string &s)
{
    writePod(out, static_cast<uint32_t>(s.size()));
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool
readString(std::istream &in, std::string &s)
{
    uint32_t len = 0;
    if (!readPod(in, len) || len > kMaxStringLen)
        return false;
    s.resize(len);
    in.read(s.data(), len);
    return in.gcount() == static_cast<std::streamsize>(len);
}

void
writeDoubles(std::ostream &out, const std::vector<double> &v)
{
    writePod(out, static_cast<uint64_t>(v.size()));
    out.write(reinterpret_cast<const char *>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(double)));
}

bool
readDoubles(std::istream &in, std::vector<double> &v, uint64_t maxLen)
{
    uint64_t len = 0;
    if (!readPod(in, len) || len > maxLen)
        return false;
    v.resize(len);
    in.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(len * sizeof(double)));
    return in.gcount() ==
        static_cast<std::streamsize>(len * sizeof(double));
}

bool
fail(std::string *why, const char *reason)
{
    if (why)
        *why = reason;
    return false;
}

} // namespace

bool
saveIndexSnapshot(const FingerprintIndex &idx, const std::string &path,
                  const std::string &configKey, std::string *why)
{
    obs::ObsSpan sp("index.snapshot.save");
    sp.arg("points", static_cast<uint64_t>(idx.fingerprints().size()));
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);

    // Serialize to memory, then commit through a .tmp sibling and an
    // atomic rename, so a crash or I/O failure mid-write leaves the
    // previous snapshot intact instead of a truncated file (same
    // durability contract as ProfileStore::put).
    std::ostringstream out;
    const FingerprintSet &fps = idx.fingerprints();
    writePod(out, static_cast<uint64_t>(fps.size()));
    writePod(out, static_cast<uint64_t>(fps.dim));
    writePod(out, static_cast<uint64_t>(fps.sourceCols));
    writePod(out, static_cast<uint64_t>(fps.pcaDims));

    writePod(out, static_cast<uint64_t>(fps.columns.size()));
    for (size_t c : fps.columns)
        writePod(out, static_cast<uint64_t>(c));
    for (const auto &n : fps.names)
        writeString(out, n);
    writeDoubles(out, fps.colMean);
    writeDoubles(out, fps.colStddev);
    writeDoubles(out, fps.pcaMean);
    writeDoubles(out, fps.pcaBasis);
    writeDoubles(out, fps.data);
    const std::string payload = out.str();

    std::ostringstream file;
    file.write(kMagic, sizeof(kMagic));
    writePod(file, kSnapshotVersion);
    writePod(file, FingerprintSet::kVersion);
    writeString(file, configKey);
    writePod(file, fnv1a(payload.data(), payload.size()));
    file << payload;

    try {
        util::atomicWriteFile(path, file.str(), "index.snapshot");
    } catch (const util::IoError &e) {
        if (why)
            *why = e.what();
        return false;
    }
    return true;
}

SnapshotKeyProbe
probeSnapshotKey(const std::string &path)
{
    static obs::Counter probes("index.snapshot.probe");
    probes.add(1);
    SnapshotKeyProbe p;
    std::ifstream in(path, std::ios::binary);
    char magic[8] = {};
    in.read(magic, sizeof(magic));
    if (in.gcount() != sizeof(magic) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return p;
    // Versions 1 and 2 share this header layout up to the key, which
    // is still read so the space it recorded survives the rebuild its
    // load will need.
    uint32_t version = 0, fpVersion = 0;
    if (!readPod(in, version) || version < 1 ||
        version > kSnapshotVersion ||
        !readPod(in, fpVersion) || fpVersion != FingerprintSet::kVersion)
        return p;
    p.valid = readString(in, p.key);
    if (!p.valid)
        p.key.clear();
    return p;
}

bool
loadIndexSnapshot(const std::string &path, const std::string &configKey,
                  FingerprintIndex *out, std::string *why)
{
    obs::ObsSpan sp("index.snapshot.load");
    static obs::Counter rejects("index.snapshot.reject");
    std::string bytes;
    try {
        bytes = util::readFileBytes(path, "index.load");
    } catch (const util::IoError &e) {
        if (e.code() == ENOENT)
            return fail(why, "no snapshot file");
        if (why)
            *why = e.what();
        return false;
    }
    std::istringstream in;
    in.str(bytes);
    // Every failure past this point is a real reject (a file existed
    // but did not validate); an absent snapshot is the normal first
    // run and stays uncounted. Counted via scope guard so each of the
    // early returns below is covered.
    struct RejectGuard
    {
        bool ok = false;
        ~RejectGuard()
        {
            if (!ok)
                rejects.add(1);
        }
        obs::Counter &rejects;
    } guard{false, rejects};

    char magic[8] = {};
    in.read(magic, sizeof(magic));
    if (in.gcount() != sizeof(magic) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return fail(why, "not an index snapshot");
    uint32_t version = 0, fpVersion = 0;
    if (!readPod(in, version) || version != kSnapshotVersion ||
        !readPod(in, fpVersion) || fpVersion != FingerprintSet::kVersion)
        return fail(why, "snapshot format version mismatch");
    std::string key;
    if (!readString(in, key))
        return fail(why, "truncated snapshot header");
    if (key != configKey) {
        if (why)
            *why = "snapshot key mismatch (built under '" + key +
                "', expected '" + configKey + "')";
        return false;
    }
    uint64_t sum = 0;
    if (!readPod(in, sum))
        return fail(why, "truncated snapshot header");
    const size_t payloadStart = static_cast<size_t>(in.tellg());

    uint64_t count = 0, dim = 0, sourceCols = 0, pcaDims = 0, nc = 0;
    if (!readPod(in, count) || count > kMaxCount || !readPod(in, dim) ||
        dim > kMaxDim || !readPod(in, sourceCols) ||
        sourceCols > kMaxDim || !readPod(in, pcaDims) ||
        !readPod(in, nc) || nc > kMaxDim)
        return fail(why, "truncated or corrupt snapshot header");
    // Internal consistency pins every later allocation: pcaDims never
    // exceeds the column count, the fingerprint dimensionality is
    // fully determined by (pcaDims, nc), and the payloads are bounded.
    if (pcaDims > nc || dim != (pcaDims > 0 ? pcaDims : nc) ||
        count * dim > kMaxTotalDoubles ||
        pcaDims * nc > kMaxTotalDoubles)
        return fail(why, "corrupt snapshot header");

    FingerprintSet fps;
    fps.dim = dim;
    fps.sourceCols = sourceCols;
    fps.pcaDims = pcaDims;
    fps.columns.resize(nc);
    for (auto &c : fps.columns) {
        uint64_t v = 0;
        if (!readPod(in, v) || v >= sourceCols)
            return fail(why, "corrupt column table");
        c = static_cast<size_t>(v);
    }
    fps.names.resize(count);
    for (auto &n : fps.names) {
        if (!readString(in, n))
            return fail(why, "truncated name table");
    }
    // Length caps are the *expected* sizes given the already-validated
    // header counts, so a corrupt length field is rejected before any
    // resize rather than attempting a huge allocation.
    if (!readDoubles(in, fps.colMean, nc) ||
        !readDoubles(in, fps.colStddev, nc) ||
        !readDoubles(in, fps.pcaMean, nc) ||
        !readDoubles(in, fps.pcaBasis, pcaDims * nc) ||
        !readDoubles(in, fps.data, count * dim))
        return fail(why, "truncated snapshot payload");
    if (fps.colMean.size() != nc || fps.colStddev.size() != nc ||
        fps.pcaMean.size() != (pcaDims > 0 ? nc : 0) ||
        fps.pcaBasis.size() != pcaDims * nc ||
        fps.data.size() != count * dim)
        return fail(why, "snapshot payload shape mismatch");
    if (in.peek() != std::char_traits<char>::eof())
        return fail(why, "trailing bytes after snapshot payload");
    // The shape checks above bound every allocation; the checksum
    // catches what they cannot see, such as a flipped bit in a vector.
    if (fnv1a(bytes.data() + payloadStart, bytes.size() - payloadStart) !=
        sum)
        return fail(why, "snapshot payload checksum mismatch");

    *out = FingerprintIndex::fromParts(std::move(fps));
    guard.ok = true;
    sp.arg("points", count);
    return true;
}

} // namespace mica::index
