#include "pipeline/profile_store.hh"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/obs.hh"
#include "trace/trace_file.hh"
#include "util/checked_io.hh"

namespace mica::pipeline
{

namespace
{

constexpr char kMagic[8] = {'M', 'I', 'C', 'A', 'P', 'S', 'T', '\n'};
constexpr uint32_t kEntryMagic = 0x50524F46;    // "PROF"

/** Version 1 stored bare entries back to back, without frames. */
constexpr uint32_t kUnframedVersion = 1;

template <typename T>
void
writePod(std::string &out, const T &v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

void
writeString(std::string &out, const std::string &s)
{
    writePod(out, static_cast<uint32_t>(s.size()));
    out += s;
}

/** Bounds-checked reads over bytes loaded from disk. */
struct Cursor
{
    const char *p;
    const char *end;

    size_t left() const { return static_cast<size_t>(end - p); }

    template <typename T>
    bool
    pod(T &v)
    {
        if (left() < sizeof(T))
            return false;
        std::memcpy(&v, p, sizeof(T));
        p += sizeof(T);
        return true;
    }

    bool
    string(std::string &s)
    {
        uint32_t len = 0;
        if (!pod(len) || len > 4096 || left() < len)
            return false;
        s.assign(p, len);
        p += len;
        return true;
    }
};

void
writeEntry(std::string &out, const StoredProfile &p)
{
    writePod(out, kEntryMagic);
    writeString(out, p.mica.name);
    writePod(out, p.mica.instCount);
    for (double v : p.mica.values)
        writePod(out, v);
    writePod(out, p.hpc.instCount);
    for (double v : p.hpc.toVector())
        writePod(out, v);
}

bool
readEntry(Cursor &in, StoredProfile &p)
{
    uint32_t magic = 0;
    if (!in.pod(magic) || magic != kEntryMagic)
        return false;
    if (!in.string(p.mica.name))
        return false;
    if (!in.pod(p.mica.instCount))
        return false;
    for (double &v : p.mica.values) {
        if (!in.pod(v))
            return false;
    }
    if (!in.pod(p.hpc.instCount))
        return false;
    std::array<double, uarch::HwCounterProfile::kNumMetrics> m{};
    for (double &v : m) {
        if (!in.pod(v))
            return false;
    }
    p.hpc.name = p.mica.name;
    p.hpc.ipcEv56 = m[0];
    p.hpc.ipcEv67 = m[1];
    p.hpc.branchMissRate = m[2];
    p.hpc.l1dMissRate = m[3];
    p.hpc.l1iMissRate = m[4];
    p.hpc.l2MissRate = m[5];
    p.hpc.dtlbMissRate = m[6];
    return true;
}

/** One frame: u32 payload length, u64 FNV-1a of the payload, payload. */
void
writeFrame(std::string &out, const StoredProfile &p)
{
    std::string payload;
    writeEntry(payload, p);
    writePod(out, static_cast<uint32_t>(payload.size()));
    writePod(out, fnv1a(payload.data(), payload.size()));
    out += payload;
}

/** @return false on a short frame, a checksum mismatch or a bad entry. */
bool
readFrame(Cursor &in, StoredProfile &p)
{
    uint32_t len = 0;
    uint64_t sum = 0;
    if (!in.pod(len) || !in.pod(sum) || in.left() < len ||
        fnv1a(in.p, len) != sum)
        return false;
    Cursor payload{in.p, in.p + len};
    in.p += len;
    return readEntry(payload, p) && payload.left() == 0;
}

/** @return the complete store: header, then one frame per entry. */
std::string
serializeStore(const std::string &keyCanon,
               const std::map<std::string, StoredProfile> &entries)
{
    std::string bytes(kMagic, sizeof(kMagic));
    writePod(bytes, ProfileStore::kFormatVersion);
    writeString(bytes, keyCanon);
    for (const auto &kv : entries)
        writeFrame(bytes, kv.second);
    return bytes;
}

} // namespace

std::string
StoreKey::describe() const
{
    std::ostringstream ss;
    ss << "budget=" << maxInsts << "|ppm=" << ppmMaxOrder << "|suites=";
    for (size_t i = 0; i < suites.size(); ++i)
        ss << (i ? "," : "") << suites[i];
    // Appended only when set so interpreter-sourced stores keep their
    // pre-trace-era key strings (and stay readable).
    if (!traceDir.empty())
        ss << "|traces=" << traceDir;
    return ss.str();
}

ProfileStore::ProfileStore(const std::string &dir, const StoreKey &key)
    : dir_(dir), path_(dir + "/profiles.bin"), keyCanon_(key.describe())
{
}

bool
ProfileStore::open()
{
    static obs::Counter opened("store.open.ok");
    static obs::Counter rejected("store.open.reject");
    static obs::Counter bytesRead("store.bytes.read");
    obs::ObsSpan sp("store.open");
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    appendable_ = false;

    std::string bytes;
    try {
        bytes = util::readFileBytes(path_, "store.load");
    } catch (const util::IoError &e) {
        if (e.code() == ENOENT)
            return false;    // absent is not a reject: first run is normal
        // A store that exists but cannot be read (EACCES, EIO, …) is a
        // real failure the caller must decide about — experiments
        // degrade to compute-without-cache with a loud warning.
        throw;
    }
    Cursor in{bytes.data(), bytes.data() + bytes.size()};

    uint32_t version = 0;
    std::string keyCanon;
    if (in.left() < sizeof(kMagic) ||
        std::memcmp(in.p, kMagic, sizeof(kMagic)) != 0) {
        rejected.add(1);
        return false;
    }
    in.p += sizeof(kMagic);
    if (!in.pod(version) ||
        (version != kFormatVersion && version != kUnframedVersion)) {
        rejected.add(1);
        return false;
    }
    if (!in.string(keyCanon) || keyCanon != keyCanon_) {
        rejected.add(1);
        return false;
    }

    StoredProfile p;
    if (version == kUnframedVersion) {
        while (readEntry(in, p))
            entries_[p.name()] = p;
    } else {
        // Stop at the first torn or corrupt frame, keeping every entry
        // before it. Only a file read to its end may be appended to;
        // otherwise the next put rewrites it without the torn tail.
        appendable_ = true;
        while (in.left() > 0) {
            if (!readFrame(in, p)) {
                appendable_ = false;
                break;
            }
            entries_[p.name()] = p;
        }
    }
    bytesRead.add(bytes.size());
    opened.add(1);
    sp.arg("entries", static_cast<uint64_t>(entries_.size()));
    return true;
}

const StoredProfile *
ProfileStore::find(const std::string &fullName) const
{
    static obs::Counter hits("store.find.hit");
    static obs::Counter misses("store.find.miss");
    auto it = entries_.find(fullName);
    (it == entries_.end() ? misses : hits).add(1);
    return it == entries_.end() ? nullptr : &it->second;
}

void
ProfileStore::put(const StoredProfile &profile)
{
    static obs::Counter puts("store.put.count");
    static obs::Counter rewrites("store.put.rewrite");
    static obs::Counter appends("store.put.append");
    static obs::Counter bytesWritten("store.bytes.written");
    static obs::Counter retries("store.retry");
    obs::ObsSpan sp("store.commit");
    puts.add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[profile.name()] = profile;
    sp.arg("entries", static_cast<uint64_t>(entries_.size()));

    std::string frame;
    writeFrame(frame, profile);

    // Transient I/O errors (NFS hiccup, EINTR-adjacent weirdness) get
    // a bounded exponential-backoff retry; a persistently failing
    // store warns loudly once and the sweep continues computing — the
    // results of this run are still correct, they just are not
    // cached. Every put keeps trying, so debris or a transient
    // condition from one failure never blocks the next attempt.
    for (int attempt = 0;; ++attempt) {
        try {
            if (appendable_) {
                // One write() on an O_APPEND fd, durable before put
                // returns. A .tmp here can only be debris of a crashed
                // rewrite; drop it like a rewrite would.
                ::unlink((path_ + ".tmp").c_str());
                util::CheckedFile f =
                    util::CheckedFile::openAppend(path_, "store.append");
                f.writeAll(frame.data(), frame.size());
                f.syncToDisk();
                f.close();
                appends.add(1);
                bytesWritten.add(frame.size());
            } else {
                // Write the complete store to a sibling and rename it
                // into place: a crash at any byte of the write leaves
                // the previous complete file untouched, and rename()
                // on one filesystem is atomic, so a reader can never
                // observe a header without its entries.
                std::error_code ec;
                std::filesystem::create_directories(dir_, ec);
                const std::string bytes = serializeStore(keyCanon_, entries_);
                util::atomicWriteFile(path_, bytes, "store.put");
                rewrites.add(1);
                bytesWritten.add(bytes.size());
                appendable_ = true;
            }
            return;
        } catch (const util::IoError &e) {
            // A failed append may have left part of its frame on disk;
            // the retry rewrites the whole store over it.
            appendable_ = false;
            if (attempt + 1 >= kPutAttempts) {
                if (!warnedPutFailure_) {
                    warnedPutFailure_ = true;
                    std::cerr << "warning: profile store commit failed"
                              << " (results not cached): " << e.what()
                              << "\n";
                }
                return;
            }
            retries.add(1);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1 << attempt));
        }
    }
}

} // namespace mica::pipeline
