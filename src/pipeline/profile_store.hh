/**
 * @file
 * Durable, config-keyed store of per-benchmark profiling results.
 *
 * The paper's characterization sweep is the expensive step (110
 * machine-days on real hardware), so results must be reusable across
 * runs — but only when they were measured under the same collection
 * configuration. The store binds every file to a key derived from the
 * knobs that change measured values (instruction budget, PPM order,
 * suite filter) plus a format version; a mismatch rejects the whole
 * file instead of silently serving stale numbers, which is exactly the
 * bug the old mica_profiles.csv/hpc_profiles.csv cache had.
 *
 * Entries are stored per benchmark and persisted as they are
 * produced, so an interrupted sweep resumes from the benchmarks
 * already on disk (a partial cache hit re-profiles only the missing
 * ones). A put appends one length-framed, checksummed entry and
 * fsyncs it. A crash mid-append leaves at most a torn last frame,
 * which open() detects and drops; the next put then rewrites the
 * whole store through a ".tmp" sibling and an atomic rename, so the
 * torn bytes never outlive it. A store directory has one writer at a
 * time.
 *
 * Layout: an 8-byte magic, a u32 format version and the key string,
 * then one frame per put: a u32 payload length, the u64 FNV-1a of the
 * payload, and the payload (one entry). Version 1 stored the same
 * entries back to back without frames; open() still reads it, and
 * the first put converts it.
 */

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mica/profile.hh"
#include "uarch/hw_counter.hh"

namespace mica::pipeline
{

/** The collection knobs that determine measured profile values. */
struct StoreKey
{
    uint64_t maxInsts = 0;
    unsigned ppmMaxOrder = 8;
    std::vector<std::string> suites;

    /**
     * Trace-replay source (empty = interpret registry kernels).
     * Callers set it to "<dir>#<content-digest>" — the digest covers
     * every trace file's name and payload checksum, so re-recording a
     * trace invalidates the store instead of silently serving
     * profiles of the old bytes.
     */
    std::string traceDir;

    /**
     * @return the canonical key string recorded in the store header
     * and compared exactly on open — no hashing, so no collision can
     * ever serve profiles measured under a different config.
     */
    std::string describe() const;
};

/** Both characterizations of one benchmark, as stored. */
struct StoredProfile
{
    MicaProfile mica;
    uarch::HwCounterProfile hpc;

    /** @return benchmark full name ("suite/program.input"). */
    const std::string &name() const { return mica.name; }
};

/**
 * One on-disk store file: <dir>/profiles.bin. Thread-safe for
 * concurrent put() calls.
 */
class ProfileStore
{
  public:
    /** Bump when the binary layout or profile shape changes. */
    static constexpr uint32_t kFormatVersion = 2;

    ProfileStore(const std::string &dir, const StoreKey &key);

    /**
     * Load every valid entry recorded under this store's key.
     * @return false when the file is absent or keyed to a different
     * configuration/format version; the store is then empty and the
     * first put() rewrites it from scratch. Reading stops at the
     * first short frame or checksum mismatch (an interrupted append)
     * and keeps the entries before it; the next put() rewrites the
     * file without the torn tail.
     * @throws util::IoError when the file exists but cannot be read
     * (EACCES, EIO, …) — callers degrade to compute-without-cache
     * with a loud warning rather than serving silently from an
     * unreadable store.
     */
    bool open();

    /** @return entry for a benchmark, or nullptr when missing. */
    const StoredProfile *find(const std::string &fullName) const;

    /** @return number of loaded + newly put entries. */
    size_t size() const { return entries_.size(); }

    /** Commit attempts per put (first try + retries with backoff). */
    static constexpr int kPutAttempts = 3;

    /**
     * Record one benchmark's result and persist it before returning.
     * When the file on disk is a clean store under this key that this
     * object opened or wrote, the put appends one frame with a single
     * write() and fsyncs it (`store.put.append`); a crash leaves the
     * previous entries plus at most a torn frame that open() drops.
     * Otherwise — the first put when the file is missing, under
     * another key, version 1 or torn — it rewrites the complete store
     * to a ".tmp" sibling and renames it into place
     * (`store.put.rewrite`), so a crash leaves the previous file or
     * the new one. Transient commit failures are retried
     * (kPutAttempts, bounded exponential backoff, `store.retry`
     * counter), and a retry after a failed append rewrites. A
     * persistent failure warns once on stderr and the entry stays in
     * memory — put never throws for I/O, so one full disk cannot
     * abort a sweep whose computation is fine.
     */
    void put(const StoredProfile &profile);

    /** @return the store file path. */
    const std::string &path() const { return path_; }

  private:
    std::string dir_;
    std::string path_;
    std::string keyCanon_;
    std::mutex mutex_;
    std::map<std::string, StoredProfile> entries_;
    /** The file is a clean v2 store of entries_: a put may append. */
    bool appendable_ = false;
    bool warnedPutFailure_ = false;
};

} // namespace mica::pipeline
