/**
 * @file
 * Durable, config-keyed store of per-benchmark profiling results.
 *
 * The paper's characterization sweep is the expensive step (110
 * machine-days on real hardware), so results must be reusable across
 * runs — but only when they were measured under the same collection
 * configuration and from the same records. The store binds every
 * file to a key derived from the knobs that change measured values
 * (instruction budget, PPM order) plus a format version; a mismatch
 * rejects the whole file instead of silently serving stale numbers,
 * which is exactly the bug the old mica_profiles.csv/hpc_profiles.csv
 * cache had. What the records were is per entry: each entry carries
 * the content id of its source (0 for a registry kernel, the trace
 * file's content id for a replay), and a lookup hits only on name
 * plus id. A re-recorded trace therefore costs one recomputed entry,
 * a moved or copied trace tree still hits, and a suite filter reads
 * the entries it selects out of a wider store without touching the
 * others.
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
 * Layout (format 3): an 8-byte magic, a u32 format version and the
 * key string ("budget=N|ppm=K"), then one frame per put: a u32
 * payload length, the u64 FNV-1a of the payload, and the payload —
 * the entry's u64 content id followed by the entry. A later frame
 * for a name replaces an earlier one; a rewrite keeps only the last,
 * and the first put after open() rewrites a file holding replaced
 * frames, so the file stays within twice its entries.
 *
 * Older formats stay readable. Version 2 had the same frames without
 * the id, version 1 bare entries without frames, and both keyed the
 * suite filter and the trace source ("budget=N|ppm=K|suites=A,B" and
 * an optional "|traces=DIR#DIGEST"). A version 1 or 2 store without a
 * trace source opens as registry entries (id 0) whatever its suite
 * filter; one with a trace source has no per-entry ids to trust and
 * opens empty. Either way the first put rewrites the file as format 3.
 */

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "mica/profile.hh"
#include "uarch/hw_counter.hh"

namespace mica::pipeline
{

/**
 * The collection knobs that determine measured profile values. Which
 * benchmarks a run selects, and where their traces live, are not
 * part of it: entries are found by name and content id.
 */
struct StoreKey
{
    uint64_t maxInsts = 0;
    unsigned ppmMaxOrder = 8;

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

    /**
     * Content id of the records profiled: 0 for a registry kernel,
     * the trace file's id for a replay (workloads::BenchmarkEntry::
     * contentId).
     */
    uint64_t id = 0;

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
    static constexpr uint32_t kFormatVersion = 3;

    ProfileStore(const std::string &dir, const StoreKey &key);

    /**
     * Load every valid entry recorded under this store's key.
     * @return false when the file is absent, keyed to a different
     * configuration or format version, or an older store of trace
     * profiles; the store is then empty and the first put() rewrites
     * it from scratch. Reading stops at the
     * first short frame or checksum mismatch (an interrupted append)
     * and keeps the entries before it; the next put() rewrites the
     * file without the torn tail.
     * @throws util::IoError when the file exists but cannot be read
     * (EACCES, EIO, …) — callers degrade to compute-without-cache
     * with a loud warning rather than serving silently from an
     * unreadable store.
     */
    bool open();

    /**
     * @return the entry for a benchmark whose records had content id
     * @p id (0 = a registry kernel), or nullptr when the store has no
     * entry of that name or its entry was profiled from other records.
     */
    const StoredProfile *find(const std::string &fullName,
                              uint64_t id = 0) const;

    /** @return number of loaded + newly put entries. */
    size_t size() const { return entries_.size(); }

    /** Commit attempts per put (first try + retries with backoff). */
    static constexpr int kPutAttempts = 3;

    /**
     * Record one benchmark's result, replacing any entry of that name,
     * and persist it before returning. When the file on disk is a clean store under this key that this
     * object opened or wrote, the put appends one frame with a single
     * write() and fsyncs it (`store.put.append`); a crash leaves the
     * previous entries plus at most a torn frame that open() drops.
     * Otherwise — the first put when the file is missing, under
     * another key, an older format or torn — it rewrites the complete store
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
    /** The file is a clean current-format store: a put may append. */
    bool appendable_ = false;
    bool warnedPutFailure_ = false;
};

} // namespace mica::pipeline
