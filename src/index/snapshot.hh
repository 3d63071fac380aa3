/**
 * @file
 * Versioned binary snapshot of a FingerprintIndex.
 *
 * Follows the ProfileStore's durability rules: the header carries a
 * format version and the caller's canonical key (a digest of the
 * indexed dataset + the fingerprint space, see service::indexKey),
 * compared *exactly* on load — a snapshot of other profiles, another
 * characteristic subset or another PCA setting is rejected wholesale
 * rather than answering queries in a stale space. The payload is a
 * flat, offset-free dump (names, frozen normalization parameters,
 * vectors), so a reopen is a sequential read plus a name-map rebuild
 * — no re-profiling, no re-normalization — and queries against the
 * reloaded index are byte-identical to queries against the freshly
 * built one.
 *
 * Layout (format 3): an 8-byte magic, u32 format version, u32
 * fingerprint version, the key (u32 length + bytes), the u64 FNV-1a
 * of the payload, then the payload to the end of the file. A load
 * checks the payload against that checksum, so a damaged byte among
 * the vectors rejects (reason "checksum") instead of moving answers.
 */

#pragma once

#include <string>

#include "index/fingerprint_index.hh"

namespace mica::index
{

/**
 * Bump when the snapshot layout or fingerprint semantics change.
 * Version 2 dropped version 1's trailing VP-tree node array, and
 * version 3 added the payload checksum after the key; the header
 * layout up to the key (magic, version, fingerprint version, key) is
 * shared, so older snapshots still probe and then rebuild.
 */
constexpr uint32_t kSnapshotVersion = 3;

/** Conventional snapshot file name inside a cache directory. */
inline std::string
snapshotPath(const std::string &dir)
{
    return dir + "/index.bin";
}

/**
 * Write the index to @p path (parent directories are created),
 * stamped with @p configKey. The commit is atomic (.tmp + rename); a
 * failure removes the .tmp and leaves any previous snapshot intact.
 * @param why on failure, a one-line reason naming the failed
 *        operation, the path, and strerror(errno)
 * @return false on I/O failure
 */
bool saveIndexSnapshot(const FingerprintIndex &idx,
                       const std::string &path,
                       const std::string &configKey,
                       std::string *why = nullptr);

/** Result of a header-only snapshot probe. */
struct SnapshotKeyProbe
{
    bool valid = false;   ///< header parsed (current or version 1)
    std::string key;      ///< config key the snapshot was recorded under
};

/**
 * Probe a snapshot's header — a few hundred bytes, never the payload.
 * One probe answers both questions a caller has before committing to
 * a load: which space/pca the snapshot holds (key adoption) and
 * whether its key matches the wanted config (load vs. rebuild). Call
 * once and branch on the result; only a matching key justifies the
 * full-payload loadIndexSnapshot read. A version 1 or 2 header
 * probes valid too, so a cache written before a format bump keeps
 * its recorded space: the load then rejects it and the caller
 * rebuilds in that space.
 */
SnapshotKeyProbe probeSnapshotKey(const std::string &path);

/**
 * Load a snapshot recorded under exactly @p configKey.
 * @param why on failure, a one-line reason (missing file, version or
 *        key mismatch, truncation/corruption, "checksum" for a payload
 *        that does not match its recorded FNV-1a)
 * @return the reloaded index, or no value
 */
bool loadIndexSnapshot(const std::string &path,
                       const std::string &configKey,
                       FingerprintIndex *out, std::string *why = nullptr);

} // namespace mica::index
