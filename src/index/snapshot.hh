/**
 * @file
 * The index record: what `<cache>/index.bin` keeps of a similarity
 * index.
 *
 * An index is a pure function of the collected dataset and its space:
 * z-score the selected characteristics, optionally project them onto
 * K principal components, and compute every pairwise distance (the
 * paper's Section IV). Rebuilding one from the dataset takes about
 * half a millisecond at 122 benchmarks, so nothing of it is stored.
 * What a build cannot cheaply redo is the GA's choice of key
 * characteristics (Section V, ~200 ms), and an open without --space
 * needs to know which space the cache was built in. The record holds
 * exactly that:
 *
 *  - the canonical key (service::indexKey: dataset digest, space,
 *    PCA dims), which an open without --space adopts;
 *  - the selected source columns, in order (the GA's for the key
 *    space, all of them for mica/hpc), and the source width they
 *    index.
 *
 * Layout (format 4): an 8-byte magic, u32 format version, u32
 * fingerprint version, the key (u32 length + bytes), u32 source
 * width, u32 column count, that many u32 column indices, then the
 * u64 FNV-1a of every byte before it. One checksum covers the whole
 * record, key included, so a damaged byte anywhere rejects the record
 * (the open rebuilds it) instead of changing a space or an answer.
 *
 * Formats 1–3 stored the whole index (names, normalization, PCA basis
 * and vectors) after the same header prefix: magic, version,
 * fingerprint version, key. Reading one yields its key and no
 * columns, so its space is adopted once and the file is rewritten as
 * format 4.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mica::index
{

/**
 * Bump when the record layout or fingerprint semantics change. The
 * header prefix up to the key is shared by every version.
 */
constexpr uint32_t kSnapshotVersion = 4;

/** Conventional record file name inside a cache directory. */
inline std::string
snapshotPath(const std::string &dir)
{
    return dir + "/index.bin";
}

/** The choices an index build cannot cheaply redo. */
struct IndexRecord
{
    std::string key;               ///< canonical key it was built under
    size_t sourceCols = 0;         ///< width of the raw matrix indexed
    std::vector<size_t> columns;   ///< selected source columns, in order
};

/**
 * Write @p rec to @p path (parent directories are created). The
 * commit is atomic (.tmp + rename); a failure removes the .tmp and
 * leaves any previous file intact.
 * @param why on failure, a one-line reason naming the failed
 *        operation, the path, and strerror(errno)
 * @return false on I/O failure
 */
bool saveIndexRecord(const IndexRecord &rec, const std::string &path,
                     std::string *why = nullptr);

/**
 * Read the record at @p path. Every count is checked against the
 * bytes present and the source width before anything is allocated.
 * @param out on success, the record; on failure its columns are
 *        empty and its key is set only for a format 1–3 file (the
 *        space an open adopts once before rewriting it)
 * @param why on failure, a one-line reason (missing file, not a
 *        record, version mismatch, truncation, "checksum")
 * @return whether @p path holds a complete format-4 record
 */
bool loadIndexRecord(const std::string &path, IndexRecord *out,
                     std::string *why = nullptr);

} // namespace mica::index
