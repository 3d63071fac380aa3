/**
 * @file
 * The 122-benchmark registry mirroring Table I of the paper.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workloads/benchmark.hh"

namespace mica::workloads
{

/**
 * Immutable catalog of the 122 (suite, program, input) rows of Table I,
 * each bound to a parameterized kernel builder. The singleton is built
 * once on first use; Program construction stays deferred until build()
 * is invoked on an entry.
 */
class BenchmarkRegistry
{
  public:
    /** @return the process-wide registry. */
    static const BenchmarkRegistry &instance();

    /** @return all entries in Table I order. */
    const std::vector<BenchmarkEntry> &all() const { return entries_; }

    /** @return number of registered benchmarks (122). */
    size_t size() const { return entries_.size(); }

    /** @return entries of one suite, in table order. */
    std::vector<const BenchmarkEntry *>
    bySuite(const std::string &suite) const;

    /** @return entry with the given "suite/program.input" name. */
    const BenchmarkEntry *find(const std::string &fullName) const;

    /** @return Table I position of a name, or npos when unknown. */
    size_t indexOf(const std::string &fullName) const;

    /** @return the distinct suite names, in first-appearance order. */
    std::vector<std::string> suites() const;

  private:
    BenchmarkRegistry();

    std::vector<BenchmarkEntry> entries_;
};

/**
 * The trace-file stem of a benchmark: "suite/program.input" ->
 * "suite__program.input" (the first '/' becomes "__"; a name without
 * one is its own stem). `mica trace record` writes <stem>.trace, and
 * traceBenchmarks maps a stem back to the name.
 */
std::string traceStem(const std::string &fullName);

/**
 * The file in @p dir that holds benchmark @p fullName: the first of
 * <stem>.trace, <stem>.csv and <stem>.txt that exists as a regular
 * file, or "" when none does.
 */
std::string findTraceFile(const std::string &dir,
                          const std::string &fullName);

/**
 * Surface a directory of recorded traces as first-class benchmarks.
 *
 * Every "*.trace" (binary, v1 or v2, see trace/trace_file.hh) and
 * "*.csv"/"*.txt" (hand-made text trace) file in @p dir becomes one
 * entry whose source factory replays the file; the filename stem maps
 * back to the benchmark identity by replacing the first "__" with "/"
 * ("SPEC2000__gzip.graphic.trace" -> "SPEC2000/gzip.graphic", the
 * inverse of traceStem). Stems without "__" land in the synthetic
 * "traces" suite. Entries are ordered by Table I position (unknown
 * names after, sorted by name), so replaying a recorded registry
 * sweep reproduces the interpreter sweep's report ordering byte for
 * byte.
 *
 * Binary files are validated eagerly (header + chunk chain +
 * payload checksum), so a corrupt or version-mismatched trace
 * rejects at scan time with a TraceFileError instead of failing
 * mid-sweep — and never silently falls back to interpreting the
 * registry kernel. The source factories reuse that validation
 * (header-only re-check per open, no second payload pass). Two
 * files mapping to the same benchmark name reject too.
 *
 * @param dir directory holding the trace files
 * @param maxInsts the profiling budget the entries will run under:
 *        a binary trace holding fewer records than a nonzero budget
 *        rejects, because replay would silently produce a shorter
 *        stream than interpreting the program directly (0 = replay
 *        whatever was recorded)
 * @param contentStamp when non-null, receives a digest of every
 *        file's identity and content (names, record counts, payload
 *        checksums; raw bytes for text traces) so callers can key
 *        caches on what the traces *hold*, not just the directory
 *        path — quarantined files are excluded from the digest, so a
 *        directory with a corrupt file keys differently from the
 *        same directory healthy
 * @param quarantined when non-null, a file that fails validation (or
 *        the budget guard) is recorded here as {path, error} and
 *        skipped instead of throwing; directory-level problems (not
 *        a directory, duplicate benchmark names) still throw. Order
 *        follows the directory scan, which is filesystem-dependent —
 *        callers wanting a deterministic report should sort.
 * @throws TraceFileError when @p dir is not a directory or (with
 *         @p quarantined null) a trace file in it fails validation
 */
std::vector<BenchmarkEntry>
traceBenchmarks(const std::string &dir, uint64_t maxInsts = 0,
                uint64_t *contentStamp = nullptr,
                std::vector<std::pair<std::string, std::string>>
                    *quarantined = nullptr);

/**
 * As traceBenchmarks, but over an explicit file list instead of a
 * directory scan — the corpus layer hands one shard's files through
 * here. Semantics (validation, budget guard, quarantine, content
 * stamp, registry-order sort, duplicate-name rejection) are identical;
 * @p what names the trace set in set-level error messages (duplicate
 * benchmark names). Files with unknown extensions are skipped.
 */
std::vector<BenchmarkEntry>
traceBenchmarksFromFiles(const std::vector<std::string> &files,
                         uint64_t maxInsts = 0,
                         uint64_t *contentStamp = nullptr,
                         std::vector<std::pair<std::string, std::string>>
                             *quarantined = nullptr,
                         const std::string &what = "trace set");

} // namespace mica::workloads
