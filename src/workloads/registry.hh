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
 * The trace files anywhere under @p dir: every regular file named
 * *.trace (binary), *.csv or *.txt (text), as paths relative to
 * @p dir, sorted. Subdirectories are walked, except one holding a
 * profile store (profiles.bin), whose exported CSVs are not traces;
 * other files (.tmp staging files, notes) are skipped. The sweep
 * (traceBenchmarks), findTraceFile and `mica trace ls` all list a
 * tree with this walk.
 * @throws std::filesystem::filesystem_error when the tree cannot be
 *         read
 */
std::vector<std::string> traceTreeFiles(const std::string &dir);

/**
 * The file under @p dir that holds benchmark @p fullName: the one
 * trace file anywhere in the tree whose stem traceBenchmarks maps to
 * that name ("traces/zcustom" finds zcustom.txt), or "" when none
 * does (or @p dir is no directory).
 * @throws TraceFileError naming both files when two map to the name,
 *         as the sweep rejects them.
 */
std::string findTraceFile(const std::string &dir,
                          const std::string &fullName);

/**
 * Surface a tree of recorded traces as first-class benchmarks.
 *
 * Every trace file under @p dir (traceTreeFiles: "*.trace" binary,
 * v1 or v2, see trace/trace_file.hh, and "*.csv"/"*.txt" hand-made
 * text traces, in any subdirectory) becomes one entry whose source
 * factory replays the file; the filename stem maps back to the
 * benchmark identity by replacing the first "__" with "/"
 * ("SPEC2000__gzip.graphic.trace" -> "SPEC2000/gzip.graphic", the
 * inverse of traceStem). Stems without "__" land in the synthetic
 * "traces" suite. Entries are ordered by Table I position (unknown
 * names after, sorted by name), so replaying a recorded registry
 * sweep reproduces the interpreter sweep's report ordering byte for
 * byte.
 *
 * The scan reads each binary file's 48-byte header only: a file
 * whose header or size fails a check, or that the budget guard
 * rejects, rejects at scan time. Its payload is checked by the
 * FileTraceSource each entry's factory opens, as the job decodes it
 * (see trace/trace_file.hh), so payload damage fails that job and
 * never silently falls back to interpreting the registry kernel. A
 * text trace has no header: the scan reads its bytes for the content
 * id only, and its factory reads them once more, parses them and
 * applies the budget guard, so a bad line or a short text trace
 * fails its job. A factory whose file no longer has the scanned
 * header (binary) or bytes (text) throws "file changed since it was
 * scanned". Two files anywhere in the tree mapping to the same
 * benchmark name reject too.
 *
 * Each entry's contentId identifies the file's contents, not its
 * path: a binary trace's record count and payload hash, or the
 * FNV-1a of a text trace's bytes. The profile store keys entries on
 * it, so a moved tree still hits and a re-recorded file misses.
 *
 * @param dir root of the trace tree
 * @param maxInsts the profiling budget the entries will run under:
 *        a trace holding fewer records than a nonzero budget
 *        rejects (a binary one at scan, a text one in its job),
 *        because replay would silently produce a shorter stream than
 *        interpreting the program directly (0 = replay whatever was
 *        recorded)
 * @param quarantined when non-null, a file that fails the scan's
 *        checks (or a binary one the budget guard) is recorded here
 *        as {path, error}, in sorted path order, and skipped instead
 *        of throwing; tree-level problems (not a directory, duplicate
 *        benchmark names) still throw.
 * @throws TraceFileError when @p dir is not a directory or (with
 *         @p quarantined null) a trace file in it fails the scan
 */
std::vector<BenchmarkEntry>
traceBenchmarks(const std::string &dir, uint64_t maxInsts = 0,
                std::vector<std::pair<std::string, std::string>>
                    *quarantined = nullptr);

/**
 * As traceBenchmarks, but over an explicit file list instead of a
 * tree walk; the single-benchmark path hands the one file it found
 * through here. Semantics (header checks, budget guard, quarantine,
 * content ids, registry-order sort, duplicate-name rejection) are
 * identical. Files with unknown extensions are skipped.
 */
std::vector<BenchmarkEntry>
traceBenchmarksFromFiles(const std::vector<std::string> &files,
                         uint64_t maxInsts = 0,
                         std::vector<std::pair<std::string, std::string>>
                             *quarantined = nullptr);

} // namespace mica::workloads
