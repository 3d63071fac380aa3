/**
 * @file
 * Shared experiment support: one-call collection of the paper's two
 * datasets (47 MICA characteristics + 7 HPC metrics for all 122
 * benchmarks) with optional on-disk caching, plus small helpers used
 * by the bench harnesses.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mica/profile.hh"
#include "pipeline/parallel_collector.hh"
#include "pipeline/progress.hh"
#include "stats/matrix.hh"
#include "uarch/hw_counter.hh"
#include "workloads/benchmark.hh"

namespace mica::experiments
{

/** Collection knobs shared by all experiments. */
struct DatasetConfig
{
    /**
     * Per-benchmark dynamic instruction budget (0 = run to completion;
     * every registry kernel terminates within a few hundred thousand
     * instructions).
     */
    uint64_t maxInsts = 0;

    /** PPM branch-predictor context depth. */
    unsigned ppmMaxOrder = 8;

    /**
     * Optional profile-store directory. When set, per-benchmark results
     * are served from <cacheDir>/profiles.bin when its key matches this
     * config (budget, PPM order, suite filter); missing benchmarks are
     * profiled and appended, so a partial store only costs the gap.
     * Reference CSVs (mica_profiles.csv / hpc_profiles.csv) are also
     * exported there for human inspection, but are never read back as a
     * cache — the legacy CSV cache ignored the collection config and
     * could silently serve stale profiles. A store file that exists
     * but cannot be read (permissions, I/O errors) degrades the sweep
     * to compute-without-cache with a loud stderr warning and the
     * "store.degraded_open" counter, rather than failing it.
     */
    std::string cacheDir;

    /** Restrict collection to these suites (empty = all six). */
    std::vector<std::string> suites;

    /**
     * Replay benchmarks from recorded trace files in this directory
     * (see workloads::traceBenchmarks) instead of interpreting the
     * registry kernels. Replayed profiles are byte-identical to
     * interpreting the same programs directly. The profile-store key
     * carries the directory plus a digest of the trace contents, so
     * re-recorded files re-profile instead of hitting a stale cache.
     * Throws TraceFileError when the directory is missing or two
     * files map to one benchmark name. A file that is corrupt,
     * version-mismatched, or shorter than a nonzero maxInsts (the
     * replay would silently come up short) is quarantined instead —
     * reported in SuiteDataset::failures, subject to maxFailures —
     * and replay never silently falls back to interpretation.
     */
    std::string traceDir;

    /**
     * Replay from an explicit list of trace files instead of a
     * directory (mutually exclusive with traceDir; used by the corpus
     * layer to profile one shard at a time). Same validation,
     * quarantine, and byte-identity semantics as traceDir. The
     * profile-store key carries traceLabel plus the content digest of
     * exactly these files.
     */
    std::vector<std::string> traceFiles;

    /**
     * Cache-key label for a traceFiles replay (e.g.
     * "corpus:shard-003"). Two different file sets never collide even
     * under one label — the content digest is part of the key — but a
     * stable label keeps a shard's store reusable across runs.
     */
    std::string traceLabel;

    /**
     * Profiling worker threads (1 = serial on the calling thread,
     * 0 = one per hardware thread). Output is bit-identical for every
     * value; this only changes wall-clock time.
     */
    unsigned jobs = 1;

    /** Optional live status hook (see pipeline::ProgressFn). */
    pipeline::ProgressFn progress;

    /**
     * Fault-isolation cap: a benchmark whose trace fails validation
     * at scan time, or whose profiling job throws, is quarantined
     * (reported in SuiteDataset::failures, excluded from the
     * dataset) instead of aborting the sweep — up to this many.
     * Exceeding the cap throws pipeline::SweepAborted after the pool
     * drains, on the theory that mass failure is an environment
     * problem, not a per-input one. The default tolerates any number
     * of stragglers; 0 makes any failure abort.
     */
    size_t maxFailures = static_cast<size_t>(-1);
};

/** The two workload datasets of Section III. */
struct SuiteDataset
{
    std::vector<workloads::BenchmarkInfo> benchmarks;
    std::vector<MicaProfile> micaProfiles;
    std::vector<uarch::HwCounterProfile> hpcProfiles;

    /**
     * Benchmarks quarantined during collection (scan-time trace
     * rejects, then profiling-job failures), in deterministic order;
     * every name here is absent from the three vectors above. Empty
     * on a clean sweep. Callers presenting results should surface
     * these and exit with the partial-failure status.
     */
    std::vector<pipeline::SweepFailure> failures;

    /** @return 122 x 47 matrix in Table II column order. */
    Matrix micaMatrix() const;

    /** @return 122 x 7 matrix of hardware-counter metrics. */
    Matrix hpcMatrix() const;

    /** @return row index of "suite/program.input", or npos. */
    size_t indexOf(const std::string &fullName) const;
};

/**
 * Profile every registered benchmark with both characterizations,
 * fanning the per-benchmark jobs across cfg.jobs workers and reusing
 * any profile-store entries recorded under an identical config.
 * Deterministic (bit-identical) for a fixed config at any job count.
 * This is the expensive step the paper spends 110 machine-days on;
 * here it is seconds — and now scales with cores.
 */
SuiteDataset collectSuiteDataset(const DatasetConfig &cfg = {});

/**
 * Parse harness flags shared by the bench executables:
 * --budget=N (maxInsts), --cache=DIR, --jobs=N (0 = auto),
 * --quick (reduced budget), --suites=A,B (suite filter),
 * --traces=DIR (replay recorded traces), --max-failures=N
 * (fault-isolation cap, see DatasetConfig::maxFailures). Environment
 * overrides: MICA_BUDGET, MICA_CACHE, MICA_JOBS, MICA_TRACES.
 * Unrecognized arguments are ignored so google-benchmark flags pass
 * through.
 */
DatasetConfig configFromArgs(int argc, char **argv);

/** @return the per-suite prefixes ("BioInfoMark", ...) in table order. */
const std::vector<std::string> &suiteNames();

} // namespace mica::experiments
