/**
 * @file
 * Shared experiment support: one-call collection of the paper's two
 * datasets (47 MICA characteristics + 7 HPC metrics for all 122
 * benchmarks, or for a tree of recorded traces) with an optional
 * profile store that a rerun — or a sweep resumed after a crash —
 * reads per benchmark, plus small helpers used by the bench
 * harnesses.
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
#include "util/arg_parse.hh"
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
     * config (budget, PPM order) and the entry was profiled from the
     * same records (a registry kernel, or a trace with the same
     * content id); missing or changed benchmarks are profiled and
     * appended, so a partial store only costs the gap. The suite
     * filter and the trace directory are not part of the key: a
     * filtered run reads its entries out of a wider store and leaves
     * the others in place, and a moved trace tree still hits. A store
     * file that exists but cannot be read (permissions, I/O errors)
     * degrades the sweep to compute-without-cache with a loud stderr
     * warning and the "store.degraded_open" counter, rather than
     * failing it.
     */
    std::string cacheDir;

    /** Restrict collection to these suites (empty = all six). */
    std::vector<std::string> suites;

    /**
     * Replay benchmarks from the recorded trace files anywhere under
     * this directory (see workloads::traceBenchmarks) instead of
     * interpreting the registry kernels. Replayed profiles are
     * byte-identical to interpreting the same programs directly.
     * Each trace's store entry carries the file's content id, so a
     * re-recorded file re-profiles (alone) instead of hitting a stale
     * entry. Throws TraceFileError when the directory is missing or
     * two files map to one benchmark name. A binary file whose
     * header is corrupt or version-mismatched, or that is shorter
     * than a nonzero maxInsts (the replay would silently come up
     * short), is quarantined at scan under its path; one whose
     * payload is damaged, and a text trace that fails to parse or is
     * too short, fails its own profiling job, under its benchmark
     * name.
     * Either way it is reported in SuiteDataset::failures, subject to
     * maxFailures, and replay never silently falls back to
     * interpretation. A benchmark not profiled (a store hit, a suite
     * filtered out) has only its file's header read (a text trace's
     * bytes are hashed, not parsed).
     */
    std::string traceDir;

    /**
     * Profiling worker threads (1 = serial on the calling thread,
     * 0 = one per hardware thread). Output is bit-identical for every
     * value; this only changes wall-clock time.
     */
    unsigned jobs = 1;

    /** Optional live status hook (see pipeline::ProgressFn). */
    pipeline::ProgressFn progress;

    /**
     * Fault-isolation cap: a benchmark whose trace fails the scan's
     * checks, or whose profiling job throws, is quarantined
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
 * Profile every registered benchmark (or every trace under
 * cfg.traceDir) with both characterizations, fanning the
 * per-benchmark jobs across cfg.jobs workers and reusing any
 * profile-store entry recorded under an identical config from the
 * same records.
 * Deterministic (bit-identical) for a fixed config at any job count.
 * This is the expensive step the paper spends 110 machine-days on;
 * here it is seconds — and now scales with cores.
 */
SuiteDataset collectSuiteDataset(const DatasetConfig &cfg = {});

/**
 * The dataset flags as util::parseCliArgs allow-list entries:
 * --budget --cache --jobs --suites --traces --max-failures.
 */
const std::vector<std::string> &datasetFlags();

/**
 * Build the collection config from @p args, parsed against an
 * allow-list that holds (some of) datasetFlags(): --budget=N
 * (maxInsts), --cache=DIR, --jobs=N (0 = one per hardware thread;
 * larger counts clamp to 256), --suites=A,B, --traces=DIR and
 * --max-failures=N (see DatasetConfig). A flag not given keeps its
 * default; nothing is read from the environment.
 * @return false with *err naming the flag when parsing failed
 *         (args.error) or --budget, --jobs or --max-failures is not a
 *         plain decimal number.
 */
bool datasetConfigFromFlags(const util::CliArgs &args, DatasetConfig *cfg,
                            std::string *err);

/**
 * The flag handling of a program whose flags are @p known (the
 * harnesses and examples): parse argv, build the config, and on an
 * unknown flag or a bad value print "PROGRAM: why" on stderr and
 * exit 2. @p args, when given, receives the parse (positionals).
 */
DatasetConfig datasetConfigOrExit(
    int argc, char **argv,
    const std::vector<std::string> &known = datasetFlags(),
    util::CliArgs *args = nullptr);

/** @return the per-suite prefixes ("BioInfoMark", ...) in table order. */
const std::vector<std::string> &suiteNames();

} // namespace mica::experiments
