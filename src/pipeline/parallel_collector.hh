/**
 * @file
 * Parallel fan-out of the profiling sweep.
 *
 * Each benchmark is one job: a single engine pass over its records
 * drives the six MICA analyzers and the HPC (simulated hardware
 * counter) model together. Jobs run inline or on a ThreadPool and
 * write into a result vector pre-sized in registry order, so the
 * output is deterministic regardless of worker interleaving. Every job
 * opens its own source (a trace replay, or a fresh build run by its
 * own Interpreter); nothing is shared between workers.
 */

#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "mica/runner.hh"
#include "pipeline/profile_store.hh"
#include "pipeline/progress.hh"
#include "workloads/benchmark.hh"

namespace mica::pipeline
{

/**
 * One quarantined benchmark: which one, which phase gave up on it
 * ("scan" for a trace file's header checks, "profile" for its
 * profiling job, which includes the payload checks), and
 * the error message. Reports are deterministic: failures are listed
 * in input (registry) order regardless of worker count.
 */
struct SweepFailure
{
    std::string bench;    ///< benchmark full name (or file path at scan)
    std::string phase;    ///< "scan" or "profile"
    std::string error;    ///< the exception's message
};

/**
 * How a sweep treats a failing benchmark: it is quarantined —
 * recorded in the failures list, skipped in the results — and the
 * sweep completes everything else, unless more than maxFailures
 * benchmarks fail, which aborts the sweep with SweepAborted (a
 * runaway fault should stop burning cycles).
 */
struct FaultPolicy
{
    size_t maxFailures = static_cast<size_t>(-1);
};

/** Thrown when quarantined benchmarks exceed FaultPolicy::maxFailures. */
class SweepAborted : public std::runtime_error
{
  public:
    SweepAborted(size_t failures, size_t maxFailures)
        : std::runtime_error(
              "sweep aborted: " + std::to_string(failures) +
              " benchmarks failed (--max-failures=" +
              std::to_string(maxFailures) + ")"),
          failures_(failures)
    {}

    size_t failures() const { return failures_; }

  private:
    size_t failures_;
};

/**
 * Completion hook: invoked once per benchmark as soon as its job has
 * finished, with the completed result. With more than one worker it
 * is called from the worker that ran the job; it must be thread-safe
 * (ProfileStore::put is). This is what lets the store persist results
 * as they are produced, so an interrupted sweep keeps everything
 * completed so far.
 */
using ResultFn = std::function<void(const StoredProfile &)>;

/**
 * Profile @p entries with both characterizations using @p jobs workers
 * (0 = hardware concurrency, 1 = inline on the calling thread). Each
 * benchmark is one job and one pass over its records; @p progress
 * ticks once per finished benchmark.
 *
 * @return one StoredProfile per entry, in input order. Results are
 * bit-identical for any worker count: each job is a pure function of
 * its benchmark and @p rc.
 *
 * A job that throws quarantines its benchmark: it is appended to
 * @p failures (in input order, phase "profile") and its result slot
 * is left default-constructed; @p onResult is never called for it,
 * and every other benchmark still completes. Each quarantined
 * benchmark bumps the "pipeline.quarantined" counter. If more than
 * policy.maxFailures benchmarks fail, SweepAborted is thrown after
 * the pool drains.
 */
std::vector<StoredProfile>
collectProfiles(const std::vector<const workloads::BenchmarkEntry *> &entries,
                const MicaRunnerConfig &rc, unsigned jobs,
                const ProgressFn &progress = {},
                const ResultFn &onResult = {},
                const FaultPolicy &policy = {},
                std::vector<SweepFailure> *failures = nullptr);

} // namespace mica::pipeline
