#include "pipeline/parallel_collector.hh"

#include <unistd.h>

#include <chrono>
#include <future>
#include <mutex>
#include <thread>

#include "isa/interpreter.hh"
#include "obs/obs.hh"
#include "pipeline/thread_pool.hh"
#include "uarch/hw_counter.hh"
#include "util/failpoint.hh"

namespace mica::pipeline
{

namespace
{

/**
 * Fault-injection hook for the analysis phase itself (as opposed to
 * the I/O layer hooks in checked_io). Evaluated once per benchmark,
 * so an `error@N` trigger quarantines a deterministic benchmark count
 * regardless of worker interleaving.
 */
void
checkAnalyzeFault(const std::string &bench)
{
    if (!util::failpointsArmed())
        return;
    const util::FailDecision d = util::evalFailpoint("pipeline.analyze");
    if (!d)
        return;
    switch (d.op) {
    case util::FailOp::Delay:
        std::this_thread::sleep_for(std::chrono::milliseconds(d.param));
        return;
    case util::FailOp::Abort:
        ::_exit(util::kCrashExitCode);
    default:
        throw std::runtime_error(
            "injected analyzer fault (pipeline.analyze): " + bench);
    }
}

/** Shared progress state, serializing callback invocations. */
struct Progress
{
    Progress(const ProgressFn &f, size_t t) : fn(f), total(t) {}

    const ProgressFn &fn;
    const size_t total;
    size_t done = 0;
    std::mutex mutex;

    void
    tick(const std::string &label)
    {
        if (!fn)
            return;
        std::lock_guard<std::mutex> lock(mutex);
        fn(++done, total, label);
    }
};

/**
 * Telemetry for one benchmark's job: a pipeline.job span labeled with
 * the benchmark, plus the job-completion counter the progress
 * reporter's final line is derived from. A job that throws still
 * counts: it ran.
 */
struct JobObs
{
    explicit JobObs(const std::string &bench) : span_("pipeline.job")
    {
        span_.arg("bench", bench);
    }

    ~JobObs()
    {
        static obs::Counter done("pipeline.job.done");
        done.add(1);
    }

    obs::ObsSpan span_;
};

/**
 * Profile one benchmark: open its records (trace replay, or a fresh
 * build run by an Interpreter) and drive the six MICA analyzers plus
 * the HPC model in one engine pass.
 */
StoredProfile
profileOne(const workloads::BenchmarkEntry &e, const MicaRunnerConfig &rc)
{
    const std::string name = e.info.fullName();
    JobObs jo(name);
    checkAnalyzeFault(name);

    uarch::HwCounterAnalyzer hw;
    StoredProfile out;
    out.id = e.contentId;
    if (e.source) {
        auto src = e.source();
        out.mica = collectMicaProfile(*src, name, rc, {&hw});
    } else {
        const isa::Program program = e.build();
        isa::Interpreter interp(program);
        out.mica = collectMicaProfile(interp, name, rc, {&hw});
    }
    out.hpc = hw.profile(name);
    return out;
}

} // namespace

std::vector<StoredProfile>
collectProfiles(const std::vector<const workloads::BenchmarkEntry *> &entries,
                const MicaRunnerConfig &rc, unsigned jobs,
                const ProgressFn &progress, const ResultFn &onResult,
                const FaultPolicy &policy,
                std::vector<SweepFailure> *failures)
{
    std::vector<StoredProfile> results(entries.size());
    // One slot per benchmark, written only by that benchmark's job:
    // non-empty means quarantined.
    std::vector<std::string> errors(entries.size());
    Progress prog(progress, entries.size());

    // A job's exception becomes its benchmark's error and the sweep
    // moves on.
    auto runOne = [&](size_t i) {
        const auto &e = *entries[i];
        try {
            results[i] = profileOne(e, rc);
        } catch (const std::exception &ex) {
            errors[i] = *ex.what() ? ex.what() : "unknown error";
            return;
        } catch (...) {
            errors[i] = "unknown error";
            return;
        }
        prog.tick(e.info.fullName());
        if (onResult)
            onResult(results[i]);
    };

    if (jobs == 1) {
        for (size_t i = 0; i < entries.size(); ++i)
            runOne(i);
    } else {
        ThreadPool pool(jobs);
        std::vector<std::future<void>> futures;
        futures.reserve(entries.size());
        for (size_t i = 0; i < entries.size(); ++i)
            futures.push_back(pool.submit([&runOne, i] { runOne(i); }));

        // Wait for every job before rethrowing so no worker still
        // touches `results` when an exception unwinds this frame. Only
        // the progress and result hooks can throw here.
        std::exception_ptr firstError;
        for (auto &f : futures) {
            try {
                f.get();
            } catch (...) {
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
        if (firstError)
            std::rethrow_exception(firstError);
    }

    // All workers have drained: report failures in input order and
    // enforce the cap.
    size_t count = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        if (errors[i].empty())
            continue;
        ++count;
        if (failures)
            failures->push_back(
                {entries[i]->info.fullName(), "profile", errors[i]});
    }
    if (count > 0) {
        static obs::Counter quarantined("pipeline.quarantined");
        quarantined.add(count);
    }
    if (count > policy.maxFailures)
        throw SweepAborted(count, policy.maxFailures);
    return results;
}

} // namespace mica::pipeline
