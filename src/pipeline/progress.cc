#include "pipeline/progress.hh"

#include <unistd.h>

#include <cstdio>

#include "obs/obs.hh"

namespace mica::pipeline
{

namespace
{

/**
 * Final-line suffix sourced from the metrics snapshot rather than the
 * callback's own bookkeeping: the pipeline.job.done counter is the
 * authoritative tally of profiling jobs this process ran, one per
 * benchmark (a warm cache rerun legitimately reports fewer jobs than
 * the benchmark count).
 */
std::string
finalNote()
{
    const auto snap = obs::snapshotMetrics();
    const auto it = snap.metrics.find("pipeline.job.done");
    if (it == snap.metrics.end() || it->second.value <= 0)
        return "";
    return " (" + std::to_string(it->second.value) +
        " jobs profiled this process)";
}

} // namespace

ProgressFn
stderrProgress()
{
    // Decide the rendering mode once: \r repainting is for humans
    // watching a terminal; in a CI log (pipe/file) it degrades into
    // one unreadable kilometer-long line, so non-TTY output gets a
    // few newline-terminated milestone lines instead.
    const bool tty = ::isatty(fileno(stderr)) != 0;
    return [tty](size_t done, size_t total, const std::string &label) {
        if (tty) {
            std::fprintf(stderr, "\r[%zu/%zu] %-48s", done, total,
                         label.c_str());
            if (done == total)
                std::fprintf(stderr, "\n");
            return;
        }
        if (done == total) {
            std::fprintf(stderr, "[%zu/%zu] done%s\n", done, total,
                         finalNote().c_str());
            return;
        }
        const size_t step = total > 10 ? total / 10 : 1;
        if (done % step == 0)
            std::fprintf(stderr, "[%zu/%zu] %s\n", done, total,
                         label.c_str());
    };
}

} // namespace mica::pipeline
