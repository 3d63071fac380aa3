/**
 * @file
 * Progress-callback contract shared by the pipeline and its clients.
 * Kept dependency-free so experiment headers can expose a hook without
 * dragging the whole pipeline into every translation unit.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace mica::pipeline
{

/**
 * Live status hook: invoked once per profiled benchmark with the
 * number done so far, the total, and the benchmark's full name
 * ("suite/program.input"). With more than one worker it is called from
 * worker threads, serialized by an internal mutex; keep it cheap and
 * do not call back into the collector.
 */
using ProgressFn =
    std::function<void(size_t done, size_t total, const std::string &label)>;

/**
 * @return the standard stderr reporter. On a TTY: a carriage-return
 * status line, newline-terminated when the last job finishes. When
 * stderr is a pipe or file (CI logs), repainting is suppressed in
 * favor of ~10 newline-terminated milestone lines, and the final line
 * reports the job tally from the telemetry snapshot.
 */
ProgressFn stderrProgress();

} // namespace mica::pipeline
