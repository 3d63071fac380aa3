/**
 * @file
 * Benchmark descriptors for the 122-entry suite table (Table I).
 *
 * The paper characterizes 122 benchmarks from six suites. This repo
 * substitutes each (suite, program, input) row with a parameterized
 * mini-ISA kernel whose dominant loops mirror the real program's
 * behavior; see DESIGN.md for the substitution argument. Every entry
 * carries the paper's reported dynamic instruction count so Table I can
 * be regenerated side by side with the synthetic counts.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "isa/program.hh"
#include "trace/trace_source.hh"

namespace mica::workloads
{

/** Identification of one Table I row. */
struct BenchmarkInfo
{
    std::string suite;      ///< e.g. "SPEC2000"
    std::string program;    ///< e.g. "bzip2"
    std::string input;      ///< e.g. "graphic"
    uint64_t paperICountM = 0;  ///< Table I dynamic insts (millions)

    /**
     * @return canonical "suite/program.input" name; "suite/program"
     * for a trace file whose stem names no input.
     */
    std::string
    fullName() const
    {
        return suite + "/" + shortName();
    }

    /** @return "program.input" (or "program") without the suite. */
    std::string
    shortName() const
    {
        return input.empty() ? program : program + "." + input;
    }

    /**
     * @return whether fullName() == @p name, compared piece by piece
     * so a lookup over many rows builds no string.
     */
    bool
    isNamed(const std::string &name) const
    {
        const size_t at = suite.size() + 1;   // program starts here
        const size_t len = at + program.size() +
            (input.empty() ? 0 : 1 + input.size());
        return name.size() == len &&
            name.compare(0, suite.size(), suite) == 0 &&
            name[suite.size()] == '/' &&
            name.compare(at, program.size(), program) == 0 &&
            (input.empty() ||
             (name[at + program.size()] == '.' &&
              name.compare(at + program.size() + 1, input.size(),
                           input) == 0));
    }
};

/**
 * One registered benchmark: its Table I identity plus a builder that
 * assembles the substitute kernel. Building is deferred so that merely
 * enumerating the registry is cheap; programs are assembled on demand.
 *
 * Trace-backed entries (see traceBenchmarks) carry a source factory
 * instead: when `source` is set, profiling pulls records from a fresh
 * TraceSource per job — positioned at the start of the trace — and
 * `build` is never consulted, so a recorded workload is profiled
 * exactly like an interpreted one everywhere downstream.
 */
struct BenchmarkEntry
{
    BenchmarkInfo info;
    std::function<isa::Program()> build;
    std::function<std::unique_ptr<TraceSource>()> source;

    /**
     * What the records are, for the profile store: 0 for a registry
     * kernel; for a trace, a digest of the file's contents (see
     * traceBenchmarksFromFiles). Equal ids mean equal records.
     */
    uint64_t contentId = 0;
};

} // namespace mica::workloads
