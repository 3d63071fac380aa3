/**
 * @file
 * Shared scaffolding for the experiment harnesses in bench/.
 *
 * Every harness regenerates one table or figure of the paper. Each
 * one that profiles the benchmarks takes exactly the dataset flags
 * (--budget=N, --cache=DIR for the profile store, --jobs=N,
 * --suites=A,B, --traces=DIR, --max-failures=N) through
 * experiments::datasetConfigOrExit; an unknown flag or a bad value
 * exits 2 naming it.
 */

#pragma once

#include <cstdio>
#include <string>

#include "experiments/experiments.hh"

namespace mica::bench
{

/** Print the standard harness banner. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::printf("================================================"
                "=====================\n");
    std::printf("%s\n", what.c_str());
    std::printf("Reproduces: %s (Hoste & Eeckhout, IISWC 2006)\n",
                paperRef.c_str());
    std::printf("================================================"
                "=====================\n\n");
}

/**
 * Collect the dataset, reporting live progress. The banner goes to
 * stderr with the progress lines, so stdout is the same for any
 * --jobs.
 */
inline experiments::SuiteDataset
collectWithBanner(const experiments::DatasetConfig &cfg)
{
    std::fprintf(stderr, "[collecting %s profiles, budget=%llu%s, "
                         "jobs=%u]\n",
                 cfg.cacheDir.empty() ? "fresh" : "cached-or-fresh",
                 static_cast<unsigned long long>(cfg.maxInsts),
                 cfg.maxInsts == 0 ? " (run to completion)" : "",
                 cfg.jobs);
    experiments::DatasetConfig runCfg = cfg;
    if (!runCfg.progress)
        runCfg.progress = pipeline::stderrProgress();
    return experiments::collectSuiteDataset(runCfg);
}

} // namespace mica::bench
