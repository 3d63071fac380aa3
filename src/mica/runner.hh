/**
 * @file
 * One-pass collection of the full 47-characteristic MICA profile.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mica/profile.hh"
#include "trace/engine.hh"
#include "trace/trace_source.hh"

namespace mica
{

/** Knobs for profile collection. */
struct MicaRunnerConfig
{
    uint64_t maxInsts = 0;      ///< instruction budget (0 = unlimited)
    unsigned ppmMaxOrder = 8;   ///< PPM context depth

    /**
     * Records per engine batch. 0 selects the per-record reference
     * path (one virtual accept per instruction); anything else is the
     * batched fast path. Profiles are byte-identical either way, so
     * this knob is not part of the profile-store key.
     */
    size_t engineBatch = AnalysisEngine::kDefaultBatchSize;
};

/**
 * Runs all six analyzer families over one trace in a single pass and
 * assembles the resulting MicaProfile. This is the library's main entry
 * point for characterizing a workload:
 *
 * @code
 *   isa::Interpreter interp(program);
 *   MicaProfile p = collectMicaProfile(interp, "my-bench", {});
 * @endcode
 *
 * @param extra further analyzers (e.g. uarch::HwCounterAnalyzer) fed
 *        the same records in the same pass; the caller owns them and
 *        reads their results afterwards
 */
MicaProfile collectMicaProfile(TraceSource &src, const std::string &name,
                               const MicaRunnerConfig &cfg = {},
                               const std::vector<TraceAnalyzer *> &extra =
                                   {});

/**
 * Collect only a subset of characteristics, instantiating just the
 * analyzers the requested indices need. This realizes the paper's
 * headline speedup: measuring the 8 GA-selected characteristics needs
 * fewer analyzers than measuring all 47 (Section V, "approximately 3X").
 * Unrequested profile entries are left at 0.
 *
 * @param selected indices into the Table II characteristic list
 */
MicaProfile collectMicaProfileSubset(TraceSource &src,
                                     const std::string &name,
                                     const std::vector<size_t> &selected,
                                     const MicaRunnerConfig &cfg = {});

} // namespace mica
