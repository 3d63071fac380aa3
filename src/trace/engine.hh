/**
 * @file
 * Single-pass fan-out of one trace source into many analyzers.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "trace/trace_source.hh"

namespace mica
{

/**
 * Drives a TraceSource and broadcasts every record to a set of analyzers.
 *
 * This mirrors the structure of an ATOM/Pin analysis run: the instrumented
 * program is executed once while all requested characteristics are
 * accumulated concurrently. Analyzers are not owned by the engine.
 *
 * Records move in batches: the engine borrows a span of records from
 * the source per refill (TraceSource::nextSpan — zero-copy for replay
 * buffers, one source call per ~1K records otherwise) and hands the
 * whole span to each analyzer in turn through one
 * TraceAnalyzer::acceptBatch call, so every analyzer runs its own
 * devirtualized batch kernel. With the compact analyzer state of the
 * dense PPM tables and the MRU-stack caches, this measures faster on
 * the full seven-analyzer profile than fanning each record out to
 * every analyzer (one virtual call per analyzer per record).
 *
 * How the trace is cut into spans never changes an analyzer's result,
 * and analyzers are independent of one another, so the batch order
 * produces bit-identical results; tests compare one-record spans with
 * long ones.
 */
class AnalysisEngine
{
  public:
    /**
     * Records pulled per source refill. 1K records (~48 KB) keep the
     * batch close to L1-resident while each analyzer re-streams it,
     * yet amortize the virtual dispatch and loop overheads to noise.
     */
    static constexpr size_t kDefaultBatchSize = 1024;

    /** Register an analyzer; must outlive the run() call. */
    void add(TraceAnalyzer *a) { analyzers_.push_back(a); }

    /**
     * Pull record batches from the source until exhaustion or a budget
     * is hit, then finish() the source and every analyzer.
     *
     * @param src trace producer
     * @param maxInsts maximum number of dynamic instructions to process
     *                 (0 means unlimited)
     * @return number of instructions processed
     */
    uint64_t
    run(TraceSource &src, uint64_t maxInsts = 0)
    {
        static obs::Counter records("engine.records");
        obs::ObsSpan sp("engine.run");
        sp.arg("analyzers", static_cast<uint64_t>(analyzers_.size()));
        // Batch-kernel time is attributed per analyzer when there is
        // exactly one; with several, the histogram times all their
        // kernels over the batch together. One clock pair per
        // ~1K-record batch keeps the cost well under the overhead
        // budget even on the fastest analyzers.
        const bool lone = analyzers_.size() == 1;
        obs::Histogram kernelNs(
            lone ? "engine." + std::string(analyzers_.front()->name()) +
                    ".batch_ns"
                 : std::string("engine.batch_ns"));
        std::vector<InstRecord> buf(kDefaultBatchSize);
        uint64_t n = 0;
        for (;;) {
            size_t want = buf.size();
            if (maxInsts != 0 && maxInsts - n < want)
                want = static_cast<size_t>(maxInsts - n);
            if (want == 0)
                break;
            const InstRecord *span = nullptr;
            const size_t got = src.nextSpan(span, buf.data(), want);
            if (got == 0)
                break;
            const uint64_t t0 = obs::nowNs();
            for (auto *a : analyzers_)
                a->acceptBatch(span, got);
            kernelNs.record(obs::nowNs() - t0);
            n += got;
            records.add(got);
        }
        src.finish();
        for (auto *a : analyzers_)
            a->finish();
        sp.arg("records", n);
        return n;
    }

  private:
    std::vector<TraceAnalyzer *> analyzers_;
};

} // namespace mica
