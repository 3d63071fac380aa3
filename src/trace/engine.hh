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
 * acceptBatch is observationally identical to per-record processing,
 * and analyzers are independent of one another, so the batch order
 * produces bit-identical results; runPerRecord() keeps the original
 * record-at-a-time loop as the reference path for equivalence tests.
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

    /** Remove all registered analyzers. */
    void clear() { analyzers_.clear(); }

    /** @return number of registered analyzers. */
    size_t numAnalyzers() const { return analyzers_.size(); }

    /** Set records per batch; values below 1 clamp to 1. */
    void setBatchSize(size_t n) { batchSize_ = n ? n : 1; }

    /** @return records pulled per batch. */
    size_t batchSize() const { return batchSize_; }

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
        std::vector<InstRecord> buf(batchSize_);
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
        finishAll(src);
        sp.arg("records", n);
        return n;
    }

    /**
     * Reference path: the original record-at-a-time loop (one virtual
     * next() and one virtual accept() per instruction). Kept so tests
     * can assert the batched path is bit-identical, and selectable via
     * MicaRunnerConfig::engineBatch = 0.
     */
    uint64_t
    runPerRecord(TraceSource &src, uint64_t maxInsts = 0)
    {
        InstRecord rec;
        uint64_t n = 0;
        while ((maxInsts == 0 || n < maxInsts) && src.next(rec)) {
            for (auto *a : analyzers_)
                a->accept(rec);
            ++n;
        }
        finishAll(src);
        return n;
    }

  private:
    void
    finishAll(TraceSource &src)
    {
        src.finish();
        for (auto *a : analyzers_)
            a->finish();
    }

    std::vector<TraceAnalyzer *> analyzers_;
    size_t batchSize_ = kDefaultBatchSize;
};

} // namespace mica
