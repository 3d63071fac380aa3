/**
 * @file
 * Abstract interfaces for producers and consumers of instruction traces.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "trace/inst_record.hh"

namespace mica
{

/**
 * A pull-based producer of dynamic instructions.
 *
 * Sources are single-pass by default; sources that can be re-run (e.g.,
 * the interpreter, replay buffers) override reset().
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next dynamic instruction.
     *
     * @param rec Output record, valid only when the call returns true.
     * @retval true a record was produced.
     * @retval false the trace is exhausted.
     */
    virtual bool next(InstRecord &rec) = 0;

    /**
     * Produce up to n records into buf.
     *
     * The default implementation loops next(), so every source gets
     * the bulk API for free; sources with cheap bulk access (replay
     * buffers, generators, the interpreter) override it to amortize
     * the per-record virtual call. A batch is a plain prefix of the
     * record stream: mixing next() and nextBatch() calls observes the
     * same trace in the same order.
     *
     * @param buf destination for up to n records
     * @param n   batch capacity (may be 0)
     * @return number of records produced; < n only at end of trace.
     */
    virtual size_t
    nextBatch(InstRecord *buf, size_t n)
    {
        size_t got = 0;
        while (got < n && next(buf[got]))
            ++got;
        return got;
    }

    /**
     * Borrow the next span of up to n records with no copy when the
     * source already holds materialized records (replay buffers).
     *
     * On return, span points either into the source's own storage or
     * at buf (the default implementation fills buf via nextBatch).
     * The span stays valid until the next call that advances this
     * source. Consumes the same records as nextBatch would.
     *
     * Unlike nextBatch, a span may be shorter than n away from the
     * end of the trace: sources with chunked storage (file-backed
     * traces) lend one chunk's worth at a time, so only a return of 0
     * signals exhaustion. Consumers must loop until 0.
     *
     * @param span out-parameter: start of the produced records
     * @param buf  caller-provided backing store of capacity n
     * @param n    maximum records to produce
     * @return number of records in span; 0 only at end of trace.
     */
    virtual size_t
    nextSpan(const InstRecord *&span, InstRecord *buf, size_t n)
    {
        span = buf;
        return nextBatch(buf, n);
    }

    /**
     * Rewind the source to the beginning of the trace.
     *
     * @retval true the source supports re-running and has been rewound.
     * @retval false the source is single-pass.
     */
    virtual bool reset() { return false; }

    /**
     * Called once by a consumer that has stopped pulling, at the end
     * of the trace or at its budget. A source whose records carry an
     * end-of-stream check (FileTraceSource: the record count and the
     * payload checksum) reads the rest and runs that check here, so
     * the consumer cannot return a result computed from a stream that
     * fails it.
     *
     * @throws whatever the source's own check throws.
     */
    virtual void finish() {}
};

/**
 * A consumer of dynamic instructions.
 *
 * Analyzers accumulate state over the trace; finish() is invoked exactly
 * once after the last record so analyzers can flush pending state (e.g.,
 * open register-use instances).
 */
class TraceAnalyzer
{
  public:
    virtual ~TraceAnalyzer() = default;

    /**
     * Short stable identifier ("inst_mix", "ppm", ...) used to label
     * telemetry — per-analyzer batch-kernel histograms are named
     * engine.<name>.batch_ns. Not a display string.
     */
    virtual const char *name() const { return "analyzer"; }

    /** Observe one dynamic instruction. */
    virtual void accept(const InstRecord &rec) = 0;

    /**
     * Observe a contiguous span of n dynamic instructions in trace
     * order.
     *
     * The contract: acceptBatch(recs, n) must be observationally
     * identical to calling accept(recs[i]) for i in [0, n) — the
     * default implementation does exactly that, so analyzers that
     * only implement accept() are always correct. Analyzers on the
     * profiling hot path override it so their whole batch loop is one
     * tight, devirtualized kernel: one virtual call per batch instead
     * of one per instruction.
     */
    virtual void
    acceptBatch(const InstRecord *recs, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            accept(recs[i]);
    }

    /** Called once after the last record of the trace. */
    virtual void finish() {}
};

} // namespace mica
