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
 * A pull-based, single-pass producer of dynamic instructions: records
 * move in spans. To read a trace again, open another source over it.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Lend the next span of up to n records, with no copy when the
     * source already holds materialized records (replay buffers).
     *
     * On return, span points either into the source's own storage or
     * at buf, which the source fills. The span stays valid until the
     * next call that advances this source.
     *
     * A span may be shorter than n away from the end of the trace:
     * sources with chunked storage (file-backed traces) lend one
     * chunk's worth at a time, so only a return of 0 signals
     * exhaustion. Consumers must loop until 0. How a consumer cuts the
     * trace into spans never changes the records it sees.
     *
     * @param span out-parameter: start of the produced records
     * @param buf  caller-provided backing store of capacity n
     * @param n    maximum records to produce
     * @return number of records in span; 0 only at end of trace.
     */
    virtual size_t nextSpan(const InstRecord *&span, InstRecord *buf,
                            size_t n) = 0;

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

    /**
     * Observe a contiguous span of n dynamic instructions in trace
     * order. The result after the last span must not depend on how
     * the trace was cut into spans: n records in one call or in n
     * calls of one record give the same state. Each analyzer's
     * override is its whole batch loop, one devirtualized kernel per
     * span.
     */
    virtual void acceptBatch(const InstRecord *recs, size_t n) = 0;

    /** Called once after the last record of the trace. */
    virtual void finish() {}
};

} // namespace mica
