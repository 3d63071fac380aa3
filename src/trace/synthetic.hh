/**
 * @file
 * Synthetic trace sources used by unit and property tests.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/inst_record.hh"
#include "trace/trace_source.hh"

namespace mica
{

/**
 * Replays a pre-built vector of records, lending spans of it.
 */
class VectorTraceSource : public TraceSource
{
  public:
    VectorTraceSource() = default;

    explicit VectorTraceSource(std::vector<InstRecord> recs)
        : recs_(std::move(recs))
    {}

    /** Append a record to the replay buffer. */
    void push(const InstRecord &rec) { recs_.push_back(rec); }

    /** Pre-size the buffer when the trace length is known up front. */
    void reserve(size_t n) { recs_.reserve(n); }

    /** @return number of records in the buffer. */
    size_t size() const { return recs_.size(); }

    size_t
    nextSpan(const InstRecord *&span, InstRecord *, size_t n) override
    {
        // The replay buffer is already materialized: lend it out
        // directly instead of copying into the engine's batch.
        const size_t got = std::min(n, recs_.size() - pos_);
        span = recs_.data() + pos_;
        pos_ += got;
        return got;
    }

  private:
    std::vector<InstRecord> recs_;
    size_t pos_ = 0;
};

/**
 * Parameters of the random trace generator. Probabilities are selected
 * in declaration order; whatever remains is integer ALU work.
 */
struct RandomTraceParams
{
    uint64_t numInsts = 10000;
    uint64_t seed = 1;
    double pLoad = 0.25;
    double pStore = 0.10;
    double pBranch = 0.10;
    double pFp = 0.10;
    double pIntMul = 0.02;
    double pTaken = 0.6;        ///< branch taken probability
    uint64_t dataFootprint = 1 << 16;   ///< bytes of data touched
    uint64_t codeFootprint = 1 << 12;   ///< bytes of code touched
};

/**
 * Generates a pseudo-random—but deterministic—instruction stream.
 *
 * Used by property tests to exercise analyzers across a wide parameter
 * space without depending on the ISA layer. The generator maintains a
 * plausible register-dependence structure (destinations cycle through the
 * register file; sources pick recently written registers).
 */
class RandomTraceSource : public TraceSource
{
  public:
    explicit RandomTraceSource(const RandomTraceParams &p)
        : params_(p), state_(p.seed ? p.seed : 0x9e3779b97f4a7c15ull)
    {}

    size_t nextSpan(const InstRecord *&span, InstRecord *buf,
                    size_t n) override;

    static constexpr uint64_t kCodeBase = 0x400000;
    static constexpr uint64_t kDataBase = 0x10000000;

  private:
    /** Generate one record into @p rec; false at the end. */
    bool genNext(InstRecord &rec);

    /** xorshift64* step. */
    uint64_t
    rnd()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    double rndUnit() { return (rnd() >> 11) * (1.0 / 9007199254740992.0); }

    RandomTraceParams params_;
    uint64_t state_;
    uint64_t emitted_ = 0;
    uint64_t pc_ = kCodeBase;
    uint16_t lastDst_ = 1;
};

} // namespace mica
