/**
 * @file
 * Prediction-by-Partial-Matching branch predictability (Table II
 * characteristics 44-47), after Chen, Coffey & Mudge [14].
 *
 * PPM is a universal compression/prediction scheme; its misprediction
 * rate is a microarchitecture-independent measure of how predictable a
 * benchmark's branches are, because it upper-bounds what any finite-
 * context history predictor can achieve rather than modeling a specific
 * hardware table organization.
 *
 * An order-k context is the last k outcomes of a history register, so
 * it takes only 2^k values. All orders 0..M of one pattern table
 * therefore fit one dense block of 2^(M+1)-1 int8_t counters, with the
 * order-k counter for history h at offset (2^k - 1) + (h & (2^k - 1)).
 * Every context owns its counter: the tables are exact, with no tags
 * and no aliasing. M is capped at kMaxOrder = 16, where a block is
 * 128 KiB.
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace_source.hh"
#include "util/flat_hash.hh"

namespace mica
{

/**
 * Runs the four PPM variants of Table II (GAg, PAg, GAs, PAs) over the
 * conditional branches of a trace and reports their miss rates.
 *
 * The variants combine two orthogonal axes of the two-level predictor
 * taxonomy:
 *  - history: Global (one history register) vs. Per-address (one
 *    history register per static branch);
 *  - tables:  g (one block shared by all branches) vs. s (one block
 *    per static branch).
 *
 * Static branches get dense ids from one pc -> id map; the id indexes
 * the local histories PAg and PAs share and the GAs/PAs blocks. Memory
 * is 2 x static branches x (2^(M+1)-1) bytes plus the two shared blocks.
 */
class PpmBranchAnalyzer : public TraceAnalyzer
{
  public:
    const char *name() const override { return "ppm"; }

    static constexpr size_t kNumVariants = 4;

    /** Deepest supported context order (one block is 128 KiB). */
    static constexpr unsigned kMaxOrder = 16;

    /** @throws std::invalid_argument when maxOrder > kMaxOrder. */
    static void
    checkOrder(unsigned maxOrder)
    {
        if (maxOrder > kMaxOrder)
            throw std::invalid_argument(
                "PPM order " + std::to_string(maxOrder) +
                " exceeds the maximum of " + std::to_string(kMaxOrder));
    }

    /** @throws std::invalid_argument when maxOrder > kMaxOrder. */
    explicit PpmBranchAnalyzer(unsigned maxOrder = 8) : maxOrder_(maxOrder)
    {
        checkOrder(maxOrder);
        blockSize_ = (size_t{2} << maxOrder) - 1;
        gag_.assign(blockSize_, 0);
        pag_.assign(blockSize_, 0);
    }

    void
    acceptBatch(const InstRecord *recs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            step(recs[i]);
    }

    /** @return dynamic conditional branches observed. */
    uint64_t branches() const { return branches_; }

    double missRateGAg() const { return rate(0); }
    double missRatePAg() const { return rate(1); }
    double missRateGAs() const { return rate(2); }
    double missRatePAs() const { return rate(3); }

  private:
    static constexpr int8_t kCtrMax = 4;

    void
    step(const InstRecord &rec)
    {
        if (!rec.isCondBranch())
            return;
        ++branches_;
        const auto [slot, fresh] = ids_.tryEmplace(
            rec.pc, static_cast<uint32_t>(localHist_.size()));
        const uint32_t id = *slot;
        if (fresh) {
            localHist_.push_back(0);
            gas_.resize(gas_.size() + blockSize_);
            pas_.resize(pas_.size() + blockSize_);
        }
        const size_t block = id * blockSize_;
        uint32_t &local = localHist_[id];
        const bool taken = rec.taken;
        miss_[0] += walk(gag_.data(), globalHist_, taken) != taken;
        miss_[1] += walk(pag_.data(), local, taken) != taken;
        miss_[2] += walk(gas_.data() + block, globalHist_, taken) != taken;
        miss_[3] += walk(pas_.data() + block, local, taken) != taken;
        globalHist_ = (globalHist_ << 1) | taken;
        local = (local << 1) | taken;
    }

    /**
     * Predict with the longest context whose counter is non-zero (a
     * cold branch predicts taken), then step every order's counter
     * toward the outcome, saturating at +-kCtrMax. Walking up from
     * order 0, the last non-zero counter seen is the longest one.
     *
     * @return the prediction made before the update.
     */
    bool
    walk(int8_t *counters, uint32_t history, bool taken)
    {
        const int8_t delta = taken ? 1 : -1;
        const int8_t rail = taken ? kCtrMax : -kCtrMax;
        bool prediction = true;
        for (unsigned k = 0; k <= maxOrder_; ++k) {
            const uint32_t mask = (1u << k) - 1;
            int8_t &c = counters[mask + (history & mask)];
            prediction = c != 0 ? c > 0 : prediction;
            c = static_cast<int8_t>(c + (c != rail ? delta : 0));
        }
        return prediction;
    }

    double
    rate(size_t v) const
    {
        return branches_ ? static_cast<double>(miss_[v]) /
                           static_cast<double>(branches_) : 0.0;
    }

    unsigned maxOrder_;
    size_t blockSize_ = 0;              ///< counters per block
    std::vector<int8_t> gag_, pag_;     ///< one shared block each
    std::vector<int8_t> gas_, pas_;     ///< one block per branch id
    util::FlatHashMap<uint64_t, uint32_t, util::MulHash> ids_;
    std::vector<uint32_t> localHist_;   ///< per branch id
    uint32_t globalHist_ = 0;
    uint64_t branches_ = 0;
    uint64_t miss_[kNumVariants] = {};
};

} // namespace mica
