/**
 * @file
 * Register-traffic analyzer (Table II characteristics 11-19), after
 * Franklin & Sohi's register traffic analysis [12].
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "trace/trace_source.hh"

namespace mica
{

/**
 * Measures three register-traffic properties:
 *
 *  - average number of register input operands per instruction;
 *  - average degree of use: how many times a register instance (one
 *    register write) is read before the register is overwritten;
 *  - the register dependency distance distribution: for every register
 *    read, the number of dynamic instructions since the value was
 *    produced, reported as cumulative probabilities at 1, 2, 4, 8, 16,
 *    32, 64.
 *
 * The hardwired zero register is excluded everywhere: reading it conveys
 * no dataflow.
 */
class RegTrafficAnalyzer : public TraceAnalyzer
{
  public:
    const char *name() const override { return "reg_traffic"; }

    /** Cumulative dependency-distance cut points from Table II. */
    static constexpr std::array<uint64_t, 7> kDistCuts =
        {1, 2, 4, 8, 16, 32, 64};

    void
    acceptBatch(const InstRecord *recs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            step(recs[i]);
    }

  private:
    void
    step(const InstRecord &rec)
    {
        // Reads first: an instruction consumes its sources before it
        // produces its destination.
        for (unsigned s = 0; s < rec.numSrcRegs; ++s) {
            const uint16_t r = rec.srcRegs[s];
            if (r == kZeroReg || r >= kNumRegs)
                continue;
            ++totalReads_;
            auto &st = regs_[r];
            if (st.written) {
                ++st.uses;
                const uint64_t dist = instIdx_ - st.lastWriteIdx;
                ++totalDeps_;
                // One histogram bucket per dependence instead of a
                // comparison per cut: the cuts are powers of two, so
                // the bucket is the bit width of dist - 1 (dist >= 1
                // always: the producer precedes the reader). Bucket 7
                // collects distances beyond the last cut;
                // depDistanceCum() folds the histogram back into the
                // cumulative counts.
                const int bucket = dist <= 1
                    ? 0
                    : std::min<int>(kDistCuts.size(),
                                    64 - __builtin_clzll(dist - 1));
                ++distHist_[bucket];
            }
        }
        if (rec.hasDst() && rec.dstReg != kZeroReg &&
            rec.dstReg < kNumRegs) {
            auto &st = regs_[rec.dstReg];
            if (st.written) {
                useSum_ += st.uses;
                ++instances_;
            }
            st.written = true;
            st.uses = 0;
            st.lastWriteIdx = instIdx_;
        }
        ++instIdx_;
        ++totalInsts_;
    }

  public:
    void
    finish() override
    {
        if (flushed_)
            return;
        flushed_ = true;
        // Close the still-live register instances.
        for (auto &st : regs_) {
            if (st.written) {
                useSum_ += st.uses;
                ++instances_;
            }
        }
    }

    /** @return average register input operands per instruction. */
    double
    avgInputOperands() const
    {
        return totalInsts_ ? static_cast<double>(totalReads_) /
                             static_cast<double>(totalInsts_) : 0.0;
    }

    /** @return average times a register instance is consumed. */
    double
    avgDegreeOfUse() const
    {
        return instances_ ? static_cast<double>(useSum_) /
                            static_cast<double>(instances_) : 0.0;
    }

    /**
     * @return cumulative probability that a register dependence spans at
     *         most kDistCuts[cut] dynamic instructions.
     */
    double
    depDistanceCum(size_t cut) const
    {
        if (!totalDeps_)
            return 0.0;
        uint64_t n = 0;
        for (size_t b = 0; b <= cut; ++b)
            n += distHist_[b];
        return static_cast<double>(n) /
               static_cast<double>(totalDeps_);
    }

    /** @return total register reads with a known producer. */
    uint64_t totalDeps() const { return totalDeps_; }

  private:
    struct RegState
    {
        bool written = false;
        uint64_t uses = 0;
        uint64_t lastWriteIdx = 0;
    };

    std::array<RegState, kNumRegs> regs_{};
    std::array<uint64_t, 8> distHist_{};    ///< [7] = beyond last cut
    uint64_t totalReads_ = 0;
    uint64_t totalDeps_ = 0;
    uint64_t totalInsts_ = 0;
    uint64_t instIdx_ = 0;
    uint64_t useSum_ = 0;
    uint64_t instances_ = 0;
    bool flushed_ = false;
};

} // namespace mica
