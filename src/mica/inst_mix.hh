/**
 * @file
 * Instruction-mix analyzer (Table II characteristics 1-6).
 */

#pragma once

#include <array>
#include <cstdint>

#include "trace/trace_source.hh"

namespace mica
{

/**
 * Counts dynamic instructions per class and reports the paper's six mix
 * percentages: loads, stores, control transfers, (non-multiply) integer
 * arithmetic, integer multiplies, and floating-point operations.
 */
class InstMixAnalyzer : public TraceAnalyzer
{
  public:
    const char *name() const override { return "inst_mix"; }

    void
    acceptBatch(const InstRecord *recs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            step(recs[i]);
    }

    /** @return total dynamic instructions observed. */
    uint64_t total() const { return total_; }

    /** @return raw count for one class. */
    uint64_t count(InstClass c) const
    {
        return counts_[static_cast<size_t>(c)];
    }

    /** @return fraction in [0, 1] of instructions in class c. */
    double
    fraction(InstClass c) const
    {
        return total_ ? static_cast<double>(count(c)) /
                        static_cast<double>(total_) : 0.0;
    }

    double pctLoads() const { return 100.0 * fraction(InstClass::Load); }
    double pctStores() const { return 100.0 * fraction(InstClass::Store); }

    double
    pctControl() const
    {
        const uint64_t n = count(InstClass::Branch) +
            count(InstClass::Jump) + count(InstClass::Call) +
            count(InstClass::Return);
        return total_ ? 100.0 * static_cast<double>(n) /
                        static_cast<double>(total_) : 0.0;
    }

    /** Integer arithmetic excluding multiplies (chars. 4 vs 5). */
    double
    pctArith() const
    {
        const uint64_t n = count(InstClass::IntAlu) +
            count(InstClass::IntDiv);
        return total_ ? 100.0 * static_cast<double>(n) /
                        static_cast<double>(total_) : 0.0;
    }

    double
    pctIntMul() const
    {
        return 100.0 * fraction(InstClass::IntMul);
    }

    double
    pctFpOps() const
    {
        const uint64_t n = count(InstClass::FpAlu) +
            count(InstClass::FpMul) + count(InstClass::FpDiv);
        return total_ ? 100.0 * static_cast<double>(n) /
                        static_cast<double>(total_) : 0.0;
    }

  private:
    void
    step(const InstRecord &rec)
    {
        ++counts_[static_cast<size_t>(rec.cls)];
        ++total_;
    }

    std::array<uint64_t, kNumInstClasses> counts_{};
    uint64_t total_ = 0;
};

} // namespace mica
