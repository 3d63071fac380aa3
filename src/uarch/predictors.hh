/**
 * @file
 * Hardware branch predictor models: bimodal (Alpha 21164-class) and a
 * local/global tournament predictor (Alpha 21264-class).
 */

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "uarch/cache.hh"

namespace mica::uarch
{

/** 2-bit saturating counter helper. */
struct Counter2
{
    uint8_t v = 1;  // weakly not-taken

    bool taken() const { return v >= 2; }

    /** Step toward the outcome, saturating at 0 and 3. */
    void
    update(bool t)
    {
        static constexpr uint8_t kNext[2][4] = {{0, 0, 1, 2}, {1, 2, 3, 3}};
        v = kNext[t][v];
    }
};

/**
 * Bimodal predictor: a table of 2-bit counters indexed by the branch PC.
 * Approximates the 21164A's simple branch prediction used for the EV56
 * hardware-counter branch misprediction rate.
 */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(size_t entries = 2048)
        : mask_(checkedPow2(entries, "bimodal table size") - 1),
          table_(entries)
    {}

    /** Predict, then update with the outcome. @return the prediction. */
    bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        Counter2 &c = table_[(pc >> 2) & mask_];
        const bool pred = c.taken();
        c.update(taken);
        return pred;
    }

  private:
    size_t mask_;
    std::vector<Counter2> table_;
};

/**
 * Tournament predictor in the style of the 21264: a per-branch local
 * history component, a global history component, and a chooser that
 * learns which component to trust per global history context.
 */
class TournamentPredictor
{
  public:
    TournamentPredictor(size_t localEntries = 1024,
                        unsigned localHistBits = 10,
                        size_t globalEntries = 4096)
        : localMask_(checkedPow2(localEntries, "local table size") - 1),
          localHist_(localEntries, 0),
          localPred_(1ull << checkedHistBits(localHistBits)),
          localHistMask_((1ull << localHistBits) - 1),
          globalMask_(checkedPow2(globalEntries, "global table size") - 1),
          globalPred_(globalEntries),
          choice_(globalEntries)
    {}

    /** Predict, then update with the outcome. @return the prediction. */
    bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        uint64_t &hist = localHist_[(pc >> 2) & localMask_];
        Counter2 &local = localPred_[hist & localHistMask_];
        Counter2 &global = globalPred_[ghist_ & globalMask_];
        Counter2 &choice = choice_[ghist_ & globalMask_];
        const bool localP = local.taken();
        const bool globalP = global.taken();
        const bool pred = choice.taken() ? globalP : localP;

        // Chooser trains toward the component that was right, and
        // only when the two disagree.
        Counter2 trained = choice;
        trained.update(globalP == taken);
        choice.v = localP != globalP ? trained.v : choice.v;
        local.update(taken);
        global.update(taken);
        hist = (hist << 1) | taken;
        ghist_ = (ghist_ << 1) | taken;
        return pred;
    }

  private:
    static unsigned
    checkedHistBits(unsigned bits)
    {
        if (bits < 1 || bits > 63)
            throw std::invalid_argument(
                "local history bits must be in 1..63, got " +
                std::to_string(bits));
        return bits;
    }

    size_t localMask_;
    std::vector<uint64_t> localHist_;
    std::vector<Counter2> localPred_;
    uint64_t localHistMask_;
    uint64_t globalMask_;
    std::vector<Counter2> globalPred_;
    std::vector<Counter2> choice_;
    uint64_t ghist_ = 0;
};

} // namespace mica::uarch
