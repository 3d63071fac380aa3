/**
 * @file
 * Instruction- and data-stream working set analyzer (Table II
 * characteristics 20-23).
 */

#pragma once

#include <cstdint>

#include "trace/trace_source.hh"
#include "util/flat_hash.hh"

namespace mica
{

/**
 * Counts the number of unique 32-byte blocks and unique 4 KB pages
 * touched by the data stream (loads + stores) and by the instruction
 * stream (instruction fetch addresses). Multi-byte accesses are
 * attributed to the block/page of their first byte.
 */
class WorkingSetAnalyzer : public TraceAnalyzer
{
  public:
    const char *name() const override { return "working_set"; }

    static constexpr unsigned kBlockBits = 5;   ///< 32-byte blocks
    static constexpr unsigned kPageBits = 12;   ///< 4 KB pages

    void
    acceptBatch(const InstRecord *recs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            step(recs[i]);
    }

    /** @return unique 32B blocks touched by loads/stores. */
    uint64_t dBlocks() const { return dBlocks_.size(); }

    /** @return unique 4KB pages touched by loads/stores. */
    uint64_t dPages() const { return dPages_.size(); }

    /** @return unique 32B blocks of executed instructions. */
    uint64_t iBlocks() const { return iBlocks_.size(); }

    /** @return unique 4KB pages of executed instructions. */
    uint64_t iPages() const { return iPages_.size(); }

  private:
    void
    step(const InstRecord &rec)
    {
        // Same-key filter: consecutive fetches overwhelmingly hit the
        // same block/page (the PC advances 4 bytes at a time), and
        // re-inserting a present key is a set no-op, so comparing
        // against the previous key skips most hash probes outright.
        const uint64_t iBlock = rec.pc >> kBlockBits;
        if (iBlock != lastIBlock_) {
            lastIBlock_ = iBlock;
            iBlocks_.insert(iBlock);
            const uint64_t iPage = rec.pc >> kPageBits;
            if (iPage != lastIPage_) {
                lastIPage_ = iPage;
                iPages_.insert(iPage);
            }
        }
        if (rec.isMem()) {
            const uint64_t dBlock = rec.memAddr >> kBlockBits;
            if (dBlock != lastDBlock_) {
                lastDBlock_ = dBlock;
                dBlocks_.insert(dBlock);
            }
            const uint64_t dPage = rec.memAddr >> kPageBits;
            if (dPage != lastDPage_) {
                lastDPage_ = dPage;
                dPages_.insert(dPage);
            }
        }
    }

    /** ~0 is unreachable: block/page keys are address >> 5 or >> 12. */
    static constexpr uint64_t kNoKey = ~0ull;

    // Block/page numbers are natural keys: the cheap fold-multiply
    // hash spreads them fine.
    util::FlatHashSet<uint64_t, util::MulHash> dBlocks_;
    util::FlatHashSet<uint64_t, util::MulHash> dPages_;
    util::FlatHashSet<uint64_t, util::MulHash> iBlocks_;
    util::FlatHashSet<uint64_t, util::MulHash> iPages_;
    uint64_t lastIBlock_ = kNoKey;
    uint64_t lastIPage_ = kNoKey;
    uint64_t lastDBlock_ = kNoKey;
    uint64_t lastDPage_ = kNoKey;
};

} // namespace mica
