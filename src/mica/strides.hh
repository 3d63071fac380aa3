/**
 * @file
 * Local and global data-stride analyzer (Table II characteristics
 * 24-43), after Lau et al. [13].
 */

#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>

#include "trace/trace_source.hh"
#include "util/flat_hash.hh"

namespace mica
{

/**
 * Characterizes the data stream with stride distributions:
 *
 *  - a *global* stride is the absolute address difference between
 *    temporally adjacent memory accesses of the same kind (load or
 *    store), regardless of which instruction issued them;
 *  - a *local* stride is the same quantity restricted to accesses by a
 *    single static instruction (tracked per PC).
 *
 * For each of the four streams (local/global x load/store) the analyzer
 * reports the cumulative probability of strides being 0, <= 8, <= 64,
 * <= 512 and <= 4096 bytes.
 */
class StrideAnalyzer : public TraceAnalyzer
{
  public:
    const char *name() const override { return "strides"; }

    /** Cumulative stride cut points from Table II (0 means exactly 0). */
    static constexpr std::array<uint64_t, 5> kCuts = {0, 8, 64, 512, 4096};

    /** One stride distribution, bucketed between the cumulative cuts. */
    struct Dist
    {
        /** hist[c] counts kCuts[c-1] < stride <= kCuts[c]; the last
         *  bucket collects strides beyond the final cut. */
        std::array<uint64_t, 6> hist{};
        uint64_t total = 0;

        void
        add(uint64_t stride)
        {
            ++total;
            // Branchless bucket select: the cuts are sorted, so the
            // bucket index is how many cuts the stride exceeds. One
            // increment replaces a compare-and-add per cut; prob()
            // folds the histogram back into cumulative counts.
            size_t c = 0;
            for (uint64_t cut : kCuts)
                c += stride > cut;
            ++hist[c];
        }

        double
        prob(size_t cut) const
        {
            if (!total)
                return 0.0;
            uint64_t n = 0;
            for (size_t c = 0; c <= cut; ++c)
                n += hist[c];
            return static_cast<double>(n) /
                   static_cast<double>(total);
        }
    };

    void
    acceptBatch(const InstRecord *recs, size_t n) override
    {
        // Two passes, loads then stores. Every stride stream is
        // defined within one access kind — global strides per kind,
        // local strides per (kind, pc) — so processing the span's
        // stores after its loads cannot change any distribution, and
        // each pass runs with its kind's state selected once instead
        // of re-selected per record.
        scanKind(recs, n, InstClass::Load, lastGlobalLoad_, globalLoad_,
                 lastLocalLoad_, localLoad_);
        scanKind(recs, n, InstClass::Store, lastGlobalStore_,
                 globalStore_, lastLocalStore_, localStore_);
    }

    const Dist &localLoad() const { return localLoad_; }
    const Dist &globalLoad() const { return globalLoad_; }
    const Dist &localStore() const { return localStore_; }
    const Dist &globalStore() const { return globalStore_; }

  private:
    void
    step(const InstRecord &rec)
    {
        if (!rec.isMem())
            return;
        const bool is_load = rec.cls == InstClass::Load;
        auto &globalLast = is_load ? lastGlobalLoad_ : lastGlobalStore_;
        auto &globalDist = is_load ? globalLoad_ : globalStore_;
        auto &localMap = is_load ? lastLocalLoad_ : lastLocalStore_;
        auto &localDist = is_load ? localLoad_ : localStore_;

        if (globalLast.valid)
            globalDist.add(absDiff(rec.memAddr, globalLast.addr));
        globalLast.addr = rec.memAddr;
        globalLast.valid = true;

        auto [lastAddr, inserted] =
            localMap.tryEmplace(rec.pc, rec.memAddr);
        if (!inserted) {
            localDist.add(absDiff(rec.memAddr, *lastAddr));
            *lastAddr = rec.memAddr;
        }
    }

    static uint64_t
    absDiff(uint64_t a, uint64_t b)
    {
        return a > b ? a - b : b - a;
    }

    struct Last;

    void
    scanKind(const InstRecord *recs, size_t n, InstClass kind,
             Last &globalLast, Dist &globalDist,
             util::FlatHashMap<uint64_t, uint64_t, util::MulHash>
                 &localMap,
             Dist &localDist)
    {
        for (size_t i = 0; i < n; ++i) {
            const InstRecord &rec = recs[i];
            if (rec.cls != kind)
                continue;
            if (globalLast.valid)
                globalDist.add(absDiff(rec.memAddr, globalLast.addr));
            globalLast.addr = rec.memAddr;
            globalLast.valid = true;

            auto [lastAddr, inserted] =
                localMap.tryEmplace(rec.pc, rec.memAddr);
            if (!inserted) {
                localDist.add(absDiff(rec.memAddr, *lastAddr));
                *lastAddr = rec.memAddr;
            }
        }
    }

    struct Last
    {
        uint64_t addr = 0;
        bool valid = false;
    };

    Dist localLoad_, globalLoad_, localStore_, globalStore_;
    Last lastGlobalLoad_, lastGlobalStore_;
    // Keyed by instruction PC — a natural key space, cheap hash.
    util::FlatHashMap<uint64_t, uint64_t, util::MulHash> lastLocalLoad_;
    util::FlatHashMap<uint64_t, uint64_t, util::MulHash> lastLocalStore_;
};

} // namespace mica
