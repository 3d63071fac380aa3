/**
 * @file
 * Idealized-window ILP analyzer (Table II characteristics 7-10).
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace_source.hh"

namespace mica
{

/**
 * Measures the IPC achievable by an idealized out-of-order processor
 * limited only by its reorder-window size, per the paper: perfect caches,
 * perfect branch prediction, infinite functional units, unit execution
 * latency. An instruction may start executing once (i) it has entered the
 * window — it enters when the instruction W positions older has completed
 * (in-order window advance) — and (ii) all its register producers have
 * completed. Memory dependences are not modeled (perfect memory
 * disambiguation), matching the register-dataflow limit study the
 * characteristic is defined as.
 *
 * The windows are independent, so up to four of them step in lockstep
 * over one register-major table: each register's row holds its ready
 * cycle in every window, and one completion ring holds every window's
 * recent completions. A source operand is one contiguous row load, not
 * one load per window.
 *
 * The constructor throws std::invalid_argument for an empty window
 * list, a zero window, or more than kMaxWindows windows.
 */
class IlpAnalyzer : public TraceAnalyzer
{
  public:
    /** Windows evaluated per pass (the paper sweeps four). */
    static constexpr size_t kMaxWindows = 4;

    const char *name() const override { return "ilp"; }

    /** Default window sweep from the paper. */
    static const std::vector<size_t> &
    paperWindows()
    {
        static const std::vector<size_t> w = {32, 64, 128, 256};
        return w;
    }

    explicit IlpAnalyzer(const std::vector<size_t> &windows = paperWindows())
        : numWindows_(windows.size())
    {
        if (windows.empty() || windows.size() > kMaxWindows)
            throw std::invalid_argument(
                "ILP needs 1 to " + std::to_string(kMaxWindows) +
                " windows, got " + std::to_string(windows.size()));
        // Unused lanes repeat the last window: they compute the same
        // values and are never reported.
        size_t largest = 0;
        for (size_t l = 0; l < kMaxWindows; ++l) {
            const size_t w = windows[std::min(l, windows.size() - 1)];
            if (w == 0)
                throw std::invalid_argument(
                    "ILP window size must be positive");
            window_[l] = w;
            largest = std::max(largest, w);
        }
        // The ring is the next power of two >= the largest window, so
        // one mask indexes it for every window. The bound keeps the
        // doubling finite; a ring past max_size() throws length_error.
        size_t rows = 1;
        while (rows < largest && rows < ring_.max_size())
            rows <<= 1;
        ring_.assign(rows, Row{});
        mask_ = rows - 1;
    }

    void
    acceptBatch(const InstRecord *recs, size_t n) override
    {
        // The count, the per-window maxima and the window sizes stay in
        // locals for the whole batch: stores through uint64_t rows
        // would otherwise force a reload of each per record.
        uint64_t count = count_;
        Row maxc = maxComplete_;
        uint64_t window[kMaxWindows];
        for (size_t l = 0; l < kMaxWindows; ++l)
            window[l] = window_[l];
        Row *const ring = ring_.data();
        const uint64_t mask = mask_;

        for (size_t i = 0; i < n; ++i) {
            const InstRecord &rec = recs[i];
            // Window-entry constraint: in-order advance; a window's
            // slot frees when the instruction `window` positions older
            // completed. Before that instruction exists its row is
            // still 0.
            Row start;
            for (size_t l = 0; l < kMaxWindows; ++l)
                start.c[l] = ring[(count - window[l]) & mask].c[l];
            for (unsigned s = 0; s < rec.numSrcRegs; ++s) {
                const uint16_t r = rec.srcRegs[s];
                if (r == kZeroReg || r >= kNumRegs)
                    continue;
                const Row &ready = ready_[r];
                for (size_t l = 0; l < kMaxWindows; ++l)
                    start.c[l] = std::max(start.c[l], ready.c[l]);
            }
            // Records that write no in-range, non-zero register write
            // the sink row, which is never read.
            const uint16_t d = rec.dstReg;
            Row &dst = ready_[d != kZeroReg && d < kNumRegs ? d : kNumRegs];
            Row &slot = ring[count & mask];
            for (size_t l = 0; l < kMaxWindows; ++l) {
                const uint64_t comp = start.c[l] + 1;
                slot.c[l] = comp;
                dst.c[l] = comp;
                maxc.c[l] = std::max(maxc.c[l], comp);
            }
            ++count;
        }
        count_ = count;
        maxComplete_ = maxc;
    }

    /** @return number of window configurations. */
    size_t numWindows() const { return numWindows_; }

    /** @return configured size of window i. */
    size_t windowSize(size_t i) const { return window_[i]; }

    /** @return achieved IPC for window configuration i. */
    double
    ipc(size_t i) const
    {
        return maxComplete_.c[i]
            ? static_cast<double>(count_) /
              static_cast<double>(maxComplete_.c[i])
            : 0.0;
    }

  private:
    /**
     * One cycle per window: a register's ready row or a ring row,
     * aligned so that it never straddles a cache line.
     */
    struct alignas(32) Row
    {
        uint64_t c[kMaxWindows] = {};
    };

    size_t numWindows_;
    std::array<size_t, kMaxWindows> window_{};
    uint64_t mask_ = 0;
    std::vector<Row> ring_;
    /** One row per register plus the sink row (index kNumRegs). */
    std::array<Row, kNumRegs + 1> ready_{};
    uint64_t count_ = 0;
    Row maxComplete_;
};

} // namespace mica
