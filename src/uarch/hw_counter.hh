/**
 * @file
 * Hardware-performance-counter characterization (Section III-B).
 *
 * The paper measures IPC, branch misprediction rate, L1 D/I miss rates,
 * L2 miss rate and D-TLB miss rate on an Alpha 21164A (EV56, in-order
 * dual-issue) plus IPC on an Alpha 21264A (EV67, 4-wide out-of-order).
 * This module substitutes a trace-driven simulation of equivalently
 * shaped machines; see DESIGN.md for the substitution argument.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_source.hh"
#include "uarch/cache.hh"
#include "uarch/predictors.hh"

namespace mica::uarch
{

/** Machine configuration for the HPC characterization. */
struct MachineConfig
{
    CacheConfig l1i{8 * 1024, 32, 1};       ///< EV56: 8KB direct L1I
    CacheConfig l1d{8 * 1024, 32, 1};       ///< EV56: 8KB direct L1D
    CacheConfig l2{96 * 1024, 64, 3};       ///< EV56: 96KB 3-way S-cache
    unsigned dtlbEntries = 64;              ///< EV56: 64-entry DTLB
    unsigned dtlbPageBits = 13;             ///< 8KB pages

    // In-order (EV56-like) cost model parameters, in cycles.
    double issueWidth56 = 2.0;
    double l1MissPenalty = 8.0;
    double l2MissPenalty = 50.0;
    double tlbMissPenalty = 30.0;
    double branchMissPenalty56 = 5.0;
    double intDivCost = 8.0;
    double fpDivCost = 12.0;

    // Out-of-order (EV67-like) window model parameters.
    unsigned window67 = 80;
    unsigned issueWidth67 = 4;
    double branchMissPenalty67 = 7.0;
    unsigned latIntAlu = 1, latIntMul = 7, latIntDiv = 20;
    unsigned latFpAlu = 4, latFpMul = 4, latFpDiv = 12;
    unsigned latLoadL1 = 3, latLoadL2 = 13, latLoadMem = 80;
    unsigned latStore = 1, latBranch = 1;
};

/** The seven hardware-counter metrics (Section III-B order). */
struct HwCounterProfile
{
    std::string name;
    uint64_t instCount = 0;

    double ipcEv56 = 0.0;       ///< in-order IPC
    double ipcEv67 = 0.0;       ///< out-of-order IPC
    double branchMissRate = 0.0;
    double l1dMissRate = 0.0;
    double l1iMissRate = 0.0;
    double l2MissRate = 0.0;    ///< local L2 miss rate
    double dtlbMissRate = 0.0;

    static constexpr size_t kNumMetrics = 7;

    /** @return metric names in vector order. */
    static const std::array<const char *, kNumMetrics> &metricNames();

    /** @return metrics as a vector (for Matrix::appendRow). */
    std::vector<double> toVector() const;
};

/**
 * Single-pass trace analyzer producing a HwCounterProfile. One shared
 * cache hierarchy feeds both cost models: miss events charge stall
 * cycles to the in-order model and stretch load latencies in the
 * out-of-order window model.
 *
 * The constructor throws std::invalid_argument for a zero EV67 window
 * or issue width, and for cache and predictor tables the models would
 * mis-index (see Cache and the predictors).
 */
class HwCounterAnalyzer final : public TraceAnalyzer
{
  public:
    const char *name() const override { return "hw_counter"; }

    explicit HwCounterAnalyzer(const MachineConfig &cfg = {});

    void accept(const InstRecord &rec) override { step(rec); }

    void
    acceptBatch(const InstRecord *recs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            step(recs[i]);
    }

    /** @return the profile measured so far. */
    HwCounterProfile profile(const std::string &name) const;

  private:
    /** Where an access hit: index into the per-level tables. */
    enum MemLevel : uint8_t { L1, L2, Mem, kNumLevels };

    /** One record through both models; inlined into both entries. */
    [[gnu::always_inline]] inline void step(const InstRecord &rec);

    MachineConfig cfg_;
    Cache l1i_, l1d_, l2_;
    Tlb dtlb_;
    BimodalPredictor bimodal_;
    TournamentPredictor tournament_;

    uint64_t insts_ = 0;
    uint64_t condBranches_ = 0;
    uint64_t bimodalMisses_ = 0;

    // EV56 accumulated stall cycles (issue cycles added at the end),
    // and the stall a miss served at each level charges.
    double stall56_ = 0.0;
    double missStall56_[kNumLevels];

    // EV67 dataflow window state. Slot 0 of regReady67_ (the zero
    // register) is never written, and slot kNumRegs absorbs writes
    // that name no architectural register.
    std::vector<uint64_t> complete67_;
    size_t slot67_ = 0;             ///< insts_ % window67
    uint64_t issueCycle67_ = 0;     ///< insts_ / issueWidth67
    unsigned issuePhase67_ = 0;     ///< insts_ % issueWidth67
    std::array<uint64_t, kNumRegs + 1> regReady67_{};
    uint64_t fetchReady67_ = 0;
    uint64_t maxComplete67_ = 0;
    uint64_t mispredPenalty67_;
    unsigned lat67_[kNumInstClasses][kNumLevels];   ///< by class, level
};

inline void
HwCounterAnalyzer::step(const InstRecord &rec)
{
    // ----------------------------------------------------------------
    // Shared memory hierarchy.
    // ----------------------------------------------------------------
    MemLevel ilevel = L1;
    if (!l1i_.access(rec.pc))
        ilevel = l2_.access(rec.pc) ? L2 : Mem;

    MemLevel dlevel = L1;
    bool dtlbMiss = false;
    if (rec.isMem()) {
        dtlbMiss = !dtlb_.access(rec.memAddr);
        if (!l1d_.access(rec.memAddr))
            dlevel = l2_.access(rec.memAddr) ? L2 : Mem;
    }

    // ----------------------------------------------------------------
    // Branch predictors.
    // ----------------------------------------------------------------
    bool mispred67 = false;
    if (rec.isCondBranch()) {
        ++condBranches_;
        bimodalMisses_ +=
            bimodal_.predictAndUpdate(rec.pc, rec.taken) != rec.taken;
        mispred67 =
            tournament_.predictAndUpdate(rec.pc, rec.taken) != rec.taken;
    }

    // ----------------------------------------------------------------
    // EV56-like in-order stall accounting. The additions keep their
    // order (instruction side, TLB, data side, divide): the double
    // sum depends on it. The branch misprediction stall is charged
    // once at the end from bimodalMisses_ (profile()).
    // ----------------------------------------------------------------
    if (ilevel != L1)
        stall56_ += missStall56_[ilevel];
    if (dtlbMiss)
        stall56_ += cfg_.tlbMissPenalty;
    if (dlevel != L1)
        stall56_ += missStall56_[dlevel];
    if (rec.cls == InstClass::IntDiv)
        stall56_ += cfg_.intDivCost;
    else if (rec.cls == InstClass::FpDiv)
        stall56_ += cfg_.fpDivCost;

    // ----------------------------------------------------------------
    // EV67-like out-of-order dataflow window.
    // ----------------------------------------------------------------
    uint64_t start = std::max(complete67_[slot67_], fetchReady67_);
    start = std::max(start, issueCycle67_);
    for (unsigned s = 0; s < rec.numSrcRegs; ++s) {
        const uint16_t r = rec.srcRegs[s];
        start = std::max(start, regReady67_[r < kNumRegs ? r : kZeroReg]);
    }
    const uint64_t comp =
        start + lat67_[static_cast<size_t>(rec.cls)][dlevel];
    complete67_[slot67_] = comp;
    const uint16_t d = rec.dstReg;
    regReady67_[d != kZeroReg && d < kNumRegs ? d : kNumRegs] = comp;
    maxComplete67_ = std::max(maxComplete67_, comp);
    fetchReady67_ = mispred67 ? comp + mispredPenalty67_ : fetchReady67_;

    if (++slot67_ == complete67_.size())
        slot67_ = 0;
    if (++issuePhase67_ == cfg_.issueWidth67) {
        issuePhase67_ = 0;
        ++issueCycle67_;
    }
    ++insts_;
}

} // namespace mica::uarch
