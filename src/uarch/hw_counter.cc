#include "uarch/hw_counter.hh"

#include <algorithm>
#include <stdexcept>

namespace mica::uarch
{

const std::array<const char *, HwCounterProfile::kNumMetrics> &
HwCounterProfile::metricNames()
{
    static const std::array<const char *, kNumMetrics> names = {
        "ipc_ev56", "ipc_ev67", "br_miss_rate", "l1d_miss_rate",
        "l1i_miss_rate", "l2_miss_rate", "dtlb_miss_rate",
    };
    return names;
}

std::vector<double>
HwCounterProfile::toVector() const
{
    return {ipcEv56, ipcEv67, branchMissRate, l1dMissRate,
            l1iMissRate, l2MissRate, dtlbMissRate};
}

HwCounterAnalyzer::HwCounterAnalyzer(const MachineConfig &cfg)
    : cfg_(cfg), l1i_(cfg.l1i), l1d_(cfg.l1d), l2_(cfg.l2),
      dtlb_(cfg.dtlbEntries, cfg.dtlbPageBits),
      complete67_(cfg.window67, 0),
      mispredPenalty67_(static_cast<uint64_t>(cfg.branchMissPenalty67))
{
    if (cfg.window67 == 0 || cfg.issueWidth67 == 0)
        throw std::invalid_argument(
            "EV67 window and issue width must be non-zero");

    missStall56_[L1] = 0.0;
    missStall56_[L2] = cfg.l1MissPenalty;
    missStall56_[Mem] = cfg.l1MissPenalty + cfg.l2MissPenalty;

    for (int c = 0; c < kNumInstClasses; ++c) {
        unsigned lat = cfg.latIntAlu;
        switch (static_cast<InstClass>(c)) {
          case InstClass::IntMul: lat = cfg.latIntMul; break;
          case InstClass::IntDiv: lat = cfg.latIntDiv; break;
          case InstClass::FpAlu: lat = cfg.latFpAlu; break;
          case InstClass::FpMul: lat = cfg.latFpMul; break;
          case InstClass::FpDiv: lat = cfg.latFpDiv; break;
          case InstClass::Store: lat = cfg.latStore; break;
          case InstClass::Branch:
          case InstClass::Jump:
          case InstClass::Call:
          case InstClass::Return:
            lat = cfg.latBranch;
            break;
          default:
            break;
        }
        for (unsigned &l : lat67_[c])
            l = lat;
    }
    const size_t load = static_cast<size_t>(InstClass::Load);
    lat67_[load][L1] = cfg.latLoadL1;
    lat67_[load][L2] = cfg.latLoadL2;
    lat67_[load][Mem] = cfg.latLoadMem;
}

HwCounterProfile
HwCounterAnalyzer::profile(const std::string &name) const
{
    HwCounterProfile p;
    p.name = name;
    p.instCount = insts_;
    if (insts_ == 0)
        return p;

    const double issueCycles =
        static_cast<double>(insts_) / cfg_.issueWidth56;
    const double mispredStall =
        static_cast<double>(bimodalMisses_) * cfg_.branchMissPenalty56;
    const double cycles56 = issueCycles + stall56_ + mispredStall;
    p.ipcEv56 = static_cast<double>(insts_) / std::max(1.0, cycles56);
    p.ipcEv67 = static_cast<double>(insts_) /
        std::max<uint64_t>(1, maxComplete67_);
    p.branchMissRate = condBranches_
        ? static_cast<double>(bimodalMisses_) /
          static_cast<double>(condBranches_)
        : 0.0;
    p.l1dMissRate = l1d_.missRate();
    p.l1iMissRate = l1i_.missRate();
    p.l2MissRate = l2_.missRate();
    p.dtlbMissRate = dtlb_.missRate();
    return p;
}

} // namespace mica::uarch
