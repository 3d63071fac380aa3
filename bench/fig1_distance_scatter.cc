/**
 * @file
 * Fig. 1: distance in the hardware-performance-counter space versus
 * distance in the microarchitecture-independent space, over all
 * C(122,2) = 7381 benchmark tuples, plus the correlation coefficient
 * (0.46 in the paper; "modest" is the claim under test).
 */

#include "bench_common.hh"

#include "methodology/workload_space.hh"
#include "report/ascii_plot.hh"
#include "stats/descriptive.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Fig. 1: HPC-space vs MICA-space distances",
                  "Fig. 1 and Section IV");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());
    const WorkloadSpace hpc(ds.hpcMatrix());

    const auto &mDist = mica.distances().condensed();
    const auto &hDist = hpc.distances().condensed();
    const double rho = pearson(mDist, hDist);

    report::PlotConfig pc;
    pc.width = 72;
    pc.height = 26;
    pc.xLabel = "distance in microarchitecture-independent space";
    pc.yLabel = "distance in HPC space";
    pc.title = "each dot: one of the 7381 benchmark tuples";
    std::printf("%s\n", report::densityPlot(mDist, hDist, pc).c_str());

    std::printf("benchmark tuples:          %zu\n", mDist.size());
    std::printf("correlation coefficient:   %.3f\n", rho);
    std::printf("paper reports:             0.46 (modest)\n\n");

    const bool modest = rho > 0.15 && rho < 0.8;
    std::printf("shape check: correlation is modest (well below 1): %s\n",
                modest ? "PASS" : "FAIL");
    return modest ? 0 : 1;
}
