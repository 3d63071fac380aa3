/**
 * @file
 * Fig. 5: the correlation between full-space and reduced-space pairwise
 * distances, as a function of how many characteristics the correlation-
 * elimination method retains, with the genetic algorithm's single point
 * overlaid. Paper: GA reaches rho = 0.876 with 8 characteristics, above
 * the CE curve (0.823 with 17 kept).
 */

#include "bench_common.hh"

#include "methodology/correlation_elimination.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "report/ascii_plot.hh"
#include "report/table.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Fig. 5: distance correlation vs retained count",
                  "Fig. 5 and Section V-D");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());

    const auto ce = correlationElimination(mica);
    GaConfig gcfg;
    const GaResult ga = geneticSelect(mica, gcfg);

    report::Series ceSeries;
    ceSeries.label = "correlation elimination";
    ceSeries.marker = 'o';
    for (size_t k = 1; k <= kNumMicaChars; ++k) {
        ceSeries.x.push_back(static_cast<double>(k));
        ceSeries.y.push_back(ce.distanceCorrByK[k - 1]);
    }
    report::Series gaSeries;
    gaSeries.label = "genetic algorithm";
    gaSeries.marker = '#';
    gaSeries.x.push_back(static_cast<double>(ga.selected.size()));
    gaSeries.y.push_back(ga.distanceCorrelation);

    report::PlotConfig pc;
    pc.width = 70;
    pc.height = 22;
    pc.xLabel = "number of retained characteristics";
    pc.yLabel = "distance correlation with the full 47-char space";
    pc.title = "Fig. 5";
    std::printf("%s\n",
                report::scatterPlot({ceSeries, gaSeries}, pc).c_str());

    report::TextTable t({"retained k", "CE rho"},
                        {report::Align::Right, report::Align::Right});
    for (size_t k : {47u, 32u, 24u, 17u, 12u, 8u, 7u, 4u, 2u, 1u}) {
        t.addRow({std::to_string(k),
                  report::TextTable::num(ce.distanceCorrByK[k - 1], 3)});
    }
    std::printf("%s\n",
                t.render("Correlation elimination trajectory").c_str());

    std::printf("GA point: %zu characteristics, rho = %.3f "
                "(fitness %.3f)\n",
                ga.selected.size(), ga.distanceCorrelation, ga.fitness);
    std::printf("paper:    8 characteristics, rho = 0.876; "
                "CE rho = 0.823 at 17 kept\n\n");

    const size_t gaK = ga.selected.size();
    const double ceAtGaK = ce.distanceCorrByK[gaK - 1];
    const bool gaBeatsCe = ga.distanceCorrelation > ceAtGaK;
    const bool gaHighRho = ga.distanceCorrelation > 0.8;
    const bool gaSmall = gaK <= 16;
    std::printf("shape check: GA rho beats CE at the same k (%zu): "
                "%.3f vs %.3f: %s\n",
                gaK, ga.distanceCorrelation, ceAtGaK,
                gaBeatsCe ? "PASS" : "FAIL");
    std::printf("shape check: GA keeps high fidelity (rho > 0.8):  %s\n",
                gaHighRho ? "PASS" : "FAIL");
    std::printf("shape check: GA subset is small (<= 16 of 47):    %s\n",
                gaSmall ? "PASS" : "FAIL");
    return (gaBeatsCe && gaHighRho && gaSmall) ? 0 : 1;
}
