/**
 * @file
 * Fig. 4: ROC curves for identifying HPC-space similarity from
 * microarchitecture-independent distances, comparing the full 47-
 * characteristic space against correlation elimination (17/12/7 kept)
 * and the GA-selected subset. Paper AUCs: all 0.72, GA 0.69, CE 0.67
 * (17 kept) and 0.64 (12/7 kept); GA tracks the full space closest.
 */

#include "bench_common.hh"

#include "methodology/correlation_elimination.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "report/ascii_plot.hh"
#include "report/table.hh"
#include "stats/roc.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Fig. 4: ROC curves of reduced characteristic sets",
                  "Fig. 4 and Section V-D");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());
    const WorkloadSpace hpc(ds.hpcMatrix());

    // Ground truth: HPC-space distance above 20% of max = "large".
    const auto labels =
        labelsFromDistances(hpc.distances().condensed(), 0.2);

    struct Curve
    {
        std::string label;
        char marker;
        RocCurve roc;
        size_t numChars;
    };
    std::vector<Curve> curves;

    const auto addCurve = [&](const std::string &label, char marker,
                              const std::vector<size_t> &cols) {
        const DistanceMatrix d = mica.distancesForSubset(cols);
        curves.push_back({label, marker,
                          rocCurve(labels, d.condensed(), 40),
                          cols.size()});
    };

    std::vector<size_t> all(kNumMicaChars);
    for (size_t c = 0; c < kNumMicaChars; ++c)
        all[c] = c;
    addCurve("all 47 characteristics", '*', all);

    const auto ce = correlationElimination(mica);
    addCurve("corr. elim. (17 kept)", 'o', ce.retained(17));
    addCurve("corr. elim. (12 kept)", '+', ce.retained(12));
    addCurve("corr. elim. (7 kept)", 'x', ce.retained(7));

    GaConfig gcfg;
    const GaResult ga = geneticSelect(mica, gcfg);
    addCurve("genetic algorithm (" + std::to_string(ga.selected.size()) +
                 " kept)", '#', ga.selected);

    // Plot sensitivity vs 1-specificity for every method.
    std::vector<report::Series> series;
    for (const auto &c : curves) {
        report::Series s;
        s.label = c.label;
        s.marker = c.marker;
        for (const auto &p : c.roc.points) {
            s.x.push_back(p.fpr());
            s.y.push_back(p.sensitivity);
        }
        series.push_back(std::move(s));
    }
    report::PlotConfig pc;
    pc.width = 64;
    pc.height = 24;
    pc.xLabel = "1 - specificity";
    pc.yLabel = "sensitivity";
    pc.title = "ROC: identifying HPC-similar tuples from MICA distances";
    pc.fixedScale = true;
    std::printf("%s\n", report::scatterPlot(series, pc).c_str());

    report::TextTable t({"method", "#chars", "AUC"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Right});
    for (const auto &c : curves) {
        t.addRow({c.label, std::to_string(c.numChars),
                  report::TextTable::num(c.roc.auc, 3)});
    }
    std::printf("%s\n", t.render("Area under the ROC curves").c_str());
    std::printf("paper: all-47 0.72; GA 0.69; CE 0.67 (17 kept), "
                "0.64 (12 and 7 kept)\n\n");

    const double aucAll = curves[0].roc.auc;
    const double aucGa = curves.back().roc.auc;
    const double aucCe7 = curves[3].roc.auc;
    const bool gaNearAll = aucGa > aucAll - 0.08;
    const bool gaBeatsCe = aucGa >= aucCe7 - 0.01;
    std::printf("shape check: GA ROC approaches the all-47 ROC:  %s\n",
                gaNearAll ? "PASS" : "FAIL");
    std::printf("shape check: GA >= small CE set at equal size:  %s\n",
                gaBeatsCe ? "PASS" : "FAIL");
    return (gaNearAll && gaBeatsCe) ? 0 : 1;
}
