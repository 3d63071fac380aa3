/**
 * @file
 * Ablation: PCA versus subset selection (Section V-C discussion).
 *
 * PCA also compresses the 47-D space, and does so optimally in a
 * variance sense — but every original characteristic must still be
 * measured to project onto the components, and the dimensions are
 * linear mixtures that resist interpretation. This harness quantifies
 * the comparison: distance fidelity at equal dimensionality, and how
 * many raw characteristics each approach must measure.
 */

#include "bench_common.hh"

#include "methodology/correlation_elimination.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "report/table.hh"
#include "stats/descriptive.hh"
#include "stats/pca.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Ablation: PCA vs characteristic-subset selection",
                  "Section V-C (comparison against PCA methods)");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());
    const auto &fullDist = mica.distances().condensed();

    const PcaResult pca = pcaFit(mica.normalized());
    const auto ce = correlationElimination(mica);
    GaConfig gcfg;
    const GaResult ga = geneticSelect(mica, gcfg);
    const size_t k = ga.selected.size();

    // Distance fidelity of a k-PC projection.
    const Matrix proj = pca.project(mica.normalized(), k);
    const DistanceMatrix pcaDist(proj);
    const double pcaRho = pearson(fullDist, pcaDist.condensed());

    report::TextTable t({"method", "dims kept", "raw chars measured",
                         "distance rho", "interpretable axes"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Right, report::Align::Right,
                         report::Align::Right});
    t.addRow({"PCA projection", std::to_string(k), "47",
              report::TextTable::num(pcaRho, 3), "no"});
    t.addRow({"correlation elimination", std::to_string(k),
              std::to_string(k),
              report::TextTable::num(ce.distanceCorrByK[k - 1], 3),
              "yes"});
    t.addRow({"genetic algorithm", std::to_string(k), std::to_string(k),
              report::TextTable::num(ga.distanceCorrelation, 3), "yes"});
    std::printf("%s\n",
                t.render("Dimensionality reduction at equal k").c_str());

    std::printf("variance explained by the first %zu PCs: %.1f%%\n\n",
                k, 100.0 * pca.varianceExplained(k));

    // Shape checks: PCA is the fidelity upper bound at equal k, but the
    // GA subset comes close while measuring k instead of 47 raw
    // characteristics — the paper's "faster to collect" argument.
    const bool pcaBest = pcaRho >= ga.distanceCorrelation - 0.02;
    const bool gaClose = ga.distanceCorrelation > pcaRho - 0.2;
    std::printf("shape check: PCA is the fidelity bound at equal k: "
                "%s\n", pcaBest ? "PASS" : "FAIL");
    std::printf("shape check: GA subset stays close to PCA while "
                "measuring only %zu/47: %s\n",
                k, gaClose ? "PASS" : "FAIL");
    return (pcaBest && gaClose) ? 0 : 1;
}
