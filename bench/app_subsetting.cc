/**
 * @file
 * Application harness: benchmark-suite subsetting (the payoff the paper
 * motivates in Section I — avoid simulating redundant benchmarks).
 *
 * Selects cluster-medoid representatives in the GA-reduced key-
 * characteristic space and sweeps the subset size against coverage, so
 * an architect can read off "simulate these N instead of all 122".
 */

#include "bench_common.hh"

#include "methodology/genetic_selector.hh"
#include "methodology/subsetting.hh"
#include "methodology/workload_space.hh"
#include "report/table.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Application: benchmark-suite subsetting",
                  "Section I motivation; Eeckhout et al. [16], "
                  "Phansalkar et al. [9]");

    const auto ds = bench::collectWithBanner(cfg);
    Matrix mm = ds.micaMatrix();
    const WorkloadSpace mica(mm);

    GaConfig gcfg;
    const GaResult ga = geneticSelect(mica, gcfg);
    Matrix reduced = mica.normalized().selectCols(ga.selected);
    reduced.rowNames = mm.rowNames;

    // BIC-chosen subset.
    const SubsetResult bic =
        selectRepresentatives(reduced, 70, 20061027);
    report::TextTable t({"representative", "covers", "max dist",
                         "mean dist"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Right, report::Align::Right});
    for (const auto &rep : bic.representatives) {
        t.addRow({rep.name, std::to_string(rep.covers.size()),
                  report::TextTable::num(rep.maxDistance, 3),
                  report::TextTable::num(rep.meanDistance, 3)});
    }
    std::printf("%s\n",
                t.render("BIC-chosen representatives (one per behavior "
                         "cluster)").c_str());
    std::printf("%zu representatives for %zu benchmarks: %.1fX fewer "
                "simulations,\nmean coverage distance %.3f "
                "(population max pair distance %.3f)\n\n",
                bic.representatives.size(), bic.populationSize,
                bic.reductionFactor, bic.meanCoverDistance,
                mica.distances().maxDistance());

    // Size-vs-coverage sweep.
    report::TextTable sweep({"subset size", "reduction", "mean dist",
                             "max dist"},
                            {report::Align::Right, report::Align::Right,
                             report::Align::Right,
                             report::Align::Right});
    double prevMean = 1e300;
    bool monotone = true;
    for (size_t k : {4u, 8u, 15u, 25u, 40u, 60u}) {
        const SubsetResult r = selectKRepresentatives(reduced, k, 7);
        sweep.addRow({std::to_string(k),
                      report::TextTable::num(r.reductionFactor, 1) + "X",
                      report::TextTable::num(r.meanCoverDistance, 3),
                      report::TextTable::num(r.maxCoverDistance, 3)});
        monotone = monotone && r.meanCoverDistance <= prevMean + 0.05;
        prevMean = r.meanCoverDistance;
    }
    std::printf("%s\n",
                sweep.render("Subset size vs coverage").c_str());

    const bool usefulReduction = bic.reductionFactor >= 3.0;
    const bool tightCoverage =
        bic.meanCoverDistance < 0.2 * mica.distances().maxDistance();
    std::printf("shape check: >= 3X fewer benchmarks to simulate:   "
                "%s\n", usefulReduction ? "PASS" : "FAIL");
    std::printf("shape check: mean coverage within 20%% of max dist: "
                "%s\n", tightCoverage ? "PASS" : "FAIL");
    std::printf("shape check: coverage improves with subset size:   "
                "%s\n", monotone ? "PASS" : "FAIL");
    return (usefulReduction && tightCoverage && monotone) ? 0 : 1;
}
