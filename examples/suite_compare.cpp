/**
 * @file
 * Compare two benchmark suites head-to-head, the way Section VI
 * compares emerging suites against SPEC CPU2000: per-suite centroids in
 * the normalized characteristic space, cross-suite nearest neighbors,
 * and the pairs that hardware counters would wrongly call "similar".
 *
 *   ./build/example_suite_compare [suiteA suiteB] [--budget=N]
 * Defaults to BioInfoMark vs SPEC2000.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "experiments/experiments.hh"
#include "methodology/classifier.hh"
#include "methodology/workload_space.hh"
#include "report/table.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    util::CliArgs args;
    const auto cfg = experiments::datasetConfigOrExit(
        argc, argv, experiments::datasetFlags(), &args);
    std::string suiteA = "BioInfoMark", suiteB = "SPEC2000";
    if (args.positionals.size() >= 2) {
        suiteA = args.positionals[0];
        suiteB = args.positionals[1];
    }

    const auto ds = experiments::collectSuiteDataset(cfg);
    const WorkloadSpace mica(ds.micaMatrix());
    const WorkloadSpace hpc(ds.hpcMatrix());

    std::vector<size_t> idxA, idxB;
    for (size_t i = 0; i < ds.benchmarks.size(); ++i) {
        if (ds.benchmarks[i].suite == suiteA)
            idxA.push_back(i);
        if (ds.benchmarks[i].suite == suiteB)
            idxB.push_back(i);
    }
    if (idxA.empty() || idxB.empty()) {
        std::printf("unknown suite; choose from:");
        for (const auto &s : experiments::suiteNames())
            std::printf(" %s", s.c_str());
        std::printf("\n");
        return 1;
    }
    std::printf("%s: %zu benchmarks, %s: %zu benchmarks\n\n",
                suiteA.c_str(), idxA.size(), suiteB.c_str(),
                idxB.size());

    // For each suite-A benchmark: its nearest suite-B neighbor in both
    // spaces, flagging the disagreements the paper warns about.
    const double micaThr = 0.2 * mica.distances().maxDistance();
    const double hpcThr = 0.2 * hpc.distances().maxDistance();

    report::TextTable t({"benchmark", "nearest in " + suiteB,
                         "MICA dist", "HPC dist", "verdict"},
                        {report::Align::Left, report::Align::Left,
                         report::Align::Right, report::Align::Right,
                         report::Align::Left});
    size_t covered = 0, misleading = 0;
    for (size_t a : idxA) {
        size_t best = idxB[0];
        double bestD = 1e300;
        for (size_t b : idxB) {
            const double d = mica.distances().at(a, b);
            if (d < bestD) {
                bestD = d;
                best = b;
            }
        }
        const double hd = hpc.distances().at(a, best);
        const bool micaSim = bestD <= micaThr;
        const bool hpcSim = hd <= hpcThr;
        const char *verdict =
            micaSim ? "covered"
                    : (hpcSim ? "HPC-misleading" : "distinct");
        covered += micaSim;
        misleading += (!micaSim && hpcSim);
        t.addRow({ds.benchmarks[a].shortName(),
                  ds.benchmarks[best].shortName(),
                  report::TextTable::num(bestD, 3),
                  report::TextTable::num(hd, 3), verdict});
    }
    std::printf("%s\n",
                t.render(suiteA + " vs " + suiteB +
                         " (nearest-neighbor view)").c_str());

    std::printf("summary: %zu/%zu %s benchmarks are covered by %s "
                "behavior;\n", covered, idxA.size(), suiteA.c_str(),
                suiteB.c_str());
    std::printf("%zu look covered to hardware counters but are "
                "inherently different\n(\"HPC-misleading\" — the "
                "pitfall of Section IV).\n\n", misleading);

    // Suite-level centroid distance for a one-number comparison.
    const Matrix &norm = mica.normalized();
    std::vector<double> ca(norm.cols(), 0), cb(norm.cols(), 0);
    for (size_t a : idxA)
        for (size_t c = 0; c < norm.cols(); ++c)
            ca[c] += norm(a, c) / static_cast<double>(idxA.size());
    for (size_t b : idxB)
        for (size_t c = 0; c < norm.cols(); ++c)
            cb[c] += norm(b, c) / static_cast<double>(idxB.size());
    double d2 = 0;
    for (size_t c = 0; c < norm.cols(); ++c)
        d2 += (ca[c] - cb[c]) * (ca[c] - cb[c]);
    std::printf("suite centroid distance in the normalized 47-D "
                "space: %.3f\n", std::sqrt(d2));
    return 0;
}
