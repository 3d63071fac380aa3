/**
 * @file
 * Fig. 2: hardware-performance-counter characteristics of the case-study
 * pair. The paper contrasts SPEC's bzip2 with BioInfoMark's blast: their
 * counter profiles look alike. We print the paper's pair and also search
 * for the strongest "false positive" pair in our population (closest in
 * HPC space while far apart in MICA space).
 */

#include "bench_common.hh"

#include "methodology/workload_space.hh"
#include "report/table.hh"

using namespace mica;

namespace
{

/** Per-metric normalization by the column max (the paper's Fig. 2). */
void
printPair(const experiments::SuiteDataset &ds, size_t a, size_t b)
{
    const Matrix hm = ds.hpcMatrix();
    report::TextTable t({"HPC metric", ds.benchmarks[a].shortName(),
                         ds.benchmarks[b].shortName(), "normalized A",
                         "normalized B"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Right, report::Align::Right,
                         report::Align::Right});
    for (size_t c = 0; c < hm.cols(); ++c) {
        double mx = 0;
        for (size_t r = 0; r < hm.rows(); ++r)
            mx = std::max(mx, hm(r, c));
        const double na = mx > 0 ? hm(a, c) / mx : 0.0;
        const double nb = mx > 0 ? hm(b, c) / mx : 0.0;
        t.addRow({hm.colNames[c], report::TextTable::num(hm(a, c), 4),
                  report::TextTable::num(hm(b, c), 4),
                  report::TextTable::num(na, 3),
                  report::TextTable::num(nb, 3)});
    }
    std::printf("%s\n", t.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Fig. 2: HPC characteristics of a look-alike pair",
                  "Fig. 2 (bzip2 vs blast, hardware counters)");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());
    const WorkloadSpace hpc(ds.hpcMatrix());

    const size_t bzip2 = ds.indexOf("SPEC2000/bzip2.source");
    const size_t blast = ds.indexOf("BioInfoMark/blast.protein");

    std::printf("--- the paper's pair: bzip2 vs blast ---\n");
    printPair(ds, bzip2, blast);
    std::printf("HPC-space distance:  %.3f  (max observed %.3f)\n",
                hpc.distances().at(bzip2, blast),
                hpc.distances().maxDistance());
    std::printf("MICA-space distance: %.3f  (max observed %.3f)\n\n",
                mica.distances().at(bzip2, blast),
                mica.distances().maxDistance());

    // Strongest false-positive pair in this population: minimize the
    // HPC distance among tuples whose MICA distance is "large" (>20%).
    const double micaThr = 0.2 * mica.distances().maxDistance();
    size_t bestI = 0, bestJ = 1;
    double bestH = 1e300;
    const size_t n = ds.benchmarks.size();
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            if (mica.distances().at(i, j) <= micaThr)
                continue;
            const double h = hpc.distances().at(i, j);
            if (h < bestH) {
                bestH = h;
                bestI = i;
                bestJ = j;
            }
        }
    }
    std::printf("--- strongest false-positive pair here: %s vs %s ---\n",
                ds.benchmarks[bestI].fullName().c_str(),
                ds.benchmarks[bestJ].fullName().c_str());
    printPair(ds, bestI, bestJ);
    std::printf("HPC-space distance:  %.3f (near-identical counters)\n",
                bestH);
    std::printf("MICA-space distance: %.3f (inherently dissimilar)\n\n",
                mica.distances().at(bestI, bestJ));

    const bool foundFp = bestH < 0.2 * hpc.distances().maxDistance();
    std::printf("shape check: a pair exists that is similar in HPC "
                "space yet dissimilar in MICA space: %s\n",
                foundFp ? "PASS" : "FAIL");
    return foundFp ? 0 : 1;
}
