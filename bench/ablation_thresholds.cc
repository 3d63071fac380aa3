/**
 * @file
 * Ablation: sensitivity of the Table III quadrants to the "large
 * distance" threshold. The paper fixes both thresholds at 20% of the
 * maximum and notes they are subjective; this harness sweeps them to
 * show the qualitative conclusion (FN rare, FP plentiful) is robust.
 */

#include "bench_common.hh"

#include "methodology/classifier.hh"
#include "methodology/workload_space.hh"
#include "report/table.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Ablation: Table III threshold sensitivity",
                  "Section IV (threshold choice discussion)");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());
    const WorkloadSpace hpc(ds.hpcMatrix());
    const auto &h = hpc.distances().condensed();
    const auto &m = mica.distances().condensed();

    report::TextTable t({"threshold", "TP", "FP", "TN", "FN",
                         "sensitivity", "specificity"},
                        {report::Align::Right, report::Align::Right,
                         report::Align::Right, report::Align::Right,
                         report::Align::Right, report::Align::Right,
                         report::Align::Right});

    bool fnAlwaysRare = true;
    bool fpUsuallyLarger = true;
    for (double frac : {0.10, 0.15, 0.20, 0.25, 0.30, 0.40}) {
        const auto q = classifyTuples(h, m, frac, frac);
        t.addRow({report::TextTable::pct(frac, 0),
                  report::TextTable::pct(q.fracTP(), 1),
                  report::TextTable::pct(q.fracFP(), 1),
                  report::TextTable::pct(q.fracTN(), 1),
                  report::TextTable::pct(q.fracFN(), 1),
                  report::TextTable::num(q.sensitivity(), 3),
                  report::TextTable::num(q.specificity(), 3)});
        fnAlwaysRare = fnAlwaysRare && q.fracFN() < 0.08;
        fpUsuallyLarger = fpUsuallyLarger && q.fracFP() >= q.fracFN();
    }
    std::printf("%s\n",
                t.render("Quadrants as the large-distance threshold "
                         "sweeps (both spaces)").c_str());
    std::printf("paper at 20%%: TP 56.9  FP 41.1  TN 1.8  FN 0.2\n\n");

    std::printf("shape check: FN stays rare across thresholds:    %s\n",
                fnAlwaysRare ? "PASS" : "FAIL");
    std::printf("shape check: FP >= FN at every threshold:        %s\n",
                fpUsuallyLarger ? "PASS" : "FAIL");
    return (fnAlwaysRare && fpUsuallyLarger) ? 0 : 1;
}
