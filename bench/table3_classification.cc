/**
 * @file
 * Table III: classify every benchmark tuple by whether its distance is
 * large/small in the HPC space vs the MICA space (20%-of-max
 * thresholds). The paper's shape: false negatives are rare (0.2%),
 * false positives are plentiful (41.1%) — HPC similarity often hides
 * dissimilar inherent behavior.
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
    bench::banner("Table III: benchmark-tuple classification",
                  "Table III and Section IV");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());
    const WorkloadSpace hpc(ds.hpcMatrix());

    const auto q = classifyTuples(hpc.distances().condensed(),
                                  mica.distances().condensed(),
                                  0.2, 0.2);

    report::TextTable t({"", "small dist in uarch-indep space",
                         "large dist in uarch-indep space"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Right});
    t.addRow({"large dist in HPC space",
              "FN: " + report::TextTable::pct(q.fracFN(), 1),
              "TP: " + report::TextTable::pct(q.fracTP(), 1)});
    t.addRow({"small dist in HPC space",
              "TN: " + report::TextTable::pct(q.fracTN(), 1),
              "FP: " + report::TextTable::pct(q.fracFP(), 1)});
    std::printf("%s\n",
                t.render("Tuple classification at 20%-of-max "
                         "thresholds (Table III)").c_str());

    std::printf("paper:  FN 0.2%%   TP 56.9%%   TN 1.8%%   FP 41.1%%\n");
    std::printf("thresholds: HPC %.3f, MICA %.3f (absolute)\n\n",
                q.refThreshold, q.candThreshold);

    // Shape checks from the paper's analysis.
    const bool fnRare = q.fracFN() < 0.05;
    const bool fpDominatesFn = q.fracFP() > 5 * q.fracFN();
    const bool fpSubstantial = q.fracFP() > 0.05;
    std::printf("shape check: false negatives rare (<5%%):         %s\n",
                fnRare ? "PASS" : "FAIL");
    std::printf("shape check: false positives >> false negatives: %s\n",
                fpDominatesFn ? "PASS" : "FAIL");
    std::printf("shape check: false positives substantial (>5%%):  %s\n",
                fpSubstantial ? "PASS" : "FAIL");
    return (fnRare && fpDominatesFn && fpSubstantial) ? 0 : 1;
}
