/**
 * @file
 * Fig. 6 and Section VI: cluster the 122 benchmarks in the GA-selected
 * key-characteristic space with k-means, picking K by the BIC-within-
 * 90%-of-max rule over K = 1..70, then report the clusters with kiviat
 * summaries and the paper's suite-level conclusions: parts of
 * BioInfoMark / BioMetricsWorkload / CommBench sit apart from SPEC
 * CPU2000, while MediaBench / MiBench mostly co-cluster with SPEC.
 */

#include "bench_common.hh"

#include "methodology/cluster_report.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/kiviat.hh"
#include "methodology/workload_space.hh"
#include "report/table.hh"
#include "stats/descriptive.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Fig. 6: clustering in the key-characteristic space",
                  "Fig. 6 and Section VI");

    const auto ds = bench::collectWithBanner(cfg);
    Matrix mm = ds.micaMatrix();
    const WorkloadSpace mica(mm);

    GaConfig gcfg;
    const GaResult ga = geneticSelect(mica, gcfg);
    std::printf("GA retained %zu characteristics (rho %.3f):",
                ga.selected.size(), ga.distanceCorrelation);
    for (size_t s : ga.selected)
        std::printf(" %s", micaCharInfo(s).name);
    std::printf("\n\n");

    Matrix reduced = mica.normalized().selectCols(ga.selected);
    reduced.rowNames = mm.rowNames;

    const ClusterReport rep = clusterBenchmarks(reduced, 70, 20061027);
    std::printf("chosen K by the 90%%-of-max BIC rule over K=1..70: "
                "%zu clusters (paper: 15)\n\n", rep.chosenK);

    // Min-max normalized kiviat data in the reduced space.
    Matrix kiviatData = mica.raw().selectCols(ga.selected);
    kiviatData.rowNames = mm.rowNames;
    const auto stars = buildKiviats(kiviatData);

    const auto &suites = experiments::suiteNames();
    for (const auto &c : rep.clusters) {
        std::printf("cluster %zu (%zu members)%s\n", c.id,
                    c.members.size(),
                    c.isSingleton() ? " [singleton]" : "");
        const auto hist = rep.suiteHistogram(c, suites);
        std::printf("  suites:");
        for (size_t s = 0; s < suites.size(); ++s) {
            if (hist[s])
                std::printf(" %s=%zu", suites[s].c_str(), hist[s]);
        }
        std::printf("\n");
        for (size_t m : c.members) {
            std::printf("  %-46s %s\n",
                        ds.benchmarks[m].fullName().c_str(),
                        renderKiviatBars(stars[m], 8).c_str());
        }
        std::printf("\n");
    }

    // Suite-level conclusions: which benchmarks share no cluster with
    // any SPEC CPU2000 benchmark?
    std::vector<bool> clusterHasSpec(rep.clusters.size(), false);
    for (const auto &c : rep.clusters) {
        for (size_t m : c.members) {
            if (ds.benchmarks[m].suite == "SPEC2000")
                clusterHasSpec[c.id] = true;
        }
    }
    report::TextTable t({"suite", "benchmarks",
                         "dissimilar from all of SPEC", "fraction"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Right, report::Align::Right});
    std::vector<double> dissimFrac;
    for (const auto &suite : suites) {
        size_t total = 0, dissim = 0;
        for (size_t m = 0; m < ds.benchmarks.size(); ++m) {
            if (ds.benchmarks[m].suite != suite)
                continue;
            ++total;
            if (!clusterHasSpec[static_cast<size_t>(rep.assignment[m])])
                ++dissim;
        }
        dissimFrac.push_back(total ? double(dissim) / double(total) : 0);
        t.addRow({suite, std::to_string(total), std::to_string(dissim),
                  report::TextTable::pct(dissimFrac.back(), 0)});
    }
    std::printf("%s\n",
                t.render("Benchmarks in clusters with no SPEC CPU2000 "
                         "member").c_str());
    std::printf("paper: several BioInfoMark / BioMetricsWorkload / "
                "CommBench benchmarks are\ndissimilar from SPEC; "
                "MediaBench / MiBench mostly co-cluster with SPEC\n\n");

    // Shape checks.
    const double bioDis = dissimFrac[0];
    const double commDis = dissimFrac[2];
    const double mediaDis = dissimFrac[3];
    const double miDis = dissimFrac[4];
    const bool multiCluster = rep.chosenK >= 6 && rep.chosenK <= 40;
    const bool emergingApart = bioDis > 0.0 || commDis > 0.0;
    const bool mediaClose = mediaDis <= bioDis + 0.5 &&
                            miDis < 0.67;
    std::printf("shape check: population splits into many clusters "
                "(6..40): %s (K=%zu)\n",
                multiCluster ? "PASS" : "FAIL", rep.chosenK);
    std::printf("shape check: emerging bio/comm workloads sit apart "
                "from SPEC: %s\n", emergingApart ? "PASS" : "FAIL");
    std::printf("shape check: media/embedded mostly co-cluster with "
                "SPEC: %s\n", mediaClose ? "PASS" : "FAIL");
    return (multiCluster && emergingApart && mediaClose) ? 0 : 1;
}
