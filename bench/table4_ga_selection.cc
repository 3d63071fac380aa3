/**
 * @file
 * Table IV: the key microarchitecture-independent characteristics the
 * genetic algorithm retains. The paper's eight: pct loads, avg input
 * operands, reg dep <= 8, local load stride <= 64, global load stride
 * <= 512, local store stride <= 4096, D-working-set at 4KB pages, and
 * ILP at a 256-entry window — one or two picks per Table II category.
 */

#include <set>

#include "bench_common.hh"

#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "report/table.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Table IV: GA-selected key characteristics",
                  "Table IV and Section V-B");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());

    GaConfig gcfg;
    const GaResult ga = geneticSelect(mica, gcfg);

    report::TextTable t({"#", "Table II no.", "characteristic",
                         "category"},
                        {report::Align::Right, report::Align::Right,
                         report::Align::Left, report::Align::Left});
    size_t i = 1;
    for (size_t s : ga.selected) {
        const auto &info = micaCharInfo(s);
        t.addRow({std::to_string(i++), std::to_string(s + 1),
                  info.describe, info.category});
    }
    std::printf("%s\n",
                t.render("Characteristics selected by the genetic "
                         "algorithm (Table IV)").c_str());

    std::printf("selected %zu of 47; distance correlation %.3f; "
                "fitness %.3f;\nconverged after %zu generations\n",
                ga.selected.size(), ga.distanceCorrelation, ga.fitness,
                ga.generationsRun);
    std::printf("paper: 8 of 47; distance correlation 0.876\n\n");

    // Shape checks: small subset, high fidelity, and category spread
    // (the paper's set covers mix/ILP/register/working-set/strides).
    std::set<std::string> categories;
    for (size_t s : ga.selected)
        categories.insert(micaCharInfo(s).category);
    const bool small = ga.selected.size() >= 4 &&
                       ga.selected.size() <= 16;
    const bool faithful = ga.distanceCorrelation > 0.8;
    const bool spread = categories.size() >= 3;
    std::printf("shape check: compact subset (4..16 chars):      %s\n",
                small ? "PASS" : "FAIL");
    std::printf("shape check: high distance fidelity (rho>0.8):  %s\n",
                faithful ? "PASS" : "FAIL");
    std::printf("shape check: picks span >= 3 categories:        %s\n",
                spread ? "PASS" : "FAIL");
    return (small && faithful && spread) ? 0 : 1;
}
