/**
 * @file
 * Ablation: PPM context depth for the branch-predictability
 * characteristics (Table II nos. 44-47). The paper treats PPM as a
 * theoretical predictability measure; this harness sweeps the maximum
 * context order and shows (i) deeper context never hurts on average
 * and (ii) the benchmark ordering the metric induces stabilizes well
 * before the default depth of 8.
 */

#include "bench_common.hh"

#include "isa/interpreter.hh"
#include "mica/ppm.hh"
#include "report/table.hh"
#include "stats/descriptive.hh"
#include "trace/engine.hh"
#include "workloads/registry.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Ablation: PPM predictor context depth",
                  "Table II nos. 44-47 (PPM predictability)");

    // A representative slice across the suites.
    const std::vector<std::string> picks = {
        "BioInfoMark/blast.protein",  "BioInfoMark/phylip.dnapenny",
        "CommBench/drr.drr",          "MediaBench/mpeg2.encode",
        "MiBench/qsort.large",        "MiBench/CRC32.large",
        "SPEC2000/bzip2.source",      "SPEC2000/gcc.166",
        "SPEC2000/twolf.ref",         "SPEC2000/swim.ref",
    };
    const std::vector<unsigned> orders = {1, 2, 4, 8, 12};
    const uint64_t budget = cfg.maxInsts ? cfg.maxInsts : 150000;

    const auto &reg = workloads::BenchmarkRegistry::instance();
    std::vector<std::vector<double>> gag(orders.size());

    std::vector<std::string> headers = {"benchmark"};
    for (unsigned o : orders)
        headers.push_back("GAg@" + std::to_string(o));
    report::TextTable t(std::move(headers));

    for (const auto &name : picks) {
        const auto *e = reg.find(name);
        const isa::Program prog = e->build();

        std::vector<std::string> row = {e->info.shortName()};
        for (size_t oi = 0; oi < orders.size(); ++oi) {
            isa::Interpreter interp(prog);
            PpmBranchAnalyzer ppm(orders[oi]);
            AnalysisEngine engine;
            engine.add(&ppm);
            engine.run(interp, budget);
            gag[oi].push_back(ppm.missRateGAg());
            row.push_back(report::TextTable::num(ppm.missRateGAg(), 4));
        }
        t.addRow(std::move(row));
    }
    std::printf("%s\n",
                t.render("GAg PPM miss rate vs context depth").c_str());

    // Average miss rate should fall (or hold) as order grows, and the
    // benchmark ranking should converge: order-8 vs order-12 nearly
    // identical orderings.
    bool monotoneAvg = true;
    for (size_t oi = 1; oi < orders.size(); ++oi)
        monotoneAvg = monotoneAvg &&
            mean(gag[oi]) <= mean(gag[oi - 1]) + 0.01;

    const double rankStable = pearson(gag[3], gag[4]);   // order 8 vs 12
    const double rankShallow = pearson(gag[0], gag[3]);  // order 1 vs 8
    std::printf("avg GAg miss:");
    for (size_t oi = 0; oi < orders.size(); ++oi)
        std::printf(" %.4f@%u", mean(gag[oi]), orders[oi]);
    std::printf("\nranking correlation: order 8 vs 12 = %.3f; "
                "order 1 vs 8 = %.3f\n\n", rankStable, rankShallow);

    const bool converged = rankStable > 0.99;
    std::printf("shape check: deeper context never hurts on average: "
                "%s\n", monotoneAvg ? "PASS" : "FAIL");
    std::printf("shape check: metric stable by order 8 (rho > 0.99):  "
                "%s\n", converged ? "PASS" : "FAIL");
    return (monotoneAvg && converged) ? 0 : 1;
}
