/**
 * @file
 * Ablation: genetic-algorithm hyperparameter sensitivity. DESIGN.md
 * calls out the GA configuration (population, mutation rate, seed) as
 * a design choice; this harness shows the selected-subset quality is
 * stable across reasonable settings, i.e. the paper's conclusion does
 * not hinge on GA tuning.
 */

#include "bench_common.hh"

#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "report/table.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Ablation: GA hyperparameter sensitivity",
                  "Section V-B (GA configuration)");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());

    struct Variant
    {
        const char *label;
        GaConfig cfg;
    };
    std::vector<Variant> variants;
    {
        Variant v{"baseline", {}};
        variants.push_back(v);
        v = {"small population (16)", {}};
        v.cfg.populationSize = 16;
        variants.push_back(v);
        v = {"large population (128)", {}};
        v.cfg.populationSize = 128;
        variants.push_back(v);
        v = {"high mutation (0.08)", {}};
        v.cfg.mutationRate = 0.08;
        variants.push_back(v);
        v = {"low mutation (0.005)", {}};
        v.cfg.mutationRate = 0.005;
        variants.push_back(v);
        v = {"no crossover", {}};
        v.cfg.crossoverRate = 0.0;
        variants.push_back(v);
        v = {"seed 1", {}};
        v.cfg.seed = 1;
        variants.push_back(v);
        v = {"seed 2", {}};
        v.cfg.seed = 2;
        variants.push_back(v);
    }

    report::TextTable t({"variant", "#chars", "rho", "fitness",
                         "generations"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Right, report::Align::Right,
                         report::Align::Right});
    double minFit = 1.0, maxFit = 0.0, minRho = 1.0;
    for (const auto &v : variants) {
        const GaResult res = geneticSelect(mica, v.cfg);
        t.addRow({v.label, std::to_string(res.selected.size()),
                  report::TextTable::num(res.distanceCorrelation, 3),
                  report::TextTable::num(res.fitness, 3),
                  std::to_string(res.generationsRun)});
        minFit = std::min(minFit, res.fitness);
        maxFit = std::max(maxFit, res.fitness);
        minRho = std::min(minRho, res.distanceCorrelation);
    }
    std::printf("%s\n", t.render("GA outcome across settings").c_str());

    const bool stableFitness = (maxFit - minFit) < 0.15;
    const bool alwaysFaithful = minRho > 0.7;
    std::printf("shape check: fitness stable across settings "
                "(spread %.3f < 0.15): %s\n",
                maxFit - minFit, stableFitness ? "PASS" : "FAIL");
    std::printf("shape check: every setting keeps rho > 0.7:          "
                "    %s\n", alwaysFaithful ? "PASS" : "FAIL");
    return (stableFitness && alwaysFaithful) ? 0 : 1;
}
