/**
 * @file
 * Ablation: input-set sensitivity. Table I treats each (program, input)
 * pair as a separate benchmark; the paper's prior work (Eeckhout,
 * Vandierendonck & De Bosschere, JILP 2003 [7]) showed inputs usually
 * perturb behavior far less than changing programs does. This harness
 * verifies the population preserves that structure: distances between
 * inputs of the same program are much smaller than distances between
 * different programs, with a few interesting exceptions (the paper's
 * tiff- and gcc-style input-dependent programs).
 */

#include <algorithm>
#include <map>

#include "bench_common.hh"

#include "methodology/workload_space.hh"
#include "report/table.hh"
#include "stats/descriptive.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Ablation: input-set sensitivity",
                  "Table I structure; Eeckhout et al. [7]");

    const auto ds = bench::collectWithBanner(cfg);
    const WorkloadSpace mica(ds.micaMatrix());
    const auto &dist = mica.distances();

    // Group rows by (suite, program).
    std::map<std::string, std::vector<size_t>> programs;
    for (size_t i = 0; i < ds.benchmarks.size(); ++i) {
        programs[ds.benchmarks[i].suite + "/" +
                 ds.benchmarks[i].program].push_back(i);
    }

    std::vector<double> sameProgram, crossProgram;
    const size_t n = ds.benchmarks.size();
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            const bool same =
                ds.benchmarks[i].suite == ds.benchmarks[j].suite &&
                ds.benchmarks[i].program == ds.benchmarks[j].program;
            (same ? sameProgram : crossProgram).push_back(dist.at(i, j));
        }
    }

    report::TextTable t({"program", "#inputs", "max intra dist",
                         "mean intra dist"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Right, report::Align::Right});
    std::vector<std::pair<double, std::string>> spread;
    for (const auto &[name, rows] : programs) {
        if (rows.size() < 2)
            continue;
        double mx = 0, sum = 0;
        size_t cnt = 0;
        for (size_t a = 0; a < rows.size(); ++a) {
            for (size_t b = a + 1; b < rows.size(); ++b) {
                const double d = dist.at(rows[a], rows[b]);
                mx = std::max(mx, d);
                sum += d;
                ++cnt;
            }
        }
        spread.push_back({mx, name});
        t.addRow({name, std::to_string(rows.size()),
                  report::TextTable::num(mx, 3),
                  report::TextTable::num(sum / double(cnt), 3)});
    }
    std::printf("%s\n",
                t.render("Intra-program (input-to-input) "
                         "distances").c_str());

    const double meanSame = mean(sameProgram);
    const double meanCross = mean(crossProgram);
    std::printf("mean distance, same program different input: %.3f "
                "(%zu pairs)\n", meanSame, sameProgram.size());
    std::printf("mean distance, different programs:           %.3f "
                "(%zu pairs)\n\n", meanCross, crossProgram.size());

    std::sort(spread.rbegin(), spread.rend());
    std::printf("most input-sensitive programs (the paper's tiff/gcc "
                "effect):\n");
    for (size_t i = 0; i < 3 && i < spread.size(); ++i)
        std::printf("  %-28s max intra distance %.3f\n",
                    spread[i].second.c_str(), spread[i].first);
    std::printf("\n");

    const bool inputsCloser = meanSame < 0.5 * meanCross;
    const bool exceptionsExist = spread.front().first > meanSame * 2;
    std::printf("shape check: inputs perturb less than programs "
                "(mean ratio %.2f < 0.5): %s\n", meanSame / meanCross,
                inputsCloser ? "PASS" : "FAIL");
    std::printf("shape check: some programs are strongly input-"
                "dependent: %s\n", exceptionsExist ? "PASS" : "FAIL");
    return (inputsCloser && exceptionsExist) ? 0 : 1;
}
