/**
 * @file
 * Fig. 3: microarchitecture-independent characteristics of the bzip2 /
 * blast case-study pair, normalized per characteristic by the maximum
 * across benchmarks. The paper's observation: the working sets (both
 * streams), global-history branch predictability, and global store
 * strides differ sharply even though the counters look alike (Fig. 2).
 */

#include <cmath>

#include "bench_common.hh"

#include "report/table.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Fig. 3: MICA characteristics of the same pair",
                  "Fig. 3 (bzip2 vs blast, 47 characteristics)");

    const auto ds = bench::collectWithBanner(cfg);
    const Matrix mm = ds.micaMatrix();
    const size_t a = ds.indexOf("SPEC2000/bzip2.source");
    const size_t b = ds.indexOf("BioInfoMark/blast.protein");

    report::TextTable t({"no.", "characteristic", "bzip2 (norm)",
                         "blast (norm)", "|delta|"},
                        {report::Align::Right, report::Align::Left,
                         report::Align::Right, report::Align::Right,
                         report::Align::Right});

    std::vector<std::pair<double, size_t>> deltas;
    for (size_t c = 0; c < kNumMicaChars; ++c) {
        double mx = 0;
        for (size_t r = 0; r < mm.rows(); ++r)
            mx = std::max(mx, std::fabs(mm(r, c)));
        const double na = mx > 0 ? mm(a, c) / mx : 0.0;
        const double nb = mx > 0 ? mm(b, c) / mx : 0.0;
        deltas.push_back({std::fabs(na - nb), c});
        t.addRow({std::to_string(c + 1), micaCharInfo(c).name,
                  report::TextTable::num(na, 3),
                  report::TextTable::num(nb, 3),
                  report::TextTable::num(std::fabs(na - nb), 3)});
    }
    std::printf("%s\n",
                t.render("Normalized MICA characteristics "
                         "(Fig. 3)").c_str());

    std::sort(deltas.rbegin(), deltas.rend());
    std::printf("most dissimilar characteristics for this pair:\n");
    for (size_t i = 0; i < 6; ++i) {
        std::printf("  %-14s (no. %zu)  |delta| = %.3f\n",
                    micaCharInfo(deltas[i].second).name,
                    deltas[i].second + 1, deltas[i].first);
    }
    std::printf("paper highlights: working sets (I and D streams), "
                "global-history branch\npredictability, global store "
                "strides\n\n");

    // Shape check: at least one working-set characteristic is among
    // the most divergent for this pair, as in the paper.
    bool wsDivergent = false;
    for (size_t i = 0; i < 8; ++i) {
        const size_t c = deltas[i].second;
        wsDivergent = wsDivergent ||
            (c >= DWorkSet32B && c <= IWorkSet4K);
    }
    std::printf("shape check: working-set characteristics among the "
                "top differences: %s\n", wsDivergent ? "PASS" : "FAIL");
    return wsDivergent ? 0 : 1;
}
