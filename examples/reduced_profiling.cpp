/**
 * @file
 * The payoff of feature selection (Section V): measuring only the key
 * characteristics. This example profiles a benchmark twice — once
 * collecting all 47 characteristics, once collecting only the paper's
 * Table IV set through collectMicaProfileSubset — times both, and
 * verifies the subset values match the full run.
 *
 *   ./build/example_reduced_profiling [--budget=N]
 */

#include <chrono>
#include <cmath>
#include <cstdio>

#include "experiments/experiments.hh"
#include "isa/interpreter.hh"
#include "mica/profile.hh"
#include "mica/runner.hh"
#include "report/table.hh"
#include "workloads/registry.hh"

using namespace mica;

namespace
{

/** The eight characteristics of the paper's Table IV. */
const std::vector<size_t> &
paperKeyCharacteristics()
{
    static const std::vector<size_t> key = {
        PctLoads,               // 1. percentage loads
        AvgInputOperands,       // 11. avg. number of input operands
        RegDepLe8,              // 16. prob. register dependence <= 8
        LocalLoadStrideLe64,    // 26. prob. local load stride <= 64
        GlobalLoadStrideLe512,  // 32. prob. global load stride <= 512
        LocalStoreStrideLe4096, // 38. prob. local store stride <= 4096
        DWorkSet4K,             // 21. D-stream working set, 4KB pages
        Ilp256,                 // 10. ILP for a 256-entry window
    };
    return key;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

int
main(int argc, char **argv)
{
    const uint64_t budget =
        experiments::datasetConfigOrExit(argc, argv, {"budget="}).maxInsts;

    const auto &reg = workloads::BenchmarkRegistry::instance();
    const auto *entry = reg.find("BioInfoMark/clustalw.clustalw");
    const isa::Program prog = entry->build();

    MicaRunnerConfig cfg;
    cfg.maxInsts = budget;

    // Full 47-characteristic collection.
    isa::Interpreter interp(prog);
    const auto t0 = std::chrono::steady_clock::now();
    const MicaProfile full = collectMicaProfile(interp, "full", cfg);
    const auto t1 = std::chrono::steady_clock::now();

    // Key-subset collection: only the analyzers those eight
    // characteristics require are instantiated (no PPM predictors, in
    // particular — the most expensive family).
    isa::Interpreter again(prog);
    const auto t2 = std::chrono::steady_clock::now();
    const MicaProfile key = collectMicaProfileSubset(
        again, "key", paperKeyCharacteristics(), cfg);
    const auto t3 = std::chrono::steady_clock::now();

    report::TextTable t({"characteristic", "full run", "key-subset run",
                         "match"},
                        {report::Align::Left, report::Align::Right,
                         report::Align::Right, report::Align::Right});
    bool allMatch = true;
    for (size_t s : paperKeyCharacteristics()) {
        const bool ok = std::fabs(full[s] - key[s]) < 1e-12;
        allMatch = allMatch && ok;
        t.addRow({micaCharInfo(s).describe,
                  report::TextTable::num(full[s], 4),
                  report::TextTable::num(key[s], 4), ok ? "yes" : "NO"});
    }
    std::printf("%s\n",
                t.render("Table IV characteristics, measured both "
                         "ways").c_str());

    const double tFull = seconds(t0, t1);
    const double tKey = seconds(t2, t3);
    std::printf("benchmark: %s (%llu dynamic instructions)\n",
                entry->info.fullName().c_str(),
                static_cast<unsigned long long>(full.instCount));
    std::printf("full 47-characteristic pass: %.3f s\n", tFull);
    std::printf("key 8-characteristic pass:   %.3f s  (%.1fX faster)\n",
                tKey, tFull / tKey);
    std::printf("paper: 110 machine-days -> ~37 machine-days "
                "(approximately 3X)\n");
    std::printf("subset values match the full run: %s\n",
                allMatch ? "yes" : "NO");
    return allMatch ? 0 : 1;
}
