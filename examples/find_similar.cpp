/**
 * @file
 * The paper's motivating use case: you have a new application and want
 * to know whether existing benchmark suites already cover its behavior
 * — or whether it is genuinely new and deserves a seat in the suite.
 *
 * This example writes a custom kernel (a hash-join-style workload that
 * none of the 122 registry benchmarks implements), characterizes it
 * with the key microarchitecture-independent characteristics, and ranks
 * the registry benchmarks by similarity, exactly as Section VI compares
 * suites.
 *
 *   ./build/example_find_similar [--budget=N]
 */

#include <algorithm>
#include <cstdio>

#include "experiments/experiments.hh"
#include "isa/assembler.hh"
#include "isa/interpreter.hh"
#include "mica/dataset.hh"
#include "mica/runner.hh"
#include "methodology/genetic_selector.hh"
#include "methodology/workload_space.hh"
#include "report/table.hh"
#include "workloads/kernel_lib.hh"

using namespace mica;
using namespace mica::isa;
using namespace mica::isa::reg;

namespace
{

/** Hash join: build a hash table over one relation, probe with another. */
Program
buildHashJoin()
{
    Assembler a("hash-join");
    const size_t buildRows = 2048, probeRows = 8192, slots = 4096;

    std::vector<uint64_t> build(buildRows), probe(probeRows);
    workloads::kernels::HostRng rng(2024);
    for (auto &k : build)
        k = rng.bounded(1 << 20);
    for (auto &k : probe)
        k = rng.bounded(1 << 20);

    const uint64_t buildArr = a.dataU64(build);
    const uint64_t probeArr = a.dataU64(probe);
    const uint64_t table = a.reserve(slots * 8);

    // Build phase: table[hash(key)] = key (last writer wins).
    a.li(S0, static_cast<int64_t>(buildArr));
    a.li(S1, static_cast<int64_t>(table));
    a.li(T0, static_cast<int64_t>(buildRows));
    a.label("build");
    a.ld(T1, S0, 0);
    a.muli(T2, T1, 0x9e3779b9);
    a.shri(T3, T2, 8);
    a.xor_(T2, T2, T3);
    a.li(T3, static_cast<int64_t>(slots - 1));
    a.and_(T2, T2, T3);
    a.shli(T2, T2, 3);
    a.add(T2, S1, T2);
    a.sd(T1, T2, 0);
    a.addi(S0, S0, 8);
    a.addi(T0, T0, -1);
    a.bnez(T0, "build");

    // Probe phase: count matches (data-dependent hit branch).
    a.li(S0, static_cast<int64_t>(probeArr));
    a.li(S2, 0);                        // match count
    a.li(T0, static_cast<int64_t>(probeRows));
    a.label("probe");
    a.ld(T1, S0, 0);
    a.muli(T2, T1, 0x9e3779b9);
    a.shri(T3, T2, 8);
    a.xor_(T2, T2, T3);
    a.li(T3, static_cast<int64_t>(slots - 1));
    a.and_(T2, T2, T3);
    a.shli(T2, T2, 3);
    a.add(T2, S1, T2);
    a.ld(T4, T2, 0);                    // bucket key
    a.bne(T4, T1, "miss");
    a.addi(S2, S2, 1);
    a.label("miss");
    a.addi(S0, S0, 8);
    a.addi(T0, T0, -1);
    a.bnez(T0, "probe");
    a.halt();
    return a.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);

    std::printf("characterizing the 122-benchmark population...\n");
    const auto ds = experiments::collectSuiteDataset(cfg);
    Matrix mm = ds.micaMatrix();

    std::printf("characterizing the candidate application "
                "(hash join)...\n\n");
    const Program prog = buildHashJoin();
    Interpreter interp(prog);
    MicaRunnerConfig rc;
    rc.maxInsts = cfg.maxInsts;
    const MicaProfile mine = collectMicaProfile(interp, "my-app", rc);

    // Build one space over population + candidate so normalization and
    // feature selection see a consistent picture.
    mm.appendRow(mine.toVector());
    mm.rowNames.push_back("my-app/hash-join");
    const WorkloadSpace space(mm);

    GaConfig gcfg;
    const GaResult ga = geneticSelect(space, gcfg);
    std::printf("key characteristics (GA-selected, %zu of 47):",
                ga.selected.size());
    for (size_t s : ga.selected)
        std::printf(" %s", micaCharInfo(s).name);
    std::printf("\n\n");

    const DistanceMatrix dist = space.distancesForSubset(ga.selected);
    const size_t me = mm.rows() - 1;

    std::vector<std::pair<double, size_t>> ranked;
    for (size_t i = 0; i < me; ++i)
        ranked.push_back({dist.at(me, i), i});
    std::sort(ranked.begin(), ranked.end());

    report::TextTable t({"rank", "benchmark", "distance"},
                        {report::Align::Right, report::Align::Left,
                         report::Align::Right});
    for (size_t r = 0; r < 10; ++r) {
        t.addRow({std::to_string(r + 1),
                  ds.benchmarks[ranked[r].second].fullName(),
                  report::TextTable::num(ranked[r].first, 3)});
    }
    std::printf("%s\n",
                t.render("Most similar existing benchmarks").c_str());

    const double maxDist = dist.maxDistance();
    const double nearest = ranked.front().first;
    std::printf("nearest distance %.3f vs population max %.3f "
                "(%.0f%% of max)\n", nearest, maxDist,
                100.0 * nearest / maxDist);
    if (nearest < 0.2 * maxDist) {
        std::printf("=> existing suites already cover this behavior; "
                    "adding it to a suite would\n   mostly add "
                    "simulation time (Section I's argument).\n");
    } else {
        std::printf("=> this application is inherently different from "
                    "everything in the table --\n   a candidate for "
                    "inclusion in a next-generation suite.\n");
    }
    return 0;
}
