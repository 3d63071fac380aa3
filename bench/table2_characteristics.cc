/**
 * @file
 * Table II: the 47 microarchitecture-independent characteristics, with
 * measured values for a reference benchmark to show each one live.
 */

#include "bench_common.hh"

#include "isa/interpreter.hh"
#include "mica/profile.hh"
#include "mica/runner.hh"
#include "report/table.hh"
#include "workloads/registry.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    const auto cfg = experiments::datasetConfigOrExit(argc, argv);
    bench::banner("Table II: the 47 characteristics",
                  "Table II (microarchitecture-independent "
                  "characteristics)");

    const auto &reg = workloads::BenchmarkRegistry::instance();
    const auto *bzip2 = reg.find("SPEC2000/bzip2.source");
    const auto *blast = reg.find("BioInfoMark/blast.protein");

    MicaRunnerConfig rc;
    rc.maxInsts = cfg.maxInsts;

    const auto profileFor = [&](const workloads::BenchmarkEntry *e) {
        const isa::Program prog = e->build();
        isa::Interpreter interp(prog);
        return collectMicaProfile(interp, e->info.fullName(), rc);
    };
    const MicaProfile pb = profileFor(bzip2);
    const MicaProfile pl = profileFor(blast);

    report::TextTable t({"no.", "category", "characteristic",
                         "bzip2.source", "blast.protein"},
                        {report::Align::Right, report::Align::Left,
                         report::Align::Left, report::Align::Right,
                         report::Align::Right});
    for (size_t i = 0; i < kNumMicaChars; ++i) {
        const auto &info = micaCharInfo(i);
        t.addRow({std::to_string(i + 1), info.category, info.describe,
                  report::TextTable::num(pb[i], 4),
                  report::TextTable::num(pl[i], 4)});
    }
    std::printf("%s\n",
                t.render("Microarchitecture-independent characteristics "
                         "(Table II), with measured values").c_str());

    std::printf("Collected over %llu (bzip2) / %llu (blast) dynamic "
                "instructions in one analysis pass each.\n",
                static_cast<unsigned long long>(pb.instCount),
                static_cast<unsigned long long>(pl.instCount));
    return 0;
}
