/**
 * @file
 * Table I: the 122 benchmarks with their suites, inputs, and dynamic
 * instruction counts — the paper's counts (millions, on Alpha) side by
 * side with the synthetic kernels' counts (run to completion here).
 */

#include "bench_common.hh"

#include "isa/interpreter.hh"
#include "report/table.hh"
#include "workloads/registry.hh"

using namespace mica;

int
main(int argc, char **argv)
{
    experiments::datasetConfigOrExit(argc, argv, {});    // no flags
    bench::banner("Table I: benchmark population",
                  "Table I (benchmarks, inputs, instruction counts)");

    const auto &reg = workloads::BenchmarkRegistry::instance();

    report::TextTable t({"suite", "program", "input", "paper I-cnt (M)",
                         "synthetic I-cnt", "static insts"},
                        {report::Align::Left, report::Align::Left,
                         report::Align::Left, report::Align::Right,
                         report::Align::Right, report::Align::Right});

    uint64_t total = 0;
    for (const auto &e : reg.all()) {
        const isa::Program prog = e.build();
        isa::Interpreter interp(prog);
        InstRecord rec;
        uint64_t n = 0;
        while (n < 8000000 && interp.next(rec))
            ++n;
        total += n;
        t.addRow({e.info.suite, e.info.program, e.info.input,
                  std::to_string(e.info.paperICountM),
                  std::to_string(n), std::to_string(prog.code.size())});
    }
    std::printf("%s\n", t.render("Benchmarks used (Table I)").c_str());

    std::printf("122 benchmarks, 6 suites; total synthetic dynamic "
                "instructions: %llu\n",
                static_cast<unsigned long long>(total));
    std::printf("(Synthetic counts are scaled-down kernels; the paper "
                "profiles full Alpha runs.)\n");
    return 0;
}
