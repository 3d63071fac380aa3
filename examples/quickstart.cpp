/**
 * @file
 * Quickstart: write a tiny kernel against the mini-ISA, execute it, and
 * collect its full 47-characteristic MICA profile plus the simulated
 * hardware-counter profile — the two datasets everything else in this
 * library is built from.
 *
 * Build and run (it takes no flags):
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/example_quickstart
 */

#include <cstdio>

#include "isa/assembler.hh"
#include "isa/interpreter.hh"
#include "mica/profile.hh"
#include "mica/runner.hh"
#include "report/table.hh"
#include "uarch/hpc_runner.hh"
#include "util/arg_parse.hh"

using namespace mica;
using namespace mica::isa;
using namespace mica::isa::reg;

namespace
{

/** A 256-element dot product: the "hello world" of kernels. */
Program
buildDotProduct()
{
    Assembler a("dot-product");

    std::vector<double> xs(256), ys(256);
    for (size_t i = 0; i < xs.size(); ++i) {
        xs[i] = 0.25 * static_cast<double>(i % 17);
        ys[i] = 0.5 * static_cast<double>(i % 5);
    }
    const uint64_t x = a.dataF64(xs);
    const uint64_t y = a.dataF64(ys);

    a.li(S0, static_cast<int64_t>(x));
    a.li(S1, static_cast<int64_t>(y));
    a.li(T0, 256);                      // loop counter
    a.li(S9, 200);                      // outer repetitions

    a.label("outer");
    a.li(S0, static_cast<int64_t>(x));
    a.li(S1, static_cast<int64_t>(y));
    a.li(T0, 256);
    a.label("loop");
    a.fld(1, S0, 0);                    // x[i]
    a.fld(2, S1, 0);                    // y[i]
    a.fmul(3, 1, 2);
    a.fadd(0, 0, 3);                    // acc += x[i] * y[i]
    a.addi(S0, S0, 8);
    a.addi(S1, S1, 8);
    a.addi(T0, T0, -1);
    a.bnez(T0, "loop");
    a.addi(S9, S9, -1);
    a.bnez(S9, "outer");
    a.halt();
    return a.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    // No flags: a typo'd one exits 2 naming it, as in every front end.
    const util::CliArgs args = util::parseCliArgs(argc, argv, {});
    if (!args.ok()) {
        std::fprintf(stderr, "example_quickstart: %s\n",
                     args.error.c_str());
        return 2;
    }

    // 1. Build a program (any TraceSource works: the interpreter, a
    //    replay buffer, or your own trace reader).
    const Program prog = buildDotProduct();
    std::printf("assembled '%s': %zu static instructions, %zu data "
                "bytes\n\n",
                prog.name.c_str(), prog.code.size(), prog.dataBytes());

    // 2. Collect the 47 microarchitecture-independent characteristics
    //    in one pass over the dynamic instruction stream.
    Interpreter interp(prog);
    const MicaProfile p = collectMicaProfile(interp, prog.name, {});
    std::printf("profiled %llu dynamic instructions\n\n",
                static_cast<unsigned long long>(p.instCount));

    report::TextTable t({"no.", "characteristic", "value"},
                        {report::Align::Right, report::Align::Left,
                         report::Align::Right});
    for (size_t c = 0; c < kNumMicaChars; ++c) {
        t.addRow({std::to_string(c + 1), micaCharInfo(c).describe,
                  report::TextTable::num(p[c], 4)});
    }
    std::printf("%s\n",
                t.render("MICA profile (Table II order)").c_str());

    // 3. The microarchitecture-DEPENDENT view of the same program: what
    //    hardware performance counters on an EV56/EV67-class machine
    //    would report.
    Interpreter again(prog);
    const uarch::HwCounterProfile h =
        uarch::collectHwProfile(again, prog.name);
    std::printf("hardware-counter view: IPC(in-order)=%.2f "
                "IPC(out-of-order)=%.2f\n", h.ipcEv56, h.ipcEv67);
    std::printf("  branch miss %.4f | L1D miss %.4f | L1I miss %.4f | "
                "L2 miss %.4f | DTLB miss %.4f\n",
                h.branchMissRate, h.l1dMissRate, h.l1iMissRate,
                h.l2MissRate, h.dtlbMissRate);
    std::printf("\nNext: examples/find_similar shows how to compare "
                "your kernel against the\n122-benchmark population "
                "using these characteristics.\n");
    return 0;
}
