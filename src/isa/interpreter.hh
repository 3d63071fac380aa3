/**
 * @file
 * Trace-emitting interpreter for the mini-ISA.
 */

#pragma once

#include <array>
#include <cstdint>

#include "isa/memory.hh"
#include "isa/program.hh"
#include "trace/trace_source.hh"

namespace mica::isa
{

/**
 * Executes a Program, emitting an InstRecord for each architecturally
 * executed instruction. This plays the role ATOM plays in the paper:
 * the functional execution engine that the characterization analyzers
 * observe. As a TraceSource it fills the consumer's buffer one span at
 * a time; next() runs one instruction and nextBatch() up to n.
 *
 * Execution terminates when (i) a Halt instruction is reached, (ii) a
 * return transfers to the halt sentinel address (top-level `ret`), or
 * (iii) the PC runs off the end of the code. The interpreter is fully
 * deterministic and single-pass: to run a program again, construct
 * another Interpreter over it.
 */
class Interpreter : public TraceSource
{
  public:
    explicit Interpreter(const Program &prog) : prog_(&prog) { doReset(); }

    /** Run one instruction into @p rec. @return false once halted. */
    bool next(InstRecord &rec);

    /** Run up to @p n instructions into @p buf. @return how many ran. */
    size_t
    nextBatch(InstRecord *buf, size_t n)
    {
        size_t got = 0;
        while (got < n && next(buf[got]))
            ++got;
        return got;
    }

    size_t
    nextSpan(const InstRecord *&span, InstRecord *buf, size_t n) override
    {
        span = buf;
        return nextBatch(buf, n);
    }

    /** @return value of integer register i. */
    int64_t reg(unsigned i) const { return regs_[i]; }

    /** @return value of FP register i. */
    double freg(unsigned i) const { return fregs_[i]; }

    /** Set integer register i (e.g., to pass arguments in tests). */
    void setReg(unsigned i, int64_t v) { if (i) regs_[i] = v; }

    /** Set FP register i. */
    void setFreg(unsigned i, double v) { fregs_[i] = v; }

    /** @return simulated memory (for test inspection). */
    Memory &memory() { return mem_; }

    /** @return dynamic instructions executed so far. */
    uint64_t instCount() const { return icount_; }

    /** @return true once execution has terminated. */
    bool halted() const { return halted_; }

  private:
    void doReset();

    const Program *prog_;
    std::array<int64_t, 32> regs_ = {};
    std::array<double, 32> fregs_ = {};
    Memory mem_;
    uint64_t pcIdx_ = 0;
    uint64_t icount_ = 0;
    bool halted_ = false;
};

} // namespace mica::isa
