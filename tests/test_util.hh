/**
 * @file
 * Shared helpers for building InstRecord streams in tests, and for
 * reading back the CSV exports cell by cell.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/inst_record.hh"
#include "trace/synthetic.hh"
#include "trace/trace_source.hh"

namespace mica::test
{

/** Builder with fluent setters for one dynamic instruction. */
struct Rec
{
    InstRecord r;

    explicit Rec(InstClass cls = InstClass::IntAlu) { r.cls = cls; }

    Rec &pc(uint64_t v) { r.pc = v; return *this; }

    Rec &
    srcs(std::initializer_list<uint16_t> regs)
    {
        r.numSrcRegs = 0;
        for (uint16_t s : regs)
            r.srcRegs[r.numSrcRegs++] = s;
        return *this;
    }

    Rec &dst(uint16_t v) { r.dstReg = v; return *this; }
    Rec &mem(uint64_t addr, uint8_t size = 8)
    {
        r.memAddr = addr;
        r.memSize = size;
        return *this;
    }
    Rec &taken(bool t) { r.taken = t; return *this; }
    Rec &target(uint64_t v) { r.target = v; return *this; }

    operator InstRecord() const { return r; }
};

/** Shorthand record constructors. */
inline InstRecord
alu(uint16_t dst = kInvalidReg, std::initializer_list<uint16_t> srcs = {})
{
    Rec b(InstClass::IntAlu);
    b.srcs(srcs);
    b.r.dstReg = dst;
    return b;
}

inline InstRecord
load(uint64_t addr, uint16_t dst = 1, uint64_t pc = 0x1000)
{
    Rec b(InstClass::Load);
    b.pc(pc).mem(addr).dst(dst);
    return b;
}

inline InstRecord
store(uint64_t addr, uint64_t pc = 0x2000)
{
    Rec b(InstClass::Store);
    b.pc(pc).mem(addr);
    return b;
}

inline InstRecord
branch(uint64_t pc, bool taken)
{
    Rec b(InstClass::Branch);
    b.pc(pc).taken(taken);
    return b;
}

/** Run one analyzer over a record vector (acceptBatch + finish). */
template <typename Analyzer>
void
feed(Analyzer &a, const std::vector<InstRecord> &recs)
{
    a.acceptBatch(recs.data(), recs.size());
    a.finish();
}

/**
 * Lends at most cap records per nextSpan of @p inner, whatever the
 * consumer asks for: cap 1 is the per-record reference path.
 */
class CappedSpans : public TraceSource
{
  public:
    CappedSpans(TraceSource &inner, size_t cap) : inner_(inner), cap_(cap)
    {}

    size_t
    nextSpan(const InstRecord *&span, InstRecord *buf, size_t n) override
    {
        return inner_.nextSpan(span, buf, std::min(n, cap_));
    }

    void finish() override { inner_.finish(); }

  private:
    TraceSource &inner_;
    size_t cap_;
};

/** Pull one record into @p rec. @return false at the end of the trace. */
inline bool
nextRecord(TraceSource &src, InstRecord &rec)
{
    const InstRecord *span = nullptr;
    if (src.nextSpan(span, &rec, 1) == 0)
        return false;
    if (span != &rec)
        rec = *span;
    return true;
}

/** Every record of @p src, at most @p max, pulled in spans of @p cap. */
inline std::vector<InstRecord>
drain(TraceSource &src, size_t max = SIZE_MAX, size_t cap = 1024)
{
    std::vector<InstRecord> out;
    std::vector<InstRecord> buf(cap);
    const InstRecord *span = nullptr;
    size_t got = 0;
    while (out.size() < max &&
           (got = src.nextSpan(span, buf.data(),
                               std::min(cap, max - out.size()))) != 0)
        out.insert(out.end(), span, span + got);
    return out;
}

/** The comma-separated cells of every line of @p path, header first. */
inline std::vector<std::vector<std::string>>
csvCells(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::vector<std::string>> rows;
    std::string line, cell;
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        rows.emplace_back();
        while (std::getline(ss, cell, ','))
            rows.back().push_back(cell);
    }
    return rows;
}

/** The bits of @p v, so a test can compare doubles exactly. */
inline uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** The bits of the double a CSV cell spells. */
inline uint64_t
cellBits(const std::string &cell)
{
    return doubleBits(std::strtod(cell.c_str(), nullptr));
}

} // namespace mica::test
