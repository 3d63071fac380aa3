/**
 * @file
 * Shared helpers for building InstRecord streams in tests, and for
 * reading back the CSV exports cell by cell.
 */

#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/inst_record.hh"
#include "trace/synthetic.hh"

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

/** Run one analyzer over a record vector (accept + finish). */
template <typename Analyzer>
void
feed(Analyzer &a, const std::vector<InstRecord> &recs)
{
    for (const auto &r : recs)
        a.accept(r);
    a.finish();
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
