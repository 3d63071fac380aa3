/**
 * @file
 * Test-only writer for trace format v1, the flat format the library
 * still reads but no longer writes. It follows the format description
 * in README.md ("File-backed traces"), not the library's reader, so a
 * test that replays its files checks the v1 read path against an
 * independent oracle.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace_file.hh"

namespace mica::test
{

/** Append the raw bytes of @p v to @p out. */
template <typename T>
void
putRaw(std::string &out, const T &v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

/**
 * Write @p recs to @p path as a v1 trace: chunks of at most
 * @p chunkRecords raw records (padding bytes zero), each preceded by
 * the "TCHK" magic and its record count.
 */
inline void
writeTraceV1(const std::string &path, const std::vector<InstRecord> &recs,
             size_t chunkRecords = 4096)
{
    const uint32_t chunkMagic = 0x4b484354;    // "TCHK"
    std::string payload;
    uint64_t hash = fnv1a(nullptr, 0);
    for (size_t at = 0; at < recs.size(); at += chunkRecords) {
        const uint32_t count = static_cast<uint32_t>(
            std::min(chunkRecords, recs.size() - at));
        std::string raw;
        for (size_t i = at; i < at + count; ++i) {
            InstRecord r;
            std::memset(static_cast<void *>(&r), 0, sizeof(r));
            r.pc = recs[i].pc;
            r.cls = recs[i].cls;
            r.numSrcRegs = recs[i].numSrcRegs;
            r.srcRegs = recs[i].srcRegs;
            r.dstReg = recs[i].dstReg;
            r.memAddr = recs[i].memAddr;
            r.memSize = recs[i].memSize;
            r.taken = recs[i].taken;
            r.target = recs[i].target;
            putRaw(raw, r);
        }
        // Three hash pieces per chunk: magic, count, records.
        hash = fnv1a(&chunkMagic, sizeof(chunkMagic), hash);
        hash = fnv1a(&count, sizeof(count), hash);
        hash = fnv1a(raw.data(), raw.size(), hash);
        putRaw(payload, chunkMagic);
        putRaw(payload, count);
        payload += raw;
    }
    std::string file = "MICATRC\n";
    putRaw(file, kTraceFormatV1);
    putRaw(file, static_cast<uint32_t>(sizeof(InstRecord)));
    putRaw(file, kTraceLayoutHash);
    putRaw(file, static_cast<uint64_t>(recs.size()));
    putRaw(file, static_cast<uint64_t>(payload.size()));
    putRaw(file, hash);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << file << payload;
    if (!out.flush())
        throw std::runtime_error("cannot write v1 trace " + path);
}

} // namespace mica::test
