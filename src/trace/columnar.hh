/**
 * @file
 * Columnar chunk codec for trace format v2.
 *
 * A v1 chunk stores raw 48-byte InstRecords; at corpus scale that is
 * ~48 GB per billion records and the page cache becomes the limit. A
 * v2 chunk stores the same records as six independent column streams,
 * each encoded with the cheapest scheme that fits its distribution:
 *
 *   column 0 "cls"       one byte per record: the InstClass in the low
 *                        7 bits, the taken flag in bit 7.
 *   column 1 "pc"        zigzag(varint(pc[i] - pc[i-1])), previous PC
 *                        starting at 0 for every chunk (chunks stay
 *                        independently decodable). Sequential code is
 *                        one byte per record.
 *   column 2 "reg"       a width byte W (bits per register id for this
 *                        chunk), then a bit stream per record: 2 bits
 *                        numSrcRegs, 1 bit hasDst, then (numSrcRegs +
 *                        hasDst) register ids of W bits each.
 *   column 3 "mem_addr"  zigzag varint address deltas, one entry per
 *                        memory record only (previous address starts
 *                        at 0 per chunk).
 *   column 4 "mem_size"  one byte per memory record.
 *   column 5 "target"    zigzag(varint(target - pc)), one entry per
 *                        control-transfer record only.
 *
 * The encoder canonicalizes records exactly as the field-validity
 * rules in inst_record.hh allow: unused srcRegs lanes read back as
 * kInvalidReg, memAddr/memSize are 0 for non-memory records, target
 * is 0 for non-control records. The taken flag survives for every
 * class. The interpreter only ever emits canonical records, so real
 * recordings round-trip byte-identically; canonicalRecord() is the shared
 * definition used by the codec and by `mica trace convert`'s
 * record-identity verification.
 *
 * Every decode failure throws TraceFileError naming the failing
 * column, so a flipped bit in a 200 MB corpus shard reports
 * "corrupt column 'pc' ..." instead of a bare checksum mismatch.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/inst_record.hh"

namespace mica
{
namespace columnar
{

/** Number of column streams in a v2 chunk. */
constexpr size_t kNumColumns = 6;

enum ColumnId : size_t
{
    kColCls = 0,
    kColPc = 1,
    kColReg = 2,
    kColMemAddr = 3,
    kColMemSize = 4,
    kColTarget = 5,
};

/** @return the stable name of a column (used in error messages). */
const char *columnName(size_t col);

/** Append @p v as a little-endian base-128 varint (1..10 bytes). */
void putVarint(std::string &out, uint64_t v);

/**
 * Decode one varint at @p p (not past @p end). Advances @p p.
 * @return false on truncation or an overlong (> 10 byte) encoding.
 */
bool getVarint(const unsigned char *&p, const unsigned char *end,
               uint64_t &v);

/** Map a signed delta onto small unsigned values (0,-1,1,-2,...). */
constexpr uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
constexpr int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/** MSB-first bit appender over a byte string. */
class BitWriter
{
  public:
    explicit BitWriter(std::string &out) : out_(out) {}

    /** Append the low @p nbits bits of @p v (nbits <= 57). */
    void
    put(uint64_t v, unsigned nbits)
    {
        acc_ = (acc_ << nbits) | (v & ((nbits >= 64) ? ~0ull
                                                     : ((1ull << nbits) -
                                                        1)));
        bits_ += nbits;
        while (bits_ >= 8) {
            bits_ -= 8;
            out_.push_back(static_cast<char>((acc_ >> bits_) & 0xff));
        }
    }

    /** Pad the last partial byte with zero bits and emit it. */
    void
    flush()
    {
        if (bits_ > 0) {
            out_.push_back(
                static_cast<char>((acc_ << (8 - bits_)) & 0xff));
            bits_ = 0;
        }
        acc_ = 0;
    }

  private:
    std::string &out_;
    uint64_t acc_ = 0;
    unsigned bits_ = 0;
};

/** MSB-first bit reader over a byte range. */
class BitReader
{
  public:
    BitReader(const unsigned char *p, const unsigned char *end)
        : p_(p), end_(end), begin_(p)
    {}

    /** Read @p nbits bits (nbits <= 57). @return false past the end. */
    bool
    get(unsigned nbits, uint64_t &v)
    {
        while (bits_ < nbits) {
            if (p_ == end_)
                return false;
            acc_ = (acc_ << 8) | *p_++;
            bits_ += 8;
        }
        bits_ -= nbits;
        v = (nbits == 0) ? 0
                         : ((acc_ >> bits_) & ((nbits >= 64)
                                                   ? ~0ull
                                                   : ((1ull << nbits) -
                                                      1)));
        return true;
    }

    /** @return bytes pulled from the input so far. */
    size_t consumed() const { return static_cast<size_t>(p_ - begin_); }

  private:
    const unsigned char *p_;
    const unsigned char *end_;
    const unsigned char *begin_;
    uint64_t acc_ = 0;
    unsigned bits_ = 0;
};

/**
 * @return @p r with every field the validity rules declare meaningless
 * forced to its default (and struct padding zeroed), so two records
 * that analyzers cannot distinguish compare equal with memcmp.
 */
InstRecord canonicalRecord(const InstRecord &r);

/**
 * Encode @p n records as six column streams appended to @p out (which
 * is NOT cleared), recording each column's byte length in
 * @p colBytes[kNumColumns]. Records are canonicalized first.
 */
void encodeChunk(const InstRecord *recs, size_t n, std::string &out,
                 uint32_t colBytes[kNumColumns]);

/**
 * Decode @p n records from the concatenated column payload at
 * @p payload, whose per-column byte lengths are @p colBytes.
 *
 * Every structural violation — truncated or overlong varints, an
 * out-of-range class id, a register width over 16, trailing bytes in
 * any column — throws TraceFileError naming @p path and the column.
 */
void decodeChunk(const char *payload,
                 const uint32_t colBytes[kNumColumns], size_t n,
                 InstRecord *out, const std::string &path);

} // namespace columnar
} // namespace mica
