/**
 * @file
 * Set-associative cache model with LRU replacement.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mica::uarch
{

/**
 * @return @p n after checking it is a power of two, as the table
 * masks in this module need; throws std::invalid_argument naming
 * @p what otherwise.
 */
inline uint64_t
checkedPow2(uint64_t n, const char *what)
{
    if (n == 0 || (n & (n - 1)) != 0)
        throw std::invalid_argument(std::string(what) +
                                    " must be a power of two, got " +
                                    std::to_string(n));
    return n;
}

/** Geometry of one cache level. */
struct CacheConfig
{
    uint64_t sizeBytes = 8 * 1024;
    uint64_t lineBytes = 32;
    uint64_t assoc = 1;
};

/**
 * Tag-only set-associative cache with true-LRU replacement. Tracks
 * accesses and misses; no data storage (the interpreter holds the
 * functional state). Single-ported, blocking — adequate for the
 * counter-style statistics the paper's HPC characterization uses.
 *
 * Each set is a most-recently-used-first stack of line tags: a hit
 * moves its line to the front, and a miss pushes the new line to the
 * front, growing the set until it is full and dropping the last
 * (least recently used) line after that. Lines are never invalidated,
 * so this is exactly "fill an empty way, else evict the LRU way".
 * The set count must be a power of two; the set index is a mask.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg)
        : lineBits_(log2u(cfg.lineBytes)),
          setMask_(checkedPow2(setCount(cfg), "cache set count") - 1),
          assoc_(cfg.assoc),
          tags_((setMask_ + 1) * cfg.assoc),
          fill_(setMask_ + 1, 0)
    {}

    /**
     * Look up addr; fill on miss.
     * @return true on hit.
     */
    bool
    access(uint64_t addr)
    {
        ++accesses_;
        const uint64_t line = addr >> lineBits_;
        const uint64_t set = line & setMask_;
        uint64_t *tags = &tags_[set * assoc_];
        uint32_t &fill = fill_[set];
        uint64_t w = 0;
        while (w < fill && tags[w] != line)
            ++w;
        const bool hit = w < fill;
        if (!hit) {
            ++misses_;
            w = fill < assoc_ ? fill++ : assoc_ - 1;
        }
        std::copy_backward(tags, tags + w, tags + w + 1);
        tags[0] = line;
        return hit;
    }

    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }

    /** @return misses / accesses (0 when idle). */
    double
    missRate() const
    {
        return accesses_ ? static_cast<double>(misses_) /
                           static_cast<double>(accesses_) : 0.0;
    }

    uint64_t numSets() const { return setMask_ + 1; }

  private:
    static uint64_t
    setCount(const CacheConfig &cfg)
    {
        const uint64_t setBytes = cfg.lineBytes * cfg.assoc;
        return setBytes ? cfg.sizeBytes / setBytes : 0;
    }

    static unsigned
    log2u(uint64_t v)
    {
        unsigned b = 0;
        while ((1ull << b) < v)
            ++b;
        return b;
    }

    unsigned lineBits_;
    uint64_t setMask_;
    uint64_t assoc_;
    std::vector<uint64_t> tags_;    ///< per set: MRU-first line tags
    std::vector<uint32_t> fill_;    ///< per set: lines held
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

/**
 * Fully associative TLB with LRU replacement, modeled as a one-set
 * cache over page-granular addresses.
 */
class Tlb
{
  public:
    Tlb(unsigned entries, unsigned pageBits)
        : cache_(CacheConfig{entries * (1ull << pageBits),
                             1ull << pageBits, entries})
    {}

    /** @return true on TLB hit. */
    bool access(uint64_t addr) { return cache_.access(addr); }

    uint64_t accesses() const { return cache_.accesses(); }
    uint64_t misses() const { return cache_.misses(); }
    double missRate() const { return cache_.missRate(); }

  private:
    Cache cache_;
};

} // namespace mica::uarch
