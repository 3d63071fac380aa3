/**
 * @file
 * Open-addressing flat hash containers for analyzer hot paths.
 *
 * std::unordered_map/set allocate one node per element and chase at
 * least one pointer per lookup. The analyzer hot loops do one or more
 * lookups per dynamic instruction (the PPM branch-id map, working-set
 * block/page sets, per-PC stride tables, the interpreter's page
 * table), so node allocation and pointer chasing dominate profiling
 * time. These containers keep all slots in one contiguous
 * power-of-two array probed linearly: no per-element allocation and
 * at most one cache miss per lookup in the common case.
 *
 * Semantics are deliberately minimal — insert, find, grow. There is
 * no erase, hence no tombstones: profiling state only ever
 * accumulates over a trace and is dropped wholesale afterwards.
 * Keys must be integral (they are hashed through a 64-bit finalizer);
 * mapped values must be default-constructible and movable.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mica::util
{

/**
 * Finalizer-style 64-bit mixer (MurmurHash3 fmix64). Full avalanche,
 * so degenerate key patterns (page numbers, word-aligned PCs, keys
 * differing only in high bits) spread over the table instead of
 * clustering in one probe run.
 */
inline uint64_t
hashMix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Default hash policy: full-avalanche mix of the key. */
struct MixHash
{
    static uint64_t of(uint64_t x) { return hashMix(x); }
};

/**
 * Cheap fold-multiply-fold policy (4 ops vs the finalizer's 5): fold
 * the high half into the low, one odd-constant multiply, then fold
 * the well-mixed high product bits back down so the *low* bits used
 * for table indexing depend on every input bit. Good enough for
 * natural key spaces (addresses, PCs, block/page numbers) probed on a
 * hot path; prefer MixHash (full avalanche) when keys may be
 * adversarial.
 */
struct MulHash
{
    static uint64_t
    of(uint64_t x)
    {
        x ^= x >> 32;
        x *= 0x9e3779b97f4a7c15ull;
        return x ^ (x >> 29);
    }
};

/**
 * Open-addressing hash map from an integral key to a value.
 *
 * Grows by doubling at 70% load; capacity is always a power of two so
 * probing is an AND, not a modulo. Pointers returned by find() /
 * tryEmplace() / operator[] are invalidated by any later insertion.
 */
template <typename K, typename V, typename Hash = MixHash>
class FlatHashMap
{
  public:
    FlatHashMap() = default;

    /** @return number of stored entries. */
    size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** Drop all entries and release the slot array. */
    void
    clear()
    {
        slots_.clear();
        slots_.shrink_to_fit();
        size_ = 0;
        mask_ = 0;
    }

    /** Pre-size the table so n entries fit without rehashing. */
    void
    reserve(size_t n)
    {
        size_t cap = kMinCapacity;
        while (cap * 7 < n * 10)
            cap <<= 1;
        if (cap > slots_.size())
            rehash(cap);
    }

    /** @return pointer to the mapped value, or nullptr when absent. */
    V *
    find(K key)
    {
        if (slots_.empty())
            return nullptr;
        for (size_t i = probe(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    const V *
    find(K key) const
    {
        return const_cast<FlatHashMap *>(this)->find(key);
    }

    bool contains(K key) const { return find(key) != nullptr; }

    /**
     * Insert (key, value) unless the key is present.
     *
     * @return the mapped value (new or pre-existing) and whether the
     *         insertion happened — std::map::try_emplace semantics.
     */
    std::pair<V *, bool>
    tryEmplace(K key, V value)
    {
        growIfNeeded();
        for (size_t i = probe(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used) {
                s.used = true;
                s.key = key;
                s.value = std::move(value);
                ++size_;
                return {&s.value, true};
            }
            if (s.key == key)
                return {&s.value, false};
        }
    }

    /** Map-style accessor: value-initializes missing entries. */
    V &operator[](K key) { return *tryEmplace(key, V()).first; }

    /** @return current slot-array capacity (for tests/diagnostics). */
    size_t capacity() const { return slots_.size(); }

  private:
    static constexpr size_t kMinCapacity = 16;

    struct Slot
    {
        K key{};
        V value{};
        bool used = false;
    };

    size_t
    probe(K key) const
    {
        return static_cast<size_t>(
            Hash::of(static_cast<uint64_t>(key))) & mask_;
    }

    void
    growIfNeeded()
    {
        if (slots_.empty())
            rehash(kMinCapacity);
        else if ((size_ + 1) * 10 > slots_.size() * 7)
            rehash(slots_.size() * 2);
    }

    void
    rehash(size_t newCap)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_ = std::vector<Slot>(newCap);
        mask_ = newCap - 1;
        for (Slot &s : old) {
            if (!s.used)
                continue;
            for (size_t i = probe(s.key);; i = (i + 1) & mask_) {
                Slot &d = slots_[i];
                if (!d.used) {
                    d.used = true;
                    d.key = s.key;
                    d.value = std::move(s.value);
                    break;
                }
            }
        }
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
    size_t mask_ = 0;
};

/**
 * Open-addressing hash set of integral keys: a FlatHashMap whose
 * values are empty (a 16-byte slot for a 64-bit key, as the map's).
 */
template <typename K, typename Hash = MixHash>
class FlatHashSet
{
  public:
    size_t size() const { return map_.size(); }

    bool empty() const { return map_.empty(); }

    void clear() { map_.clear(); }

    void reserve(size_t n) { map_.reserve(n); }

    bool contains(K key) const { return map_.contains(key); }

    /** @return true when the key was newly inserted. */
    bool insert(K key) { return map_.tryEmplace(key, Empty{}).second; }

    size_t capacity() const { return map_.capacity(); }

  private:
    struct Empty
    {};

    FlatHashMap<K, Empty, Hash> map_;
};

/**
 * Exact name -> position lookup over a fixed list of names: one probe
 * of a FlatHashMap keyed by the name's 64-bit hash, verified against
 * the stored name. Two names with one full hash make every lookup
 * fall back to a scan, so an answer is never wrong; a repeated name
 * finds its first position.
 */
class NameIndex
{
  public:
    NameIndex() = default;

    explicit NameIndex(std::vector<std::string> names)
        : names_(std::move(names))
    {
        map_.reserve(names_.size());
        for (size_t i = 0; i < names_.size(); ++i) {
            auto [slot, inserted] = map_.tryEmplace(
                hashOf(names_[i]), static_cast<uint32_t>(i));
            if (!inserted && names_[*slot] != names_[i])
                collision_ = true;
        }
    }

    /** @return the position of @p name, or -1. */
    int64_t
    find(const std::string &name) const
    {
        if (collision_) {
            for (size_t i = 0; i < names_.size(); ++i) {
                if (names_[i] == name)
                    return static_cast<int64_t>(i);
            }
            return -1;
        }
        const uint32_t *at = map_.find(hashOf(name));
        if (!at || names_[*at] != name)
            return -1;
        return static_cast<int64_t>(*at);
    }

  private:
    /** FNV-1a over the name bytes. */
    static uint64_t
    hashOf(const std::string &s)
    {
        uint64_t h = 0xcbf29ce484222325ull;
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        return h;
    }

    std::vector<std::string> names_;
    FlatHashMap<uint64_t, uint32_t> map_;
    bool collision_ = false;
};

} // namespace mica::util
