/**
 * @file
 * Table of in-flight entries keyed by line address, shared by the L1's
 * MSHRs and the directory's open transactions.
 */

#ifndef FSOI_COHERENCE_LINE_TABLE_HH
#define FSOI_COHERENCE_LINE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace fsoi::coherence {

/**
 * Struct-of-arrays table: the line addresses live in one flat key array
 * (kFreeLine sentinel = free slot) parallel to the T payloads, and free
 * slots sit on a LIFO free list. Lookup is a linear scan of the key
 * array -- an L1 has num_mshrs entries (8 by default) and a directory
 * rarely holds more than a handful of open transactions, so the scan
 * touches a cache line or two, which beats the hash-and-chase of an
 * unordered_map on the per-message hot paths.
 *
 * Capacity changes only through reset() and grow(); alloc() needs a
 * free slot (the L1 has a fixed MSHR count, the directory grows its
 * table on demand). Slot order depends on allocation history, so every
 * behaviour-visible iteration sorts by line address (the L1's NACK
 * retries, serialize()); forEach() is for order-blind scans only.
 */
template <typename T>
class LineTable
{
  public:
    static constexpr Addr kFreeLine = ~Addr(0);

    /** Empty the table, leaving @p capacity free slots. */
    void
    reset(int capacity)
    {
        lines_.assign(static_cast<std::size_t>(capacity), kFreeLine);
        slots_.clear();
        slots_.resize(static_cast<std::size_t>(capacity));
        free_.clear();
        for (int i = capacity; i-- > 0;)
            free_.push_back(i);
        used_ = 0;
    }

    /** Append one free slot. */
    void
    grow()
    {
        lines_.push_back(kFreeLine);
        slots_.emplace_back();
        free_.push_back(capacity() - 1);
    }

    /** Slot index of @p line, or -1 when absent. */
    int
    find(Addr line) const
    {
        const int cap = capacity();
        for (int i = 0; i < cap; ++i)
            if (lines_[i] == line)
                return i;
        return -1;
    }

    bool contains(Addr line) const { return find(line) >= 0; }
    bool full() const { return free_.empty(); }
    bool empty() const { return used_ == 0; }
    std::size_t size() const { return static_cast<std::size_t>(used_); }
    int capacity() const { return static_cast<int>(lines_.size()); }
    Addr lineAt(int idx) const
    { return lines_[static_cast<std::size_t>(idx)]; }
    T &at(int idx) { return slots_[static_cast<std::size_t>(idx)]; }
    const T &at(int idx) const
    { return slots_[static_cast<std::size_t>(idx)]; }

    /** Claim a free slot for @p line; the table must not be full. */
    int
    alloc(Addr line)
    {
        FSOI_ASSERT(line != kFreeLine && !free_.empty());
        const int idx = free_.back();
        free_.pop_back();
        lines_[static_cast<std::size_t>(idx)] = line;
        slots_[static_cast<std::size_t>(idx)] = T{};
        ++used_;
        return idx;
    }

    /** Move the entry out and return the slot to the free list. */
    T
    release(int idx)
    {
        T out = std::move(slots_[static_cast<std::size_t>(idx)]);
        slots_[static_cast<std::size_t>(idx)] = T{};
        lines_[static_cast<std::size_t>(idx)] = kFreeLine;
        free_.push_back(idx);
        --used_;
        return out;
    }

    /** Visit every entry as fn(line, entry), in slot order. */
    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (int i = 0; i < capacity(); ++i)
            if (lines_[static_cast<std::size_t>(i)] != kFreeLine)
                fn(lines_[static_cast<std::size_t>(i)], at(i));
    }

    /**
     * Checkpoint hook (snapshot/serialize.hh): the entries sorted by
     * line address, so snapshot bytes never depend on slot history,
     * each as its line followed by @p each's fields. Loading empties
     * the table (keeping its capacity, or growing it to the stored
     * entry count) and re-allocates the entries in that order.
     */
    template <class Ar, class Fn>
    void
    serialize(Ar &ar, Fn &&each)
    {
        std::vector<Addr> order;
        forEach([&](Addr line, const T &) { order.push_back(line); });
        std::sort(order.begin(), order.end());
        const std::uint64_t n = ar.count(order.size());
        if (ar.loading()) {
            reset(std::max(capacity(), static_cast<int>(n)));
            order.resize(n);
        }
        for (Addr &line : order) {
            ar(line);
            each(at(ar.loading() ? alloc(line) : find(line)));
        }
    }

  private:
    std::vector<Addr> lines_;
    std::vector<T> slots_;
    std::vector<int> free_;
    int used_ = 0;
};

} // namespace fsoi::coherence

#endif // FSOI_COHERENCE_LINE_TABLE_HH
