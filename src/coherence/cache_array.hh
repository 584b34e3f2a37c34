/**
 * @file
 * Generic set-associative tag array with LRU replacement, shared by the
 * L1 caches and the L2 slices. Stores per-line metadata only (states,
 * sharer sets); data values live in the functional memory.
 */

#ifndef FSOI_COHERENCE_CACHE_ARRAY_HH
#define FSOI_COHERENCE_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace fsoi::coherence {

/** Geometry of a cache. */
struct CacheGeometry
{
    std::uint32_t size_bytes;
    std::uint32_t line_bytes;
    std::uint32_t associativity;
    /**
     * Address bits (above the line offset) to skip when computing the
     * set index. Distributed L2 slices set this to log2(num_slices) so
     * home interleaving and set indexing use disjoint bits; otherwise a
     * slice would only ever touch 1/num_slices of its sets.
     */
    std::uint32_t index_skip_bits = 0;
    /**
     * XOR-fold the set index (as real L2 designs do) so power-of-two
     * strided footprints don't collapse onto a few sets. Off for L1s,
     * which conventionally index with plain low bits.
     */
    bool hash_index = false;

    std::uint32_t
    numSets() const
    {
        return size_bytes / (line_bytes * associativity);
    }
};

/**
 * Set-associative array of lines carrying metadata @p Meta.
 * Lines are keyed by line-aligned addresses.
 */
template <typename Meta>
class CacheArray
{
  public:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lru = 0;
        Meta meta{};
    };

    explicit CacheArray(const CacheGeometry &geom)
        : geom_(geom), sets_(geom.numSets()),
          lines_(static_cast<std::size_t>(geom.numSets())
                 * geom.associativity)
    {
        FSOI_ASSERT(geom.size_bytes % (geom.line_bytes * geom.associativity)
                    == 0, "cache geometry does not divide evenly");
        FSOI_ASSERT((sets_ & (sets_ - 1)) == 0,
                    "number of sets must be a power of two");
        FSOI_ASSERT((geom.line_bytes & (geom.line_bytes - 1)) == 0);
    }

    const CacheGeometry &geometry() const { return geom_; }

    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(geom_.line_bytes - 1);
    }

    /** Find a valid line; returns nullptr on miss. Touches LRU. */
    Line *
    find(Addr addr)
    {
        const Addr la = lineAddr(addr);
        const std::size_t set = setOf(la);
        for (std::uint32_t w = 0; w < geom_.associativity; ++w) {
            Line &line = lines_[set * geom_.associativity + w];
            if (line.valid && line.tag == la) {
                line.lru = ++lruClock_;
                return &line;
            }
        }
        return nullptr;
    }

    /** Find without touching LRU. */
    const Line *
    peek(Addr addr) const
    {
        const Addr la = lineAddr(addr);
        const std::size_t set = setOf(la);
        for (std::uint32_t w = 0; w < geom_.associativity; ++w) {
            const Line &line = lines_[set * geom_.associativity + w];
            if (line.valid && line.tag == la)
                return &line;
        }
        return nullptr;
    }

    /**
     * Pick the victim way for @p addr: an invalid way if one exists,
     * otherwise the LRU line. The caller must handle eviction of the
     * returned line if it is valid.
     */
    Line *
    victim(Addr addr)
    {
        const std::size_t set = setOf(lineAddr(addr));
        Line *best = nullptr;
        for (std::uint32_t w = 0; w < geom_.associativity; ++w) {
            Line &line = lines_[set * geom_.associativity + w];
            if (!line.valid)
                return &line;
            if (!best || line.lru < best->lru)
                best = &line;
        }
        return best;
    }

    /**
     * As victim(), but only lines satisfying @p evictable may be
     * chosen; returns nullptr when every valid way is pinned.
     */
    template <typename Pred>
    Line *
    victimIf(Addr addr, Pred &&evictable)
    {
        const std::size_t set = setOf(lineAddr(addr));
        Line *best = nullptr;
        for (std::uint32_t w = 0; w < geom_.associativity; ++w) {
            Line &line = lines_[set * geom_.associativity + w];
            if (!line.valid)
                return &line;
            if (!evictable(line))
                continue;
            if (!best || line.lru < best->lru)
                best = &line;
        }
        return best;
    }

    /** Install a line in the given slot (from victim()). */
    void
    install(Line *slot, Addr addr, const Meta &meta)
    {
        slot->tag = lineAddr(addr);
        slot->valid = true;
        slot->lru = ++lruClock_;
        slot->meta = meta;
    }

    void
    invalidate(Line *slot)
    {
        slot->valid = false;
        slot->meta = Meta{};
    }

    /** Iterate the valid lines of the set covering @p addr. */
    template <typename Fn>
    void
    forEachInSet(Addr addr, Fn &&fn) const
    {
        const std::size_t set = setOf(lineAddr(addr));
        for (std::uint32_t w = 0; w < geom_.associativity; ++w) {
            const Line &line = lines_[set * geom_.associativity + w];
            if (line.valid)
                fn(line);
        }
    }

    /** Iterate all valid lines (for invariant checks in tests). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Line &line : lines_)
            if (line.valid)
                fn(line);
    }

    /**
     * Checkpoint hook (snapshot/serialize.hh): every way in slot order,
     * Meta describing its own fields, then the LRU clock, so victim
     * selection after a restore is bit-identical to the uninterrupted
     * run. The ways are read straight into place.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar.fixed(lines_, "cache geometry", [&](Line &line) {
            ar(line.tag, line.valid, line.lru, line.meta);
        });
        ar(lruClock_);
    }

  private:
    std::size_t
    setOf(Addr line_addr) const
    {
        const Addr idx =
            (line_addr / geom_.line_bytes) >> geom_.index_skip_bits;
        if (!geom_.hash_index)
            return idx & (sets_ - 1);
        return (idx ^ (idx >> 8) ^ (idx >> 16)) & (sets_ - 1);
    }

    CacheGeometry geom_;
    std::size_t sets_;
    std::uint64_t lruClock_ = 0;
    std::vector<Line> lines_;
};

} // namespace fsoi::coherence

#endif // FSOI_COHERENCE_CACHE_ARRAY_HH
