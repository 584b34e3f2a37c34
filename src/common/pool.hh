/**
 * @file
 * Free-list block pool and the allocator adapter that plugs it into
 * std::allocate_shared.
 *
 * The simulator allocates one shared_ptr<Message> per network packet;
 * at millions of packets per run the malloc/free pair dominates the
 * transport hot path. A BlockPool hands out fixed-size blocks from
 * chunked slabs and recycles them through a free list, so steady-state
 * packet traffic performs no heap allocation at all.
 *
 * A pool serves blocks of a single size, fixed by the first allocation
 * (allocate_shared's combined control-block-plus-object node). Pools
 * are intentionally not thread-safe: each System owns its pools and a
 * System runs entirely on one thread (see sim::SweepRunner). The pool
 * must outlive every shared_ptr allocated from it, so it is declared
 * before the components that hold packets in flight.
 */

#ifndef FSOI_COMMON_POOL_HH
#define FSOI_COMMON_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/logging.hh"

namespace fsoi::common {

class BlockPool
{
  public:
    /** @p chunk_blocks blocks are grabbed from the heap at a time. */
    explicit BlockPool(std::size_t chunk_blocks = 256)
        : chunk_blocks_(chunk_blocks ? chunk_blocks : 1)
    {}

    void *
    allocate(std::size_t bytes)
    {
        if (block_bytes_ == 0)
            block_bytes_ = roundUp(bytes);
        FSOI_ASSERT(roundUp(bytes) == block_bytes_,
                    "BlockPool serves %zu-byte blocks, asked for %zu",
                    block_bytes_, bytes);
        if (free_.empty())
            grow();
        void *p = free_.back();
        free_.pop_back();
        return p;
    }

    void
    deallocate(void *p, std::size_t bytes)
    {
        FSOI_ASSERT(roundUp(bytes) == block_bytes_);
        free_.push_back(p);
    }

    std::size_t blockBytes() const { return block_bytes_; }
    std::size_t capacity() const { return chunks_.size() * chunk_blocks_; }

  private:
    static std::size_t
    roundUp(std::size_t bytes)
    {
        constexpr std::size_t align = alignof(std::max_align_t);
        return (bytes + align - 1) / align * align;
    }

    void
    grow()
    {
        auto chunk = std::make_unique<std::byte[]>(
            block_bytes_ * chunk_blocks_);
        std::byte *base = chunk.get();
        free_.reserve(free_.size() + chunk_blocks_);
        for (std::size_t i = 0; i < chunk_blocks_; ++i)
            free_.push_back(base + i * block_bytes_);
        chunks_.push_back(std::move(chunk));
    }

    std::size_t chunk_blocks_;
    std::size_t block_bytes_ = 0;
    std::vector<void *> free_;
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

/**
 * Typed slot pool handing out 32-bit index handles instead of
 * pointers. The slots live in one contiguous vector, so holders pay a
 * single base+index load per access and the handle itself is 4 bytes
 * -- the data-oriented replacement for shared_ptr hops in the network
 * hot path. Freed slots are recycled LIFO. Handles are stable for the
 * lifetime of the allocation; references returned by operator[] are
 * only valid until the next alloc() (the backing vector may grow).
 */
template <typename T>
class SlotPool
{
  public:
    using Handle = std::uint32_t;
    static constexpr Handle kNull = 0xffffffffu;

    Handle
    alloc(T &&value)
    {
        if (!free_.empty()) {
            const Handle h = free_.back();
            free_.pop_back();
            slots_[h] = std::move(value);
            return h;
        }
        FSOI_ASSERT(slots_.size() < kNull, "SlotPool exhausted");
        slots_.push_back(std::move(value));
        return static_cast<Handle>(slots_.size() - 1);
    }

    void release(Handle h) { free_.push_back(h); }

    T &operator[](Handle h) { return slots_[h]; }
    const T &operator[](Handle h) const { return slots_[h]; }

    /** Slots ever allocated (live + free-listed). */
    std::size_t capacity() const { return slots_.size(); }
    std::size_t liveCount() const { return slots_.size() - free_.size(); }

    /** Checkpoint hook (snapshot/serialize.hh). The slot array AND
     *  the LIFO free list round-trip verbatim so future alloc() calls
     *  hand out the same handles in the same order as the
     *  uninterrupted run. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar.seq(slots_);
        ar.seq(free_);
    }

  private:
    std::vector<T> slots_;
    std::vector<Handle> free_;
};

/**
 * Minimal allocator over a BlockPool, for std::allocate_shared. The
 * rebound node type is what fixes the pool's block size.
 */
template <typename T>
class PoolAllocator
{
  public:
    using value_type = T;

    explicit PoolAllocator(BlockPool &pool) : pool_(&pool) {}

    template <typename U>
    PoolAllocator(const PoolAllocator<U> &other) : pool_(other.pool())
    {}

    T *
    allocate(std::size_t n)
    {
        FSOI_ASSERT(n == 1);
        return static_cast<T *>(pool_->allocate(sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        FSOI_ASSERT(n == 1);
        pool_->deallocate(p, sizeof(T));
    }

    BlockPool *pool() const { return pool_; }

    template <typename U>
    bool operator==(const PoolAllocator<U> &other) const
    { return pool_ == other.pool(); }

  private:
    BlockPool *pool_;
};

/**
 * Convenience: pooled equivalent of std::make_shared<T>(args...).
 * The control block and the T live in one recycled pool block.
 */
template <typename T, typename... Args>
std::shared_ptr<T>
makePooled(BlockPool &pool, Args &&...args)
{
    return std::allocate_shared<T>(PoolAllocator<T>(pool),
                                   std::forward<Args>(args)...);
}

} // namespace fsoi::common

#endif // FSOI_COMMON_POOL_HH
