/**
 * @file
 * SlotPool: a typed free-list pool addressed by 32-bit handles.
 *
 * The mesh keeps every in-flight packet in one SlotPool; its flits,
 * injectors and pending deliveries hold 4-byte handles instead of
 * pointers, so a hop costs one base+index load and steady-state
 * traffic recycles freed slots instead of allocating. Pools are not
 * thread-safe: a System runs entirely on one thread (see
 * sim::SweepRunner).
 */

#ifndef FSOI_COMMON_POOL_HH
#define FSOI_COMMON_POOL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace fsoi::common {

/**
 * Typed slot pool handing out 32-bit index handles instead of
 * pointers. The slots live in one contiguous vector, and freed slots
 * are recycled LIFO. Handles are stable for the lifetime of the
 * allocation; references returned by operator[] are only valid until
 * the next alloc() (the backing vector may grow).
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

} // namespace fsoi::common

#endif // FSOI_COMMON_POOL_HH
