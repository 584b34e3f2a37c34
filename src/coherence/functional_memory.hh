/**
 * @file
 * Functional (value-carrying) memory image.
 *
 * The timing simulation tracks coherence metadata only; actual data
 * values matter solely for synchronization (lock words, barrier
 * counters, sense flags, ll/sc outcomes). This sparse word store holds
 * those values; reads of untouched words return zero.
 */

#ifndef FSOI_COHERENCE_FUNCTIONAL_MEMORY_HH
#define FSOI_COHERENCE_FUNCTIONAL_MEMORY_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace fsoi::coherence {

/**
 * Sparse 64-bit word store shared by every core in a System. A System
 * runs on one thread, so the store needs no locking; concurrent sweep
 * runs each own their System and with it their own store.
 */
class FunctionalMemory
{
  public:
    std::uint64_t
    read(Addr addr) const
    {
        const auto it = words_.find(addr);
        return it == words_.end() ? 0 : it->second;
    }

    void write(Addr addr, std::uint64_t value) { words_[addr] = value; }

    void clear() { words_.clear(); }

    /** Checkpoint hook (snapshot/serialize.hh): every touched word,
     *  in ascending address order so snapshot hashes stay stable. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar.sortedMap(words_);
    }

  private:
    std::unordered_map<Addr, std::uint64_t> words_;
};

} // namespace fsoi::coherence

#endif // FSOI_COHERENCE_FUNCTIONAL_MEMORY_HH
