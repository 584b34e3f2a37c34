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

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

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

    /** All touched words sorted by address (checkpoint/restore: a
     *  canonical order keeps snapshot hashes stable). */
    std::vector<std::pair<Addr, std::uint64_t>>
    exportWords() const
    {
        std::vector<std::pair<Addr, std::uint64_t>> out(words_.begin(),
                                                        words_.end());
        std::sort(out.begin(), out.end());
        return out;
    }

    void
    importWords(const std::vector<std::pair<Addr, std::uint64_t>> &words)
    {
        words_.clear();
        for (const auto &[addr, value] : words)
            words_.emplace(addr, value);
    }

  private:
    std::unordered_map<Addr, std::uint64_t> words_;
};

} // namespace fsoi::coherence

#endif // FSOI_COHERENCE_FUNCTIONAL_MEMORY_HH
