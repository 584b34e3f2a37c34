/**
 * @file
 * Due lists: the timed event lists components drain in tick() and
 * report in nextEventCycle() (L1 completions, directory and memory
 * controller sends, FSOI confirmations and control bits, mesh
 * ejections and retransmissions). Each entry carries a `due` cycle;
 * drainDue() and nextDue() are the two halves of one wake-contract
 * term, so what a tick drains and what the calendar is told agree by
 * construction.
 */

#ifndef FSOI_COMMON_DUE_LIST_HH
#define FSOI_COMMON_DUE_LIST_HH

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/types.hh"

namespace fsoi {

/**
 * Hand every entry of @p list with `due <= now` to @p fn, oldest
 * first. fn returns whether it consumed the entry: consumed entries
 * leave the list, declined ones (a send the transport refused) stay
 * for a later tick, in their original order among the entries not yet
 * due. fn must not add to or remove from @p list.
 */
template <class List, class Fn>
void
drainDue(List &list, Cycle now, Fn &&fn)
{
    std::size_t keep = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].due <= now && fn(list[i]))
            continue;
        if (keep != i)
            list[keep] = std::move(list[i]);
        ++keep;
    }
    list.resize(keep);
}

/**
 * The wake-contract term of @p list: its earliest due, clamped to
 * now + 1 (an entry a tick declined retries next cycle), or kNoCycle
 * when the list is empty.
 */
template <class List>
Cycle
nextDue(const List &list, Cycle now)
{
    Cycle next = kNoCycle;
    for (const auto &entry : list)
        next = std::min(next, std::max<Cycle>(entry.due, now + 1));
    return next;
}

} // namespace fsoi

#endif // FSOI_COMMON_DUE_LIST_HH
