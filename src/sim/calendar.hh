/**
 * @file
 * Event calendar: a bucketed timing wheel that lets the System's run
 * loop advance straight to the next populated cycle instead of ticking
 * cycle by cycle.
 *
 * The calendar is a pure scheduling accelerator, never the source of
 * truth: every wake cycle stored here is recomputed from component
 * state (Component::nextEventCycle()), so a stale entry — a component
 * whose work was satisfied through another path before its scheduled
 * wake — only causes a harmless spurious no-op tick. That is what
 * keeps the calendar out of snapshots: restore rebuilds it by querying
 * each component, and any scheduling difference against the
 * uninterrupted run is unobservable by construction.
 *
 * Invariants (see DESIGN.md §5e):
 *  - after popDue(now), every stored entry is in (now, now + kSlots)
 *    on the wheel or >= now + kSlots in the overflow list;
 *  - a slot holds entries for exactly one cycle (window == wheel size);
 *  - nextEventCycle(now) is exact, not a lower bound: it returns the
 *    earliest scheduled wake, or kNoCycle when the calendar is empty.
 */

#ifndef FSOI_SIM_CALENDAR_HH
#define FSOI_SIM_CALENDAR_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace fsoi::sim {

/** Which component kind a calendar entry wakes. */
enum class WakeKind : std::uint8_t { Mem, Dir, L1, Core };

/**
 * Timing wheel over a power-of-two window of upcoming cycles. Each
 * System owns one and schedules into it from its component phases.
 */
class EventCalendar
{
  public:
    /**
     * Window of 512 cycles covers the longest common in-system wait
     * (memory latency ~200 + service + delivery) without touching the
     * overflow list; anything rarer spills and is refilled in batches.
     */
    static constexpr std::uint64_t kSlots = 512;
    static constexpr std::uint64_t kMask = kSlots - 1;

    struct Entry
    {
        Cycle when;
        WakeKind kind;
        std::uint32_t index;
    };

    EventCalendar() : slots_(kSlots), occupancy_(kSlots / 64, 0) {}

    bool empty() const { return count_ == 0; }
    std::uint64_t size() const { return count_; }

    /** Drop every entry and rewind the window to cycle @p base. */
    void
    reset(Cycle base)
    {
        for (auto &slot : slots_)
            slot.clear();
        std::fill(occupancy_.begin(), occupancy_.end(), 0);
        overflow_.clear();
        overflowMin_ = kNoCycle;
        base_ = base;
        count_ = 0;
    }

    /**
     * Schedule a wake at @p when (> the popDue cursor). Duplicate and
     * later-stale entries are fine; the pop side tolerates them.
     */
    void
    schedule(Cycle when, WakeKind kind, std::uint32_t index)
    {
        FSOI_ASSERT(when >= base_, "calendar schedule in the past");
        ++count_;
        if (when < base_ + kSlots) {
            const std::uint64_t s = when & kMask;
            slots_[s].push_back(Entry{when, kind, index});
            occupancy_[s >> 6] |= 1ull << (s & 63);
            return;
        }
        overflow_.push_back(Entry{when, kind, index});
        if (when < overflowMin_)
            overflowMin_ = when;
    }

    /**
     * Deliver every entry due at or before @p now to @p fn(kind,
     * index) and advance the window to start at now + 1. Uses the
     * occupancy bitmap to jump between populated slots, so a pop
     * across a long empty stretch costs O(words), not O(cycles).
     */
    template <typename Fn>
    void
    popDue(Cycle now, Fn &&fn)
    {
        if (now < base_)
            return;
        if (count_ != 0) {
            const Cycle wheel_end = base_ + kSlots; // exclusive
            const Cycle due_end = now < wheel_end ? now + 1 : wheel_end;
            for (Cycle c = base_; c < due_end;) {
                // Scan the occupancy word at c's slot for the next
                // populated slot in this wheel pass.
                const std::uint64_t s = c & kMask;
                std::uint64_t word = occupancy_[s >> 6]
                    & ~((1ull << (s & 63)) - 1);
                if (word == 0) {
                    c = (c | 63) + 1; // next occupancy word
                    continue;
                }
                const std::uint64_t slot =
                    (s & ~63ull) + std::countr_zero(word);
                const Cycle cyc = base_ + ((slot - (base_ & kMask))
                                           & kMask);
                if (cyc >= due_end)
                    break;
                for (const Entry &e : slots_[slot])
                    fn(e.kind, e.index);
                count_ -= slots_[slot].size();
                slots_[slot].clear();
                occupancy_[slot >> 6] &= ~(1ull << (slot & 63));
                c = cyc + 1;
            }
            // Defensive: the epoch is the min over all wake sources,
            // so now can only overrun the wheel window when nothing in
            // the calendar was due — but if it ever does, deliver the
            // overrun entries instead of silently re-filing them late.
            if (now + 1 > wheel_end && !overflow_.empty()) {
                std::size_t keep = 0;
                overflowMin_ = kNoCycle;
                for (std::size_t i = 0; i < overflow_.size(); ++i) {
                    const Entry &e = overflow_[i];
                    if (e.when <= now) {
                        fn(e.kind, e.index);
                        --count_;
                        continue;
                    }
                    if (e.when < overflowMin_)
                        overflowMin_ = e.when;
                    overflow_[keep++] = e;
                }
                overflow_.resize(keep);
            }
        }
        base_ = now + 1;
        refillOverflow();
    }

    /**
     * Earliest scheduled wake strictly after the current window base
     * (entries at or before the last popDue cursor are already
     * delivered), or kNoCycle when empty.
     */
    Cycle
    nextEventCycle() const
    {
        if (count_ == 0)
            return kNoCycle;
        Cycle next = overflowMin_;
        for (Cycle c = base_; c < base_ + kSlots;) {
            const std::uint64_t s = c & kMask;
            std::uint64_t word = occupancy_[s >> 6]
                & ~((1ull << (s & 63)) - 1);
            if (word == 0) {
                c = (c | 63) + 1;
                continue;
            }
            const std::uint64_t slot = (s & ~63ull)
                + std::countr_zero(word);
            const Cycle cyc = base_ + ((slot - (base_ & kMask)) & kMask);
            if (cyc < base_ + kSlots && cyc < next)
                next = cyc;
            break;
        }
        return next;
    }

  private:
    /** Move spilled entries that now fit into the wheel window. */
    void
    refillOverflow()
    {
        if (overflow_.empty() || overflowMin_ >= base_ + kSlots)
            return;
        std::size_t keep = 0;
        overflowMin_ = kNoCycle;
        for (std::size_t i = 0; i < overflow_.size(); ++i) {
            Entry &e = overflow_[i];
            if (e.when < base_ + kSlots) {
                const std::uint64_t s = e.when & kMask;
                slots_[s].push_back(e);
                occupancy_[s >> 6] |= 1ull << (s & 63);
                continue;
            }
            if (e.when < overflowMin_)
                overflowMin_ = e.when;
            overflow_[keep++] = e;
        }
        overflow_.resize(keep);
    }

    std::vector<std::vector<Entry>> slots_;
    std::vector<std::uint64_t> occupancy_;
    std::vector<Entry> overflow_;
    Cycle overflowMin_ = kNoCycle;
    Cycle base_ = 0;
    std::uint64_t count_ = 0;
};

} // namespace fsoi::sim

#endif // FSOI_SIM_CALENDAR_HH
