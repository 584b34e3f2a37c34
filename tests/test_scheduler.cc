/**
 * @file
 * Event-calendar scheduler guarantees (DESIGN.md §5e): the timing
 * wheel delivers exactly the entries a brute-force list would, in any
 * traffic pattern; waits longer than the wheel window spill to the
 * overflow list and come back on time; and a snapshot taken while the
 * calendar holds pending wakes restores exactly, even though the
 * calendar itself is never serialized.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/calendar.hh"
#include "sim/sweep_runner.hh"
#include "workload/apps.hh"

#include "run_result_eq.hh"

namespace fsoi {
namespace {

using sim::EventCalendar;
using sim::WakeKind;

/** (kind, index) pair in a comparable form. */
using Wake = std::pair<int, std::uint32_t>;

struct RefEntry
{
    Cycle when;
    WakeKind kind;
    std::uint32_t index;
};

/** Brute-force reference: an unsorted list scanned on every pop. */
class ReferenceCalendar
{
  public:
    void
    schedule(Cycle when, WakeKind kind, std::uint32_t index)
    {
        entries_.push_back(RefEntry{when, kind, index});
    }

    std::vector<Wake>
    popDue(Cycle now)
    {
        std::vector<Wake> due;
        std::size_t keep = 0;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].when <= now)
                due.emplace_back(static_cast<int>(entries_[i].kind),
                                 entries_[i].index);
            else
                entries_[keep++] = entries_[i];
        }
        entries_.resize(keep);
        return due;
    }

    Cycle
    nextEventCycle() const
    {
        Cycle next = kNoCycle;
        for (const auto &e : entries_)
            next = std::min(next, e.when);
        return next;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    std::vector<RefEntry> entries_;
};

std::vector<Wake>
popWheel(EventCalendar &cal, Cycle now)
{
    std::vector<Wake> due;
    cal.popDue(now, [&](WakeKind kind, std::uint32_t index) {
        due.emplace_back(static_cast<int>(kind), index);
    });
    return due;
}

TEST(Calendar, MatchesBruteForceOnRandomTraffic)
{
    // Random schedule/advance interleaving: after every pop the wheel
    // must have delivered exactly the reference's due set (order
    // within a pop is not part of the contract — the run loop
    // re-checks component state on every wake) and must agree on the
    // next populated cycle.
    Rng rng(0x5eedULL);
    EventCalendar cal;
    ReferenceCalendar ref;
    Cycle now = 0;
    std::uint32_t next_index = 0;
    for (int step = 0; step < 4000; ++step) {
        const int burst = static_cast<int>(rng.nextBelow(4));
        for (int i = 0; i < burst; ++i) {
            // Mostly short waits, occasionally past the 512-cycle
            // wheel window so the overflow path sees steady traffic.
            const Cycle delay = rng.nextBool(0.1)
                ? rng.nextRange(EventCalendar::kSlots,
                                3 * EventCalendar::kSlots)
                : rng.nextRange(1, 40);
            const auto kind = static_cast<WakeKind>(rng.nextBelow(4));
            cal.schedule(now + delay, kind, next_index);
            ref.schedule(now + delay, kind, next_index);
            ++next_index;
        }
        now += rng.nextRange(1, rng.nextBool(0.05) ? 700 : 30);
        auto got = popWheel(cal, now);
        auto want = ref.popDue(now);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "pop at cycle " << now;
        ASSERT_EQ(cal.size(), ref.size());
        ASSERT_EQ(cal.nextEventCycle(), ref.nextEventCycle())
            << "next-event disagreement at cycle " << now;
    }
}

TEST(Calendar, WheelWraparoundAndOverflow)
{
    // A wait longer than the wheel window spills to the overflow
    // list, stays visible through nextEventCycle(), survives any
    // number of window advances, and is delivered exactly on time.
    EventCalendar cal;
    cal.schedule(600, WakeKind::Core, 7);   // past the 512-slot window
    cal.schedule(1500, WakeKind::Dir, 3);   // two windows out
    EXPECT_EQ(cal.nextEventCycle(), 600u);

    EXPECT_TRUE(popWheel(cal, 599).empty());
    EXPECT_EQ(cal.nextEventCycle(), 600u);
    EXPECT_EQ(popWheel(cal, 600),
              (std::vector<Wake>{{static_cast<int>(WakeKind::Core), 7}}));

    // The second entry is still beyond the (advanced) window; walk
    // the base across several wraparounds before it comes due.
    EXPECT_EQ(cal.nextEventCycle(), 1500u);
    for (Cycle c = 700; c < 1500; c += 100)
        EXPECT_TRUE(popWheel(cal, c).empty()) << "early pop at " << c;
    EXPECT_EQ(popWheel(cal, 1500),
              (std::vector<Wake>{{static_cast<int>(WakeKind::Dir), 3}}));
    EXPECT_TRUE(cal.empty());
    EXPECT_EQ(cal.nextEventCycle(), kNoCycle);

    // Entries on both sides of the window edge after the advance:
    // slot indices wrap modulo kSlots, delivery cycles must not.
    cal.schedule(1501 + EventCalendar::kSlots - 1, WakeKind::L1, 1);
    cal.schedule(1501 + EventCalendar::kSlots, WakeKind::Mem, 2);
    EXPECT_EQ(cal.nextEventCycle(), 1500u + EventCalendar::kSlots);
    EXPECT_EQ(popWheel(cal, 1500 + EventCalendar::kSlots),
              (std::vector<Wake>{{static_cast<int>(WakeKind::L1), 1}}));
    EXPECT_EQ(popWheel(cal, 1501 + EventCalendar::kSlots),
              (std::vector<Wake>{{static_cast<int>(WakeKind::Mem), 2}}));
}

sim::SweepJob
idlePoint(std::uint64_t seed)
{
    // The idle-heavy profile maximizes calendar skipping (mean
    // compute gap ~200 cycles), so epochs jump far and message
    // deliveries land right on epoch boundaries.
    sim::SweepJob job;
    job.config = sim::SystemConfig::paperConfig(16, sim::NetKind::Fsoi);
    job.config.seed = seed;
    job.app = workload::idleHeavyProfile();
    job.scale = 0.01;
    return job;
}

TEST(Scheduler, SnapshotRoundTripWithPendingCalendar)
{
    // The calendar is rebuilt from component state on restore, never
    // serialized. Checkpoint mid-run — cores parked in long compute
    // bursts, so the calendar holds pending wakes — and the resumed
    // run must still match the uninterrupted one.
    const auto job = idlePoint(11);
    const auto full = sim::SweepRunner::runJob(job, false).result;
    ASSERT_TRUE(full.completed);
    auto save_job = job;
    save_job.config.max_cycles = 1500;
    sim::System saver(save_job.config);
    saver.loadApp(save_job.app.scaled(save_job.scale));
    ASSERT_FALSE(saver.run().completed)
        << "checkpoint cycle must fall inside the run";
    const std::string path = testing::TempDir() + "fsoi_sched.ckpt";
    saver.saveCheckpoint(path);
    sim::System sys(job.config);
    sys.loadApp(job.app.scaled(job.scale));
    sys.restoreCheckpoint(path);
    testsupport::expectSameResult(full, sys.run());
    std::filesystem::remove(path);
}

} // namespace
} // namespace fsoi
