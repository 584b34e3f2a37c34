/**
 * @file
 * Self-profiler: attributes host wall time to the simulator's tick
 * phases (network, local routing, memory, directory, L1, core) so a
 * slow run can say *which component* is slow without an external
 * profiler.
 *
 * Timing every cycle would double the cost of the cheap phases, so the
 * profiler samples: every `stride` cycles (a power of two; the check
 * is one mask-and-compare) the loop brackets each phase with a
 * steady_clock read and the elapsed nanoseconds accumulate per phase.
 * With the default stride of 64 the overhead is a few clock reads per
 * 64 cycles — well under a percent — while the per-phase *fractions*
 * converge quickly because the sampled cycles are an unbiased slice of
 * the run.
 *
 * Results are exposed through the StatRegistry under a "host." prefix:
 * host wall time is nondeterministic by nature, so consumers that
 * compare stats across runs (golden diffs) must ignore that subtree —
 * tools/stats_report does so by default.
 */

#ifndef FSOI_OBS_PROFILER_HH
#define FSOI_OBS_PROFILER_HH

#include <chrono>
#include <cstdint>

#include "common/types.hh"

namespace fsoi::obs {

class Scope;

/** The phases of one System::run() loop iteration, in tick order. */
enum class TickPhase : std::uint8_t
{
    Network,    //!< interconnect tick (mesh routers / FSOI slots)
    LocalRoute, //!< same-node message queue drain + routing
    Memory,     //!< memory controller ticks
    Directory,  //!< directory/L2 slice ticks
    L1,         //!< private L1 ticks
    Core,       //!< core ticks
    /**
     * Event-calendar bookkeeping: computing the next epoch, popping
     * due calendar entries and re-arming component wakes. Cycles the
     * calendar skips entirely cost nothing and are attributed nowhere
     * — the sampled cycles remain an unbiased slice of the *executed*
     * cycles, so phase fractions stay meaningful.
     */
    Sched,
    kCount,
};

inline constexpr int kNumTickPhases =
    static_cast<int>(TickPhase::kCount);

const char *tickPhaseName(TickPhase phase);

class PhaseProfiler
{
  public:
    /** @p stride sampling period in cycles; power of two; 0 disables. */
    explicit PhaseProfiler(Cycle stride);

    bool enabled() const { return stride_ != 0; }
    Cycle stride() const { return stride_; }

    /** Is @p now a sampled cycle? One mask-and-compare when enabled. */
    bool
    due(Cycle now) const
    {
        return stride_ != 0 && (now & (stride_ - 1)) == 0;
    }

    /** Open a sampled cycle: stamp the clock before the first phase. */
    void
    beginCycle()
    {
        mark_ = std::chrono::steady_clock::now();
        ++sampled_cycles_;
    }

    /**
     * Close phase @p phase: charge it the time since the previous
     * mark and restamp, so consecutive endPhase() calls partition the
     * cycle with one clock read each.
     */
    void
    endPhase(TickPhase phase)
    {
        const auto now = std::chrono::steady_clock::now();
        ns_[static_cast<int>(phase)] +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - mark_).count();
        mark_ = now;
    }

    std::uint64_t sampledCycles() const { return sampled_cycles_; }
    std::uint64_t ns(TickPhase phase) const
    { return ns_[static_cast<int>(phase)]; }
    std::uint64_t totalNs() const;

    /** Share of sampled wall time spent in @p phase, in [0, 1]. */
    double fraction(TickPhase phase) const;

    /**
     * Register under @p scope (callers pass a "host"-rooted scope):
     * profile.<phase>.ns, profile.<phase>.frac, profile.sampled_cycles
     * and profile.total_ns.
     */
    void registerStats(const Scope &scope) const;

  private:
    Cycle stride_;
    std::uint64_t sampled_cycles_ = 0;
    std::uint64_t ns_[kNumTickPhases] = {};
    std::chrono::steady_clock::time_point mark_{};
};

} // namespace fsoi::obs

#endif // FSOI_OBS_PROFILER_HH
