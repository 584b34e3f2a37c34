#include "obs/profiler.hh"

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace fsoi::obs {

const char *
tickPhaseName(TickPhase phase)
{
    switch (phase) {
      case TickPhase::Network: return "network";
      case TickPhase::LocalRoute: return "local_route";
      case TickPhase::Memory: return "memory";
      case TickPhase::Directory: return "directory";
      case TickPhase::L1: return "l1";
      case TickPhase::Core: return "core";
      case TickPhase::Sched: return "sched";
      case TickPhase::kCount: break;
    }
    return "?";
}

PhaseProfiler::PhaseProfiler(Cycle stride)
    : stride_(stride)
{
    FSOI_ASSERT((stride & (stride - 1)) == 0,
                "profile stride must be a power of two (or 0 = off)");
}

std::uint64_t
PhaseProfiler::totalNs() const
{
    std::uint64_t total = 0;
    for (const auto ns : ns_)
        total += ns;
    return total;
}

double
PhaseProfiler::fraction(TickPhase phase) const
{
    const std::uint64_t total = totalNs();
    if (total == 0)
        return 0.0;
    return static_cast<double>(ns_[static_cast<int>(phase)]) /
           static_cast<double>(total);
}

void
PhaseProfiler::registerStats(const Scope &scope) const
{
    const Scope prof = scope.scope("profile");
    for (int i = 0; i < kNumTickPhases; ++i) {
        const auto phase = static_cast<TickPhase>(i);
        const Scope s = prof.scope(tickPhaseName(phase));
        s.derived("ns", [this, i] {
            return static_cast<double>(ns_[i]);
        });
        s.derived("frac", [this, phase] { return fraction(phase); });
    }
    prof.derived("sampled_cycles", [this] {
        return static_cast<double>(sampled_cycles_);
    });
    prof.derived("total_ns", [this] {
        return static_cast<double>(totalNs());
    });
}

} // namespace fsoi::obs
