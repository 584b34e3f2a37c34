/**
 * @file
 * Off-chip memory controller / DRAM channel model.
 *
 * One controller per channel, attached to the interconnect as a full
 * endpoint (quadrant routers in the 16-node mesh; its own lanes in the
 * FSOI system). Requests are address-interleaved across controllers by
 * the directories. Each request occupies the channel for a
 * bandwidth-determined service time and reads additionally pay the
 * fixed DRAM latency (200 cycles in Table 3). Writes are posted.
 */

#ifndef FSOI_MEMORY_MEMORY_CONTROLLER_HH
#define FSOI_MEMORY_MEMORY_CONTROLLER_HH

#include <vector>

#include "coherence/message.hh"
#include "coherence/transport.hh"
#include "common/due_list.hh"
#include "common/stats.hh"
#include "obs/stat_registry.hh"

namespace fsoi::snapshot { class Archive; }

namespace fsoi::memory {

/** Per-channel configuration. */
struct MemConfig
{
    int latency = 200;           //!< DRAM access latency (cycles)
    double bytes_per_cycle = 0.67; //!< channel bandwidth (8.8 GB/s over
                                  //!< 4 channels at 3.3 GHz)
    int line_bytes = 32;         //!< transfer size
    int queue_capacity = 32;     //!< outstanding requests
};

/** Per-controller statistics. */
struct MemStats
{
    Counter reads;
    Counter writes;
    Counter busy_cycles;
    Accumulator queue_delay;
};

/** One DRAM channel. */
class MemoryController
{
  public:
    MemoryController(NodeId node, const MemConfig &config,
                     coherence::Transport &transport);

    NodeId node() const { return node_; }
    const MemStats &stats() const { return stats_; }

    /** Publish this channel's stats under @p scope (e.g. mem0). */
    void registerStats(const obs::Scope &scope) const;

    /** Handle MemRead / MemWrite from a directory. */
    void handleMessage(const coherence::Message &msg);

    void tick(Cycle now);

    /**
     * True when no reply is in flight. tick() only drains replies_, so
     * the System leaves a quiescent controller unscheduled;
     * handleMessage() refills the list. busyUntil_ needs no ticking —
     * it is only compared against now_ on arrival.
     */
    bool quiescent() const { return replies_.empty(); }

    /** Keep now_ fresh on skipped cycles (what an idle tick() did). */
    void syncClock(Cycle now) { now_ = now; }

    /**
     * Event-calendar contract: earliest reply ready time (clamped to
     * the future), or kNoCycle when no reply is in flight.
     */
    Cycle nextEventCycle(Cycle now) const { return nextDue(replies_, now); }

    /** Checkpoint/restore (snapshot/serialize.hh). */
    void serialize(snapshot::Archive &ar);

  private:
    struct Reply
    {
        Cycle due; //!< sent from this cycle on (service + DRAM latency)
        NodeId dst;
        coherence::Message msg;
    };

    /** Channel service time per line transfer, in cycles. */
    Cycle serviceCycles() const;

    NodeId node_;
    MemConfig config_;
    coherence::Transport &transport_;

    Cycle busyUntil_ = 0;
    Cycle now_ = 0;
    std::vector<Reply> replies_;
    MemStats stats_;
};

} // namespace fsoi::memory

#endif // FSOI_MEMORY_MEMORY_CONTROLLER_HH
