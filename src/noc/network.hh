/**
 * @file
 * Abstract interconnect interface plus the statistics every
 * implementation records. The coherent-memory system talks to one of:
 *
 *  - fsoi::noc::MeshNetwork   : the conventional packet-switched baseline
 *  - fsoi::noc::IdealNetwork  : the L0 / Lr1 / Lr2 comparison points
 *  - fsoi::fsoi::FsoiNetwork  : the paper's free-space optical design
 */

#ifndef FSOI_NOC_NETWORK_HH
#define FSOI_NOC_NETWORK_HH

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "noc/packet.hh"
#include "obs/stat_registry.hh"

namespace fsoi::snapshot {
class Archive;
class Sections;
} // namespace fsoi::snapshot

namespace fsoi::noc {

/** Per-class latency accumulators and event counters. */
class NetworkStats
{
  public:
    /** Record a delivered packet's latency components. */
    void recordDelivery(const Packet &pkt);

    /** Record an attempted transmission that collided. */
    void
    recordCollision(PacketClass cls, PacketKind kind)
    {
        collisions_[index(cls)]++;
        collisionsByKind_[static_cast<int>(kind)]++;
    }

    /** Record a transmission attempt (for transmission probability). */
    void
    recordAttempt(PacketClass cls)
    {
        attempts_[index(cls)]++;
    }

    std::uint64_t delivered(PacketClass cls) const
    { return deliveredCount_[index(cls)].value(); }
    std::uint64_t deliveredTotal() const
    { return delivered(PacketClass::Meta) + delivered(PacketClass::Data); }
    std::uint64_t collisions(PacketClass cls) const
    { return collisions_[index(cls)].value(); }
    std::uint64_t attempts(PacketClass cls) const
    { return attempts_[index(cls)].value(); }

    /** Fraction of transmission attempts that collided. */
    double
    collisionRate(PacketClass cls) const
    {
        const auto a = attempts(cls);
        return a ? static_cast<double>(collisions(cls)) / a : 0.0;
    }

    const Accumulator &totalLatency() const { return total_; }
    const Accumulator &queuing() const { return queuing_; }
    const Accumulator &scheduling() const { return scheduling_; }
    const Accumulator &network() const { return network_; }
    const Accumulator &collisionResolution() const { return collision_; }
    /** Interpolated end-to-end latency percentile, p in [0, 1]. */
    double latencyPercentile(double p) const
    { return latencyHistAll_.percentile(p); }

    /** Publish every stat under @p scope (delivered.*, latency.*, ...). */
    void registerStats(const obs::Scope &scope) const;

    /** Checkpoint/restore (snapshot/serialize.hh). */
    void serialize(snapshot::Archive &ar);

  private:
    static int index(PacketClass cls) { return static_cast<int>(cls); }

    /**
     * Latency histogram shape: 4-cycle bins over [0, 1024) cover the
     * realistic delivery range of every interconnect here (a mesh hop
     * is a few cycles, FSOI retries add tens); the tail past that sits
     * in the overflow bucket, where percentile() interpolates toward
     * the observed maximum.
     */
    static constexpr double kLatencyBinWidth = 4.0;
    static constexpr std::size_t kLatencyBins = 256;

    Counter deliveredCount_[2];
    Counter collisions_[2];
    Counter attempts_[2];
    Counter collisionsByKind_[8];
    Accumulator total_;
    Accumulator queuing_;
    Accumulator scheduling_;
    Accumulator network_;
    Accumulator collision_;
    Accumulator perClass_[2];
    Histogram latencyHistAll_{kLatencyBinWidth, kLatencyBins};
    Histogram latencyHist_[2]{{kLatencyBinWidth, kLatencyBins},
                              {kLatencyBinWidth, kLatencyBins}};
};

/**
 * Fault-recovery counters shared by every interconnect, published as
 * <net>.retx.*. All zero when no FaultInjector is attached.
 */
class RetxStats
{
  public:
    /** A packet was (re)scheduled for another transmission attempt. */
    void recordRetx() { packets_++; }
    /** A reception was discarded by the CRC check. */
    void recordCrcDrop() { crcDrops_++; }
    /** A transmission was absorbed by dead hardware. */
    void recordDeadChannelLoss() { deadChannelLosses_++; }

    std::uint64_t packets() const { return packets_.value(); }

    /** Publish under @p scope (packets / crc_drops / dead_losses). */
    void
    registerStats(const obs::Scope &scope) const
    {
        scope.counter("packets", packets_);
        scope.counter("crc_drops", crcDrops_);
        scope.counter("dead_losses", deadChannelLosses_);
    }

    /** Checkpoint/restore (snapshot/serialize.hh). */
    void serialize(snapshot::Archive &ar);

  private:
    Counter packets_;
    Counter crcDrops_;
    Counter deadChannelLosses_;
};

/**
 * Abstract interconnect. The owning System calls tick() exactly once per
 * core cycle (before the protocol controllers), and endpoints call send()
 * during their own ticks. Delivery happens via per-endpoint handlers.
 */
class Network
{
  public:
    using Handler = std::function<void(Packet &)>;

    explicit Network(int num_endpoints);
    virtual ~Network() = default;

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    int numEndpoints() const { return numEndpoints_; }
    Cycle now() const { return now_; }

    /** Install the delivery callback for an endpoint. */
    void setHandler(NodeId node, Handler handler);

    /**
     * Queue a packet for transmission. Returns false (and leaves the
     * packet untouched) when the source's outgoing queue is full; the
     * caller must retry later.
     */
    virtual bool send(Packet &&pkt) = 0;

    /** True when the source can currently accept a packet of @p cls. */
    virtual bool canAccept(NodeId src, PacketClass cls) const = 0;

    /** Advance one cycle; delivers due packets through the handlers. */
    virtual void tick(Cycle now) = 0;

    /** True when no packet is buffered or in flight. */
    virtual bool idle() const = 0;

    /**
     * Event-calendar contract: the next cycle this network must be
     * ticked, or kNoCycle when fully drained (a send() re-activates
     * it). Implementations are expected to make idle ticks cheap
     * anyway; the default never sleeps.
     */
    virtual Cycle nextEventCycle(Cycle now) const { return now + 1; }

    NetworkStats &stats() { return stats_; }
    const NetworkStats &stats() const { return stats_; }

    RetxStats &retxStats() { return retx_; }
    const RetxStats &retxStats() const { return retx_; }

    /**
     * Publish this interconnect's stats under @p scope. The base
     * registers the shared NetworkStats; implementations extend it
     * with their own counters (mesh activity, FSOI collisions, ...).
     */
    virtual void
    registerStats(const obs::Scope &scope) const
    {
        stats_.registerStats(scope);
        retx_.registerStats(scope.scope("retx"));
    }

    /**
     * Checkpoint/restore (snapshot/serialize.hh): the network's state
     * as section @p prefix. Implementations open it, describe the base
     * fields through serializeBase(), then append their own;
     * MeshNetwork adds one section per router so corruption is
     * diagnosed as "snapshot.corrupt: mesh.router[12]" instead of one
     * opaque blob. Handlers are wiring, not state: the restoring
     * System re-installs them at construction.
     */
    virtual void serialize(snapshot::Sections &snap,
                           const std::string &prefix) = 0;

  protected:
    /** The clock, the packet id allocator and the shared statistics. */
    void serializeBase(snapshot::Archive &ar);

    /** Timestamp + id bookkeeping every implementation shares. */
    void stampOnSend(Packet &pkt);

    /** Finalize timestamps and invoke the destination handler. */
    void deliver(Packet &pkt);

    void setNow(Cycle now) { now_ = now; }

  private:
    int numEndpoints_;
    Cycle now_ = 0;
    std::uint64_t nextId_ = 1;
    std::vector<Handler> handlers_;
    NetworkStats stats_;
    RetxStats retx_;
};

} // namespace fsoi::noc

#endif // FSOI_NOC_NETWORK_HH
