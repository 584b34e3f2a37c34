/**
 * @file
 * Conventional packet-switched electrical mesh: the paper's baseline.
 *
 * Canonical 4-cycle virtual-channel wormhole routers (buffer write /
 * route compute, VC allocation, switch allocation, switch traversal)
 * with credit-based flow control, XY dimension-order routing, 4 VCs per
 * input port, 12-flit VC buffers and 1-cycle links (Table 3). Routes
 * come from one per-destination BFS next-hop table: XY on a healthy
 * grid, detours around dead links under fault injection.
 *
 * Meta packets occupy 1 flit, data packets 5 flits (72-bit flits). VCs
 * are partitioned between the two classes (2 + 2), which keeps request
 * and reply traffic from head-of-line blocking each other; ejection
 * never blocks (protocol-level overflow is handled by NACKs at the
 * controllers, per the paper's footnote 3).
 *
 * The network also counts the micro-events (buffer accesses, crossbar
 * and link traversals, arbitrations) that the Orion-style energy model
 * converts to energy.
 */

#ifndef FSOI_NOC_MESH_NETWORK_HH
#define FSOI_NOC_MESH_NETWORK_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <vector>

#include "common/pool.hh"
#include "noc/network.hh"
#include "noc/topology.hh"

namespace fsoi::fault {
class FaultInjector;
} // namespace fsoi::fault

namespace fsoi::noc {

/** Mesh parameters (defaults = Table 3). */
struct MeshConfig
{
    int num_vcs = 4;            //!< virtual channels per input port
    int buffer_depth = 12;      //!< flits per VC buffer
    int router_cycles = 4;      //!< router pipeline depth
    int link_cycles = 1;        //!< link traversal
    int meta_flits = 1;         //!< flits per meta packet
    int data_flits = 5;         //!< flits per data packet
    int inject_queue_capacity = 8; //!< packets per source per class
    /**
     * Bandwidth scale factor for the Figure 11 sensitivity study:
     * 1.0 = full bandwidth. Scaling below 1.0 stretches serialization
     * (more flits per packet) to model narrower links.
     */
    double bandwidth_scale = 1.0;
};

/** Micro-event counters consumed by the energy model. */
struct MeshActivity
{
    Counter buffer_writes;
    Counter buffer_reads;
    Counter crossbar_traversals;
    Counter link_traversals;
    Counter arbitrations;
};

/** The full mesh interconnect. */
class MeshNetwork : public Network
{
  public:
    /**
     * @p fault, when non-null, injects the scheduled hardware faults:
     * the BFS next-hop table routes around dead mesh links, packets
     * without any live route are dropped and counted, and CRC-detected
     * corrupted ejections are NACKed back to the source for
     * retransmission.
     */
    MeshNetwork(const MeshLayout &layout, const MeshConfig &config,
                fault::FaultInjector *fault = nullptr);
    ~MeshNetwork() override;

    bool send(Packet &&pkt) override;
    bool canAccept(NodeId src, PacketClass cls) const override;
    void tick(Cycle now) override;
    bool idle() const override;

    /**
     * Event-calendar contract: a drained mesh (retx-queued packets
     * stay counted in packetsInFlight_) only needs ticking again once
     * something sends, and a busy mesh whose every front flit is still
     * in a router pipeline needs no tick until the earliest of those
     * ready_at stamps (or a credit, ejection, or retransmission
     * matures). A tick on any earlier cycle is a no-op apart from the
     * scan_phase rotation, which the idleTicks_ replay reproduces
     * exactly for skipped cycles, so reporting the true next event is
     * behaviour-preserving. Injection streams one flit per endpoint
     * per cycle, so any flagged injector pins the wake to now + 1.
     */
    Cycle nextEventCycle(Cycle now) const override;
    void registerStats(const obs::Scope &scope) const override;

    const MeshActivity &activity() const { return activity_; }
    const MeshConfig &config() const { return config_; }
    const MeshLayout &layout() const { return layout_; }

    /** Flits per packet of @p cls after bandwidth scaling. */
    int
    flitsPerPacket(PacketClass cls) const
    {
        return flits_[cls == PacketClass::Meta ? 0 : 1];
    }

    /** Checkpoint/restore: one section for the shared mesh state plus
     *  one per router ("<prefix>.router[i]") for named diagnosis. */
    void serialize(snapshot::Sections &snap,
                   const std::string &prefix) override;

    /**
     * True when a live route exists from @p src to @p dst. Always true
     * without dead links (every router reaches every other).
     */
    bool reachable(NodeId src, NodeId dst) const;

    /** True when every router pair still has a live route. */
    bool fullyConnected() const;

    /**
     * Write the congestion snapshot the flight recorder embeds in its
     * "context" object: one JSON value describing every router holding
     * flits (each occupied input VC with its front flit's packet and
     * route, and its busy output VCs) and every injector with a
     * backlog. Empty run -> compact all-clear object.
     */
    void writeLinkStateJson(std::ostream &os) const;

  private:
    struct Router;
    struct Flit;

    /** Index into pkts_; flits and injectors hold these, not pointers. */
    using PacketHandle = common::SlotPool<Packet>::Handle;
    static constexpr PacketHandle kNullPkt = common::SlotPool<Packet>::kNull;

    struct InjectLane
    {
        std::deque<Packet> queue;
    };

    /** Per-endpoint injection state: streams one flit per cycle. */
    struct Injector
    {
        InjectLane lanes[2];            // per class
        // In-progress packet per class: remaining flits to inject.
        PacketHandle active[2] = {kNullPkt, kNullPkt};
        int remaining[2] = {0, 0};
        int vc[2] = {-1, -1};           // VC chosen for the active packet
        int rr_class = 0;               // alternate between classes

        bool
        quiet() const
        {
            return active[0] == kNullPkt && active[1] == kNullPkt
                && lanes[0].queue.empty() && lanes[1].queue.empty();
        }
    };

    struct PendingDelivery
    {
        Cycle due;
        PacketHandle pkt;
    };

    /** A NACKed packet waiting out its round trip before re-injection. */
    struct RetxEvent
    {
        Cycle due;
        Packet pkt;
    };

    void tickInjection(Cycle now);
    void startPacket(Injector &inj, int cls_idx, NodeId endpoint);
    int localPortOf(NodeId endpoint) const;
    int computeFlitsPerPacket(PacketClass cls) const;

    /** BFS per-destination next-hop table over the live links. */
    void buildRouteTable();

    MeshLayout layout_;
    MeshConfig config_;
    MeshActivity activity_;
    fault::FaultInjector *fault_; //!< non-owning; null = healthy system
    /**
     * The only router: [dst_router * num_routers + router] -> output
     * port (-1 = unreachable). On a healthy grid every entry is the
     * XY port; dead links get BFS detours.
     */
    std::vector<std::int16_t> nextHop_;
    /** Per-router, per-direction link traversal counts (heatmap). */
    std::vector<std::array<Counter, 4>> linkFlits_;
    // In-flight packets, addressed by 32-bit handle from flits, the
    // injectors' active slots, and the pending-delivery list. The pool
    // recycles slots, so steady-state traffic never allocates.
    common::SlotPool<Packet> pkts_;
    // Contiguous by value (legal for the incomplete Router type since
    // all member functions live in the .cc): the tick loop walks every
    // router each executed cycle, so the array layout matters. The
    // vector reserves its final size before the wiring pass and never
    // grows after, keeping the inter-router peer/up pointers stable.
    std::vector<Router> routers_;
    std::vector<Injector> injectors_;       // per endpoint
    /**
     * Bitmap of endpoints whose injector may have work (a queued or
     * in-progress packet). tickInjection() walks set bits instead of
     * every endpoint and clears a bit once the injector drains; send()
     * and retransmission re-set it. Memoization only — never
     * serialized, rebuilt from injector state on snapshot restore.
     */
    std::vector<std::uint64_t> injWake_;
    std::vector<PendingDelivery> pending_;  // tail-ejected packets
    std::vector<RetxEvent> retxQueue_;      // NACKed, awaiting re-inject
    std::uint64_t packetsInFlight_ = 0;
    std::uint64_t pendingCredits_ = 0; //!< unmatured credit events
    std::uint64_t idleTicks_ = 0;      //!< skipped ticks to replay
    int flits_[2] = {1, 5};            //!< cached flits per class
};

} // namespace fsoi::noc

#endif // FSOI_NOC_MESH_NETWORK_HH
