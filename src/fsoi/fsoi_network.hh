/**
 * @file
 * The paper's free-space optical interconnect (FSOI): a fully
 * distributed, relay-free, collision-based all-to-all network.
 *
 * Every node owns three transmit lanes built from directly-modulated
 * VCSELs running at 12 bits per CPU cycle each (40 Gbps at 3.3 GHz):
 *
 *   - data lane:          6 VCSELs, 360-bit packets, 5-cycle slots
 *   - meta lane:          3 VCSELs,  72-bit packets, 2-cycle slots
 *   - confirmation lane:  1 VCSEL, collision-free by construction
 *
 * Each node owns 2 data and 2 meta receivers; the N-1 potential senders
 * are statically partitioned between them (sender id mod 2). There is no
 * arbitration: two packets arriving at the same receiver in the same
 * slot produce the logical OR of the light pulses, detected through the
 * PID / ~PID header encoding, and both senders retransmit after an
 * exponential backoff (window ceil(W * B^(r-1)) slots, W=2.7, B=1.1).
 * A successfully received packet is confirmed over the confirmation
 * lane exactly confirmation_delay (2) cycles after the slot ends; a
 * missing confirmation tells the sender its packet collided.
 *
 * Optional mechanisms from Section 5:
 *   - request spacing: receivers reserve the predicted data-reply slot
 *     of each outstanding request; conflicting transmissions are
 *     rescheduled ("Scheduling" latency in Figure 6a)
 *   - collision hints: on a data-lane collision the receiver guesses one
 *     colliding sender (94% accuracy) and lets it retransmit in the very
 *     next slot while the rest back off an extra slot
 *   - phase-array mode (64-node): one steerable beam per lane with a
 *     1-cycle setup delay whenever the destination changes
 *   - confirmation bits: a side channel for single-bit payloads
 *     (invalidation-ack substitution, ll/sc subscription updates) that
 *     rides the confirmation lane's reserved mini-slots
 */

#ifndef FSOI_FSOI_NETWORK_HH
#define FSOI_FSOI_NETWORK_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "noc/network.hh"
#include "noc/topology.hh"

namespace fsoi::fault {
class FaultInjector;
} // namespace fsoi::fault

namespace fsoi::fsoi {

using noc::Packet;
using noc::PacketClass;
using noc::PacketKind;

/** FSOI parameters (defaults = Table 3 / Section 4). */
struct FsoiConfig
{
    int data_vcsels = 6;          //!< VCSELs in the data lane
    int meta_vcsels = 3;          //!< VCSELs in the meta lane
    int bits_per_cycle_per_vcsel = 12; //!< 40 Gbps / 3.3 GHz
    int receivers_per_lane = 2;   //!< R, per node per lane class
    int confirmation_delay = 2;   //!< cycles from slot end to confirm
    double backoff_window = 2.7;  //!< W
    double backoff_base = 1.1;    //!< B
    int queue_capacity = 8;       //!< outgoing packets per lane

    bool phase_array = false;     //!< steerable single beam per lane
    int phase_setup_cycles = 1;   //!< re-steer delay on target change

    bool request_spacing = false; //!< reserve predicted reply slots
    int predicted_reply_latency = 26; //!< request -> data-reply estimate
    bool collision_hints = false; //!< receiver-guided retransmission
    double hint_accuracy = 0.94;  //!< P(hint names a real collider)

    /** Figure 11 sensitivity: scales lane bandwidth (slots stretch). */
    double bandwidth_scale = 1.0;

    std::uint64_t seed = 12345;   //!< backoff/hint RNG stream
};

/** Collision-event categories of Figure 10. */
enum class CollisionCategory : std::uint8_t
{
    Memory,         //!< involving memory-controller packets
    Reply,          //!< between data replies
    WriteBack,      //!< involving writebacks
    Retransmission, //!< involving an already-retried packet
    Other,
    kCount,
};

const char *collisionCategoryName(CollisionCategory cat);

/** Event counters feeding the optical energy model. */
struct FsoiActivity
{
    Counter vcsel_slot_cycles; //!< VCSEL-cycles spent lasing
    Counter bits_transmitted;
    Counter confirmations;     //!< confirmation pulses
    Counter control_bits;      //!< side-channel mini-slot bits
    Counter phase_setups;      //!< phase-array re-steer events
};

/** The free-space optical interconnect. */
class FsoiNetwork : public noc::Network
{
  public:
    /** Handler invoked at the *sender* when its packet is confirmed. */
    using ConfirmHandler = std::function<void(const Packet &)>;
    /** Handler for side-channel single-bit messages at the receiver. */
    using ControlBitHandler =
        std::function<void(NodeId src, std::uint64_t tag)>;

    /**
     * @p fault, when non-null, injects the scheduled hardware faults
     * into this datapath: dead VCSEL lanes never transmit, receptions
     * on dead photodetector channels or with CRC-detected bit errors
     * are dropped (the sender sees a missing confirmation, exactly as
     * on a collision, and retransmits with bounded backoff), and
     * blacklisted receiver channels steer traffic to survivors.
     */
    FsoiNetwork(const noc::MeshLayout &layout, const FsoiConfig &config,
                fault::FaultInjector *fault = nullptr);

    bool send(Packet &&pkt) override;
    bool canAccept(NodeId src, PacketClass cls) const override;
    void tick(Cycle now) override;
    bool idle() const override;

    /**
     * Event-calendar contract: packetsInFlight_ counts every queued,
     * retrying and in-slot packet until delivery, so with the event
     * lists empty nothing can move until a send; skipped cycles are
     * folded into slotsElapsed_ (and reservation expiry, which is
     * monotone in now) at the next tick. A busy network only acts on
     * slot boundaries and on confirmation/control-bit due cycles, so
     * the wake is the earliest of those instead of now + 1 — except in
     * phase-array mode, where the beam-steering scan looks at lane
     * heads every cycle. Reservation expiry on skipped cycles is
     * deferred harmlessly: reservation keys are slot-stamped, so a
     * stale past-slot key can never match a future-slot probe.
     */
    Cycle nextEventCycle(Cycle now) const override;

    void registerStats(const obs::Scope &scope) const override;

    void setConfirmHandler(NodeId node, ConfirmHandler handler);
    void setControlBitHandler(NodeId node, ControlBitHandler handler);

    /**
     * Send a single-bit payload over the confirmation lane's reserved
     * mini-slot (Section 5.1): collision-free, delivered
     * confirmation_delay + 1 cycles later. Used for invalidation-ack
     * substitution and ll/sc boolean updates.
     */
    void sendControlBit(NodeId src, NodeId dst, std::uint64_t tag);

    const FsoiConfig &config() const { return config_; }
    const FsoiActivity &activity() const { return activity_; }

    /** Slot length in cycles for a packet class (after bw scaling). */
    int
    slotCycles(PacketClass cls) const
    {
        return slotCyclesCached_[cls == PacketClass::Meta ? 0 : 1];
    }

    /** Per-node per-slot transmission probability observed so far. */
    double transmissionProbability(PacketClass cls) const;

    /** Collision events in the data lane by category (Figure 10). */
    std::uint64_t
    dataCollisionEvents(CollisionCategory cat) const
    {
        return dataCollisionEvents_[static_cast<int>(cat)].value();
    }

    /** Mean cycles from first collided tx to successful tx (data). */
    double meanDataResolutionDelay() const
    { return dataResolution_.mean(); }

    /** Slots node @p node spent transmitting on its @p cls lane. */
    std::uint64_t txSlots(NodeId node, PacketClass cls) const
    { return txSlots_[static_cast<int>(cls)][node].value(); }

    /** Fraction of elapsed cycles node @p node's VCSELs were lasing. */
    double channelUtilization(NodeId node) const;

    /**
     * Write the stuck-lane snapshot the flight recorder embeds in its
     * "context" object: every transmit lane with queued or retrying
     * packets, including the oldest packet's id/destination and when
     * it may next transmit.
     */
    void writeLaneStateJson(std::ostream &os) const;

    /** Checkpoint/restore; the reservation set is rebuilt from its
     *  log on load. */
    void serialize(snapshot::Sections &snap,
                   const std::string &prefix) override;

  private:
    struct QueuedPacket
    {
        Packet pkt;
        Cycle release_at; //!< request-spacing hold (== created if none)
    };

    struct RetryEntry
    {
        Packet pkt;
        Cycle retry_at;
    };

    struct TxLane
    {
        std::deque<QueuedPacket> queue;
        std::vector<RetryEntry> retries;
        NodeId beam_target = kInvalidNode; //!< phase-array steering
        Cycle setup_ready = 0;             //!< re-steer completion time
    };

    struct Transmission
    {
        Packet pkt;
        int rx; //!< receiver index at the destination
    };

    struct ConfirmEvent
    {
        Cycle due;
        bool success;
        bool hinted_winner; //!< retransmit next slot without backoff
        Packet pkt;
    };

    struct ControlBitEvent
    {
        Cycle due;
        NodeId src;
        NodeId dst;
        std::uint64_t tag;
    };

    TxLane &lane(NodeId node, PacketClass cls);
    const TxLane &lane(NodeId node, PacketClass cls) const;

    /** Start transmissions for every lane whose slot begins at @p now. */
    void startSlot(PacketClass cls, Cycle now);

    /** Resolve the slot of class @p cls that ended at @p now. */
    void resolveSlot(PacketClass cls, Cycle now);

    void processConfirmations(Cycle now);
    void processControlBits(Cycle now);

    /** Classify a data-lane collision event for Figure 10. */
    static CollisionCategory classify(
        const std::vector<Transmission *> &colliders);

    /**
     * Request spacing: claim the first free data slot for receiver
     * @p rx of @p node among the eight from @p slot on. Returns how
     * many slots past @p slot it lies, or -1 when all eight are taken.
     */
    int reserveSlot(NodeId node, int rx, std::uint64_t slot);

    int windowSlots(int retry) const;
    int computeSlotCycles(PacketClass cls) const;
    void expireReservations(Cycle now);

    noc::MeshLayout layout_;
    FsoiConfig config_;
    FsoiActivity activity_;
    Rng rng_;
    fault::FaultInjector *fault_; //!< non-owning; null = healthy system

    std::vector<TxLane> lanes_;                 // [endpoint][class]
    std::vector<Transmission> inflight_[2];     // per class, current slot
    std::vector<ConfirmEvent> confirmations_;
    std::vector<ControlBitEvent> controlBits_;
    std::vector<ConfirmHandler> confirmHandlers_;
    std::vector<ControlBitHandler> controlBitHandlers_;

    /** (dst, rx, data-slot index) -> reserved, for request spacing. */
    std::unordered_set<std::uint64_t> reservations_;

    struct ReservationEntry
    {
        std::uint64_t slot;
        std::uint64_t key;
    };
    /** FIFO of reservations for lazy expiry. */
    std::deque<ReservationEntry> reservationLog_;

    Counter slotsElapsed_[2];
    /** Per-class, per-node transmit-slot counts (channel heatmap). */
    std::vector<Counter> txSlots_[2];
    Counter dataCollisionEvents_[
        static_cast<int>(CollisionCategory::kCount)];
    Accumulator dataResolution_;
    std::uint64_t packetsInFlight_ = 0;
    int slotCyclesCached_[2] = {1, 1}; //!< per class, fixed at build
};

} // namespace fsoi::fsoi

#endif // FSOI_FSOI_NETWORK_HH
