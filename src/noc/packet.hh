/**
 * @file
 * Network packet definition shared by all interconnect implementations.
 *
 * The system uses two packet lengths (Section 4.3.1): 72-bit meta packets
 * (requests, acknowledgments, control) and 360-bit data packets (cache
 * lines, memory transfers). Each packet carries timestamps so the
 * latency breakdown of Figure 6(a) -- queuing, scheduling, network,
 * collision resolution -- can be reconstructed at delivery.
 */

#ifndef FSOI_NOC_PACKET_HH
#define FSOI_NOC_PACKET_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/types.hh"

namespace fsoi::noc {

/** Lane / length class of a packet. */
enum class PacketClass : std::uint8_t
{
    Meta, //!< 72-bit control packet (1 mesh flit / 2-cycle FSOI slot)
    Data, //!< 360-bit data packet (5 mesh flits / 5-cycle FSOI slot)
};

/** Semantic kind, used for the Figure 10 collision breakdown. */
enum class PacketKind : std::uint8_t
{
    Request,    //!< coherence request (meta)
    Reply,      //!< data reply to an earlier request
    WriteBack,  //!< evicted dirty line to the directory
    MemRequest, //!< directory -> memory controller fetch
    MemReply,   //!< memory controller -> directory fill
    Ack,        //!< invalidation/exclusive acknowledgment (meta)
    Control,    //!< everything else (NACKs, updates, barrier tokens)
};

/** Returns a short printable name for a packet kind. */
const char *packetKindName(PacketKind kind);

/** Number of payload bits for a class (paper defaults). */
inline std::uint32_t
packetBits(PacketClass cls)
{
    return cls == PacketClass::Meta ? 72u : 360u;
}

/** A message in flight between two network endpoints. */
struct Packet
{
    std::uint64_t id = 0;        //!< unique per network instance
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    PacketClass cls = PacketClass::Meta;
    PacketKind kind = PacketKind::Control;

    /**
     * Opaque payload bytes (the network never inspects them). The
     * payload is stored inline so a Packet is trivially copyable:
     * no allocation, no shared_ptr refcount traffic, and flit/slot
     * state can hold packets in flat index-addressed pools. Only
     * trivially-copyable protocol structs (coherence::Message) ride
     * here; setPayload/payloadAs round-trip them via memcpy.
     */
    static constexpr std::size_t kMaxPayloadBytes = 56;
    alignas(8) std::byte payload[kMaxPayloadBytes];

    // --- Timestamps filled in by the network ---
    Cycle created = kNoCycle;     //!< handed to Network::send()
    Cycle first_tx = kNoCycle;    //!< first transmission attempt started
    Cycle final_tx = kNoCycle;    //!< successful transmission started
    Cycle delivered = kNoCycle;   //!< handler invoked at the destination

    Cycle sched_delay = 0;        //!< intentional (request-spacing) delay
    int retries = 0;              //!< collided transmissions before success

    /**
     * Checkpoint hook (snapshot/serialize.hh). Field by field, never a
     * raw struct copy: padding bytes are indeterminate and would make
     * the per-section snapshot hashes nondeterministic. The inline
     * payload is written in full -- makePacket() zero-initializes the
     * unused tail.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(id, src, dst, cls, kind, payload, created, first_tx, final_tx,
           delivered, sched_delay, retries);
    }

    /** Total latency from send() to delivery. */
    Cycle
    totalLatency() const
    {
        return delivered - created;
    }

    /** Time spent waiting in the source queue (excl. scheduling). */
    Cycle
    queuingLatency() const
    {
        return first_tx - created - sched_delay;
    }

    /** Extra time caused by collisions and retransmissions. */
    Cycle
    collisionLatency() const
    {
        return final_tx - first_tx;
    }

    /** Serialization + flight time of the successful transmission. */
    Cycle
    networkLatency() const
    {
        return delivered - final_tx;
    }

    /** Store a trivially-copyable payload struct inline. */
    template <typename T>
    void
    setPayload(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= kMaxPayloadBytes);
        std::memcpy(payload, &value, sizeof(T));
    }

    /** Convenience for payload retrieval. */
    template <typename T>
    T
    payloadAs() const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        static_assert(sizeof(T) <= kMaxPayloadBytes);
        T out;
        std::memcpy(&out, payload, sizeof(T));
        return out;
    }
};

static_assert(std::is_trivially_copyable_v<Packet>);

/** Build a packet (id/timestamps are assigned by the network).
 *  Value-initialized so the unused payload tail is zero: snapshots
 *  serialize the whole inline payload, and indeterminate bytes would
 *  make snapshot hashes nondeterministic. */
inline Packet
makePacket(NodeId src, NodeId dst, PacketClass cls, PacketKind kind)
{
    Packet pkt{};
    pkt.src = src;
    pkt.dst = dst;
    pkt.cls = cls;
    pkt.kind = kind;
    return pkt;
}

/** Build a packet carrying an inline payload struct. */
template <typename T>
inline Packet
makePacket(NodeId src, NodeId dst, PacketClass cls, PacketKind kind,
           const T &payload)
{
    Packet pkt = makePacket(src, dst, cls, kind);
    pkt.setPayload(payload);
    return pkt;
}

} // namespace fsoi::noc

#endif // FSOI_NOC_PACKET_HH
