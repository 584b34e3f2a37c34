/**
 * @file
 * Coherence protocol messages exchanged between L1 controllers, the
 * distributed L2/directory slices, and the memory controllers.
 *
 * The protocol is the paper's MESI directory protocol (Table 2): stable
 * L1 states M/E/S/I, stable directory states DM/DS/DV/DI, with the
 * transient states realized as controller bookkeeping. Meta packets
 * carry requests and acknowledgments (72 bits); data packets carry
 * cache lines (360 bits).
 */

#ifndef FSOI_COHERENCE_MESSAGE_HH
#define FSOI_COHERENCE_MESSAGE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/types.hh"
#include "noc/packet.hh"

namespace fsoi::coherence {

/** Every message type of the protocol. */
enum class MsgType : std::uint8_t
{
    // L1 -> directory requests (meta packets).
    ReqSh,      //!< read miss: request shared copy
    ReqEx,      //!< write miss: request exclusive copy
    ReqUpg,     //!< write hit on S: upgrade request
    SyncLl,     //!< load-linked on a synchronization word
    SyncSc,     //!< store-conditional carrying the boolean value

    // Directory -> L1 responses.
    DataS,      //!< shared data (data packet)
    DataE,      //!< exclusive-clean data (data packet)
    DataM,      //!< modifiable data (data packet)
    ExcAck,     //!< upgrade granted without data (meta)
    Nack,       //!< resource conflict: retry later (meta)
    SyncReply,  //!< ll value / sc outcome (meta)

    // Directory -> L1 demands (meta).
    Inv,        //!< invalidate your copy
    Dwg,        //!< downgrade M/E to S

    // L1 -> directory acknowledgments.
    InvAck,     //!< invalidated (meta; clean copy)
    InvAckData, //!< invalidated, modified data enclosed (data)
    DwgAck,     //!< downgraded (meta; clean copy, L2 copy is current)
    DwgAckData, //!< downgraded, modified data enclosed (data)
    WriteBack,  //!< eviction of an M line (data)

    // Directory <-> memory controller.
    MemRead,    //!< fetch a line from DRAM (meta)
    MemWrite,   //!< write a line back to DRAM (data, posted)
    MemReply,   //!< DRAM fill (data)
};

/** The controller a core node hands a message type to on delivery. */
enum class Controller : std::uint8_t
{
    Directory, //!< the node's directory slice
    L1,        //!< the node's L1
    None,      //!< memory-controller traffic (routed by node) or unsent
};

/** What is fixed about one message type: one row of kMsgTypes. */
struct MsgTypeInfo
{
    const char *name;
    noc::PacketClass cls;  //!< meta or data packet
    noc::PacketKind kind;  //!< Figure 10 collision classification
    Controller receiver;   //!< who takes it at a core node
};

/** MemReply is the last enumerator. */
inline constexpr std::size_t kNumMsgTypes =
    static_cast<std::size_t>(MsgType::MemReply) + 1;

/**
 * One row per MsgType, in enumerator order: the one description of
 * each type that naming, packet marshalling, delivery routing and the
 * directory's request-queue limit (kind Request) all read. SyncReply
 * keeps its row and enumerator although nothing sends it: a
 * checkpointed Message stores its type as this number.
 */
inline constexpr MsgTypeInfo kMsgTypes[kNumMsgTypes] = {
    {"ReqSh", noc::PacketClass::Meta, noc::PacketKind::Request,
     Controller::Directory},
    {"ReqEx", noc::PacketClass::Meta, noc::PacketKind::Request,
     Controller::Directory},
    {"ReqUpg", noc::PacketClass::Meta, noc::PacketKind::Request,
     Controller::Directory},
    {"SyncLl", noc::PacketClass::Meta, noc::PacketKind::Request,
     Controller::Directory},
    {"SyncSc", noc::PacketClass::Meta, noc::PacketKind::Request,
     Controller::Directory},
    {"DataS", noc::PacketClass::Data, noc::PacketKind::Reply,
     Controller::L1},
    {"DataE", noc::PacketClass::Data, noc::PacketKind::Reply,
     Controller::L1},
    {"DataM", noc::PacketClass::Data, noc::PacketKind::Reply,
     Controller::L1},
    {"ExcAck", noc::PacketClass::Meta, noc::PacketKind::Ack,
     Controller::L1},
    {"Nack", noc::PacketClass::Meta, noc::PacketKind::Control,
     Controller::L1},
    {"SyncReply", noc::PacketClass::Meta, noc::PacketKind::Control,
     Controller::None},
    {"Inv", noc::PacketClass::Meta, noc::PacketKind::Control,
     Controller::L1},
    {"Dwg", noc::PacketClass::Meta, noc::PacketKind::Control,
     Controller::L1},
    {"InvAck", noc::PacketClass::Meta, noc::PacketKind::Ack,
     Controller::Directory},
    {"InvAckData", noc::PacketClass::Data, noc::PacketKind::WriteBack,
     Controller::Directory},
    {"DwgAck", noc::PacketClass::Meta, noc::PacketKind::Ack,
     Controller::Directory},
    {"DwgAckData", noc::PacketClass::Data, noc::PacketKind::WriteBack,
     Controller::Directory},
    {"WriteBack", noc::PacketClass::Data, noc::PacketKind::WriteBack,
     Controller::Directory},
    {"MemRead", noc::PacketClass::Meta, noc::PacketKind::MemRequest,
     Controller::None},
    {"MemWrite", noc::PacketClass::Data, noc::PacketKind::MemRequest,
     Controller::None},
    {"MemReply", noc::PacketClass::Data, noc::PacketKind::MemReply,
     Controller::Directory},
};

static_assert(
    [] {
        for (const MsgTypeInfo &row : kMsgTypes)
            if (row.name == nullptr)
                return false;
        return true;
    }(),
    "every MsgType has a row in kMsgTypes");

inline const MsgTypeInfo &
msgTypeInfo(MsgType type)
{
    return kMsgTypes[static_cast<std::size_t>(type)];
}

inline const char *
msgTypeName(MsgType type)
{
    return static_cast<std::size_t>(type) < kNumMsgTypes
        ? msgTypeInfo(type).name : "?";
}

/** True for message types that travel as data packets. */
inline bool
isDataMessage(MsgType type)
{
    return msgTypeInfo(type).cls == noc::PacketClass::Data;
}

/** Packet kind used for the Figure 10 collision classification. */
inline noc::PacketKind
packetKindOf(MsgType type)
{
    return msgTypeInfo(type).kind;
}

/** The protocol message carried in a packet payload. */
struct Message
{
    MsgType type;
    Addr line = 0;               //!< line-aligned address
    NodeId requester = kInvalidNode; //!< original requester node
    /** ll/sc: value carried by SyncSc / SyncReply; link version. */
    std::uint64_t value = 0;
    std::uint64_t version = 0;
    bool success = false;        //!< SyncReply: sc outcome
    bool subscribe = false;      //!< SyncLl: subscribe to updates
    /**
     * Inv only: the receiver must acknowledge with an explicit packet
     * even when confirmation-as-ack is enabled, because the directory
     * needs to learn whether the (possibly modified) owner copy is
     * enclosed. Set for owner invalidations (DM.DMD / DM.DID flows).
     */
    bool explicit_ack = false;

    /** Checkpoint hook (snapshot/serialize.hh): every field, so struct
     *  padding never reaches the snapshot hashes. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(type, line, requester, value, version, success, subscribe,
           explicit_ack);
    }
};

/**
 * Padding-canonical copy for packet payloads. Message has internal
 * padding (after type, after requester, and past the bool tail), and
 * those bytes are indeterminate in stack-built messages; memcpy-based
 * marshalling (Packet::setPayload) would leak them into packet
 * payloads and make snapshot bytes differ between otherwise identical
 * runs. Zeroing the destination first and then assigning each field
 * leaves every padding byte zero.
 */
inline Message
canonicalPayload(const Message &m)
{
    Message out;
    std::memset(static_cast<void *>(&out), 0, sizeof(out));
    out.type = m.type;
    out.line = m.line;
    out.requester = m.requester;
    out.value = m.value;
    out.version = m.version;
    out.success = m.success;
    out.subscribe = m.subscribe;
    out.explicit_ack = m.explicit_ack;
    return out;
}

} // namespace fsoi::coherence

#endif // FSOI_COHERENCE_MESSAGE_HH
