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

const char *msgTypeName(MsgType type);

/** True for message types that travel as data packets. */
inline bool
isDataMessage(MsgType type)
{
    switch (type) {
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::InvAckData:
      case MsgType::DwgAckData:
      case MsgType::WriteBack:
      case MsgType::MemWrite:
      case MsgType::MemReply:
        return true;
      default:
        return false;
    }
}

/** Packet kind used for the Figure 10 collision classification. */
noc::PacketKind packetKindOf(MsgType type);

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
