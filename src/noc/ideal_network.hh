/**
 * @file
 * Idealized interconnects used as comparison points (Section 7.1):
 *
 *  - L0  : zero transmission latency; a packet only pays serialization
 *          (1 cycle meta / 5 cycles data) and source queuing.
 *  - Lr1 : additionally 1 cycle per router + 1 cycle per link along the
 *          mesh path, with no contention anywhere.
 *  - Lr2 : as Lr1 with 2 cycles per router.
 */

#ifndef FSOI_NOC_IDEAL_NETWORK_HH
#define FSOI_NOC_IDEAL_NETWORK_HH

#include <deque>
#include <queue>
#include <vector>

#include "noc/network.hh"
#include "noc/topology.hh"

namespace fsoi::noc {

/** Configuration of an ideal network. */
struct IdealConfig
{
    /** Cycles of router processing charged per router traversed. */
    int router_cycles = 0; // 0 => L0, 1 => Lr1, 2 => Lr2
    /** Cycles per link traversed (0 for L0). */
    int link_cycles = 0;
    int meta_serialization = 1; //!< cycles to serialize a meta packet
    int data_serialization = 5; //!< cycles to serialize a data packet
    int queue_capacity = 8;     //!< per-source per-class packet queue
};

/** Convenience constructors for the three paper configurations. */
IdealConfig makeL0Config();
IdealConfig makeLr1Config();
IdealConfig makeLr2Config();

/** Contention-free interconnect with per-source serialization. */
class IdealNetwork : public Network
{
  public:
    IdealNetwork(const MeshLayout &layout, const IdealConfig &config);

    bool send(Packet &&pkt) override;
    bool canAccept(NodeId src, PacketClass cls) const override;
    void tick(Cycle now) override;
    bool idle() const override;

    /** Event-calendar contract: drained means nothing until a send. */
    Cycle
    nextEventCycle(Cycle now) const override
    {
        return queuedPackets_ == 0 && inflight_.empty() ? kNoCycle
                                                        : now + 1;
    }

    void serialize(snapshot::Sections &snap,
                   const std::string &prefix) override;

  private:
    struct Lane
    {
        std::deque<Packet> queue;
        Cycle free_at = 0;
    };

    struct InFlight
    {
        Cycle due;
        std::uint64_t seq; // tie-break for deterministic ordering
        Packet pkt;
        bool operator>(const InFlight &o) const
        {
            return due != o.due ? due > o.due : seq > o.seq;
        }
    };

    Lane &lane(NodeId src, PacketClass cls);
    const Lane &lane(NodeId src, PacketClass cls) const;

    MeshLayout layout_;
    IdealConfig config_;
    std::vector<Lane> lanes_; // [endpoint][class]
    std::priority_queue<InFlight, std::vector<InFlight>,
                        std::greater<InFlight>> inflight_;
    std::uint64_t seq_ = 0;
    std::uint64_t queuedPackets_ = 0; //!< packets waiting in lane queues
};

} // namespace fsoi::noc

#endif // FSOI_NOC_IDEAL_NETWORK_HH
