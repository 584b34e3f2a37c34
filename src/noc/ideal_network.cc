#include "noc/ideal_network.hh"

#include "common/logging.hh"
#include "noc/packet_io.hh"
#include "snapshot/state_io.hh"

namespace fsoi::noc {

IdealConfig
makeL0Config()
{
    return IdealConfig{};
}

IdealConfig
makeLr1Config()
{
    IdealConfig cfg;
    cfg.router_cycles = 1;
    cfg.link_cycles = 1;
    return cfg;
}

IdealConfig
makeLr2Config()
{
    IdealConfig cfg;
    cfg.router_cycles = 2;
    cfg.link_cycles = 1;
    return cfg;
}

IdealNetwork::IdealNetwork(const MeshLayout &layout,
                           const IdealConfig &config)
    : Network(layout.numEndpoints()), layout_(layout), config_(config),
      lanes_(static_cast<std::size_t>(layout.numEndpoints()) * 2)
{
    FSOI_ASSERT(config_.meta_serialization >= 1);
    FSOI_ASSERT(config_.data_serialization >= 1);
    FSOI_ASSERT(config_.queue_capacity >= 1);
}

IdealNetwork::Lane &
IdealNetwork::lane(NodeId src, PacketClass cls)
{
    return lanes_[static_cast<std::size_t>(src) * 2
                  + static_cast<int>(cls)];
}

const IdealNetwork::Lane &
IdealNetwork::lane(NodeId src, PacketClass cls) const
{
    return lanes_[static_cast<std::size_t>(src) * 2
                  + static_cast<int>(cls)];
}

bool
IdealNetwork::canAccept(NodeId src, PacketClass cls) const
{
    return lane(src, cls).queue.size()
        < static_cast<std::size_t>(config_.queue_capacity);
}

bool
IdealNetwork::send(Packet &&pkt)
{
    if (!canAccept(pkt.src, pkt.cls))
        return false;
    stampOnSend(pkt);
    lane(pkt.src, pkt.cls).queue.push_back(std::move(pkt));
    ++queuedPackets_;
    return true;
}

void
IdealNetwork::tick(Cycle now)
{
    setNow(now);

    // Nothing queued and nothing flying: the lane scan cannot start or
    // deliver anything, so skip it.
    if (queuedPackets_ == 0 && inflight_.empty())
        return;

    // Deliver what is due.
    while (!inflight_.empty() && inflight_.top().due <= now) {
        Packet pkt = std::move(const_cast<InFlight &>(inflight_.top()).pkt);
        inflight_.pop();
        deliver(pkt);
    }

    // Start serialization on every free lane.
    for (NodeId src = 0;
         src < static_cast<NodeId>(layout_.numEndpoints()); ++src) {
        for (PacketClass cls : {PacketClass::Meta, PacketClass::Data}) {
            Lane &ln = lane(src, cls);
            if (ln.queue.empty() || ln.free_at > now)
                continue;
            Packet pkt = std::move(ln.queue.front());
            ln.queue.pop_front();
            --queuedPackets_;
            const int ser = cls == PacketClass::Meta
                ? config_.meta_serialization
                : config_.data_serialization;
            pkt.first_tx = now;
            pkt.final_tx = now;
            stats().recordAttempt(cls);
            ln.free_at = now + ser;
            Cycle flight = 0;
            if (config_.router_cycles > 0 || config_.link_cycles > 0) {
                const int routers =
                    layout_.routersTraversed(pkt.src, pkt.dst);
                const int links = layout_.hopDistance(pkt.src, pkt.dst);
                flight = static_cast<Cycle>(routers)
                    * config_.router_cycles
                    + static_cast<Cycle>(links) * config_.link_cycles;
            }
            inflight_.push(InFlight{now + ser + flight, seq_++,
                                    std::move(pkt)});
        }
    }
}

void
IdealNetwork::saveState(snapshot::Writer &w) const
{
    Network::saveState(w);
    w.u64(lanes_.size());
    for (const Lane &ln : lanes_) {
        w.u64(ln.queue.size());
        for (const Packet &pkt : ln.queue)
            savePacket(w, pkt);
        w.u64(ln.free_at);
    }
    // Drain a copy of the heap in (due, seq) order. The rebuilt heap's
    // internal array may differ, but pops follow the same total order
    // (seq is unique), so behaviour after restore is identical.
    auto heap = inflight_;
    w.u64(heap.size());
    while (!heap.empty()) {
        const InFlight &top = heap.top();
        w.u64(top.due);
        w.u64(top.seq);
        savePacket(w, top.pkt);
        heap.pop();
    }
    w.u64(seq_);
    w.u64(queuedPackets_);
}

void
IdealNetwork::loadState(snapshot::Reader &r)
{
    Network::loadState(r);
    const std::uint64_t num_lanes = r.u64();
    FSOI_ASSERT(num_lanes == lanes_.size(),
                "ideal network endpoint count mismatch on restore");
    for (Lane &ln : lanes_) {
        ln.queue.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i)
            ln.queue.push_back(loadPacket(r));
        ln.free_at = r.u64();
    }
    inflight_ = {};
    const std::uint64_t num_inflight = r.u64();
    for (std::uint64_t i = 0; i < num_inflight; ++i) {
        InFlight f;
        f.due = r.u64();
        f.seq = r.u64();
        f.pkt = loadPacket(r);
        inflight_.push(std::move(f));
    }
    seq_ = r.u64();
    queuedPackets_ = r.u64();
}

bool
IdealNetwork::idle() const
{
    if (!inflight_.empty())
        return false;
    for (const auto &ln : lanes_)
        if (!ln.queue.empty())
            return false;
    return true;
}

} // namespace fsoi::noc
