#include "noc/network.hh"

#include "common/logging.hh"
#include "snapshot/serialize.hh"

namespace fsoi::noc {

const char *
packetKindName(PacketKind kind)
{
    switch (kind) {
      case PacketKind::Request: return "Request";
      case PacketKind::Reply: return "Reply";
      case PacketKind::WriteBack: return "WriteBack";
      case PacketKind::MemRequest: return "MemRequest";
      case PacketKind::MemReply: return "MemReply";
      case PacketKind::Ack: return "Ack";
      case PacketKind::Control: return "Control";
    }
    return "?";
}

void
NetworkStats::recordDelivery(const Packet &pkt)
{
    deliveredCount_[index(pkt.cls)]++;
    const double total = static_cast<double>(pkt.totalLatency());
    total_.add(total);
    queuing_.add(static_cast<double>(pkt.queuingLatency()));
    scheduling_.add(static_cast<double>(pkt.sched_delay));
    network_.add(static_cast<double>(pkt.networkLatency()));
    collision_.add(static_cast<double>(pkt.collisionLatency()));
    perClass_[index(pkt.cls)].add(total);
    latencyHistAll_.add(total);
    latencyHist_[index(pkt.cls)].add(total);
}

void
NetworkStats::registerStats(const obs::Scope &scope) const
{
    const obs::Scope delivered = scope.scope("delivered");
    delivered.counter("meta", deliveredCount_[index(PacketClass::Meta)]);
    delivered.counter("data", deliveredCount_[index(PacketClass::Data)]);
    delivered.derived("total", [this] {
        return static_cast<double>(deliveredTotal());
    });

    const obs::Scope collisions = scope.scope("collisions");
    collisions.counter("meta", collisions_[index(PacketClass::Meta)]);
    collisions.counter("data", collisions_[index(PacketClass::Data)]);
    const obs::Scope by_kind = collisions.scope("by_kind");
    for (int k = 0; k <= static_cast<int>(PacketKind::Control); ++k) {
        by_kind.counter(packetKindName(static_cast<PacketKind>(k)),
                        collisionsByKind_[k]);
    }

    const obs::Scope attempts = scope.scope("attempts");
    attempts.counter("meta", attempts_[index(PacketClass::Meta)]);
    attempts.counter("data", attempts_[index(PacketClass::Data)]);

    const obs::Scope rate = scope.scope("collision_rate");
    rate.derived("meta",
                 [this] { return collisionRate(PacketClass::Meta); });
    rate.derived("data",
                 [this] { return collisionRate(PacketClass::Data); });

    const obs::Scope latency = scope.scope("latency");
    latency.accumulator("total", total_);
    latency.accumulator("queuing", queuing_);
    latency.accumulator("scheduling", scheduling_);
    latency.accumulator("network", network_);
    latency.accumulator("collision_resolution", collision_);
    latency.accumulator("meta", perClass_[index(PacketClass::Meta)]);
    latency.accumulator("data", perClass_[index(PacketClass::Data)]);
    latency.histogram("hist", latencyHistAll_);
    latency.histogram("hist_meta", latencyHist_[index(PacketClass::Meta)]);
    latency.histogram("hist_data", latencyHist_[index(PacketClass::Data)]);
    latency.derived("p50", [this] { return latencyPercentile(0.50); });
    latency.derived("p99", [this] { return latencyPercentile(0.99); });
    latency.derived("p999", [this] { return latencyPercentile(0.999); });
}

void
NetworkStats::serialize(snapshot::Archive &ar)
{
    ar(deliveredCount_, collisions_, attempts_, collisionsByKind_, total_,
       queuing_, scheduling_, network_, collision_, perClass_,
       latencyHistAll_, latencyHist_);
}

void
RetxStats::serialize(snapshot::Archive &ar)
{
    ar(packets_, crcDrops_, deadChannelLosses_);
}

void
Network::serializeBase(snapshot::Archive &ar)
{
    ar(now_, nextId_, stats_, retx_);
}

Network::Network(int num_endpoints)
    : numEndpoints_(num_endpoints),
      handlers_(static_cast<std::size_t>(num_endpoints))
{
    FSOI_ASSERT(num_endpoints > 1);
}

void
Network::setHandler(NodeId node, Handler handler)
{
    FSOI_ASSERT(node < handlers_.size());
    handlers_[node] = std::move(handler);
}

void
Network::stampOnSend(Packet &pkt)
{
    FSOI_ASSERT(pkt.src < handlers_.size() && pkt.dst < handlers_.size());
    FSOI_ASSERT(pkt.src != pkt.dst, "self-send from node %u", pkt.src);
    pkt.id = nextId_++;
    pkt.created = now_;
}

void
Network::deliver(Packet &pkt)
{
    pkt.delivered = now_;
    FSOI_ASSERT(pkt.first_tx != kNoCycle && pkt.final_tx != kNoCycle,
                "packet %llu delivered without transmission timestamps",
                static_cast<unsigned long long>(pkt.id));
    stats_.recordDelivery(pkt);
    auto &handler = handlers_[pkt.dst];
    FSOI_ASSERT(handler != nullptr, "no handler at node %u", pkt.dst);
    handler(pkt);
}

} // namespace fsoi::noc
