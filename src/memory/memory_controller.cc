#include "memory/memory_controller.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/trace.hh"
#include "snapshot/serialize.hh"

namespace fsoi::memory {

using coherence::Message;
using coherence::MsgType;

MemoryController::MemoryController(NodeId node, const MemConfig &config,
                                   coherence::Transport &transport)
    : node_(node), config_(config), transport_(transport)
{
    FSOI_ASSERT(config_.bytes_per_cycle > 0.0);
    FSOI_ASSERT(config_.latency >= 1);
}

void
MemoryController::registerStats(const obs::Scope &scope) const
{
    scope.counter("reads", stats_.reads);
    scope.counter("writes", stats_.writes);
    scope.counter("busy_cycles", stats_.busy_cycles);
    scope.accumulator("queue_delay", stats_.queue_delay);
}

Cycle
MemoryController::serviceCycles() const
{
    return static_cast<Cycle>(
        std::ceil(config_.line_bytes / config_.bytes_per_cycle));
}

void
MemoryController::handleMessage(const Message &msg)
{
    const Cycle start = std::max(now_, busyUntil_);
    stats_.queue_delay.add(static_cast<double>(start - now_));
    busyUntil_ = start + serviceCycles();
    stats_.busy_cycles += serviceCycles();

    switch (msg.type) {
      case MsgType::MemRead: {
        stats_.reads++;
        FSOI_TRACE_POINT(TraceCat::Mem, 2, "read", now_, node_,
                         {"line", msg.line}, {"from", msg.requester},
                         {"queued", start - now_});
        Message reply{};
        reply.type = MsgType::MemReply;
        reply.line = msg.line;
        reply.requester = node_;
        replies_.push_back(Reply{
            busyUntil_ + static_cast<Cycle>(config_.latency),
            msg.requester, reply});
        return;
      }
      case MsgType::MemWrite:
        stats_.writes++; // posted: no response
        FSOI_TRACE_POINT(TraceCat::Mem, 2, "write", now_, node_,
                         {"line", msg.line}, {"from", msg.requester},
                         {"queued", start - now_});
        return;
      default:
        panic("memory controller %u: unexpected message %s", node_,
              msgTypeName(msg.type));
    }
}

void
MemoryController::tick(Cycle now)
{
    now_ = now;
    drainDue(replies_, now, [this](const Reply &reply) {
        return transport_.trySend(node_, reply.dst, reply.msg);
    });
}

void
MemoryController::serialize(snapshot::Archive &ar)
{
    ar(busyUntil_, now_);
    ar.seq(replies_, [&](Reply &reply) {
        ar(reply.due, reply.dst, reply.msg);
    });
    ar(stats_.reads, stats_.writes, stats_.busy_cycles, stats_.queue_delay);
}

} // namespace fsoi::memory
