#include "coherence/directory.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/trace.hh"
#include "obs/flight_recorder.hh"
#include "snapshot/serialize.hh"

namespace fsoi::coherence {

const char *
dirStateName(DirState state)
{
    switch (state) {
      case DirState::DI: return "DI";
      case DirState::DV: return "DV";
      case DirState::DS: return "DS";
      case DirState::DM: return "DM";
    }
    return "?";
}

Directory::Directory(NodeId node, const DirConfig &config,
                     Transport &transport, FunctionalMemory &memory,
                     std::function<NodeId(Addr)> memctl_of)
    : node_(node), config_(config), transport_(transport), memory_(memory),
      memctlOf_(std::move(memctl_of)), array_(config.geometry)
{
    FSOI_ASSERT(config_.ports >= 1 && config_.request_queue >= 1);
}

DirState
Directory::lineState(Addr addr) const
{
    const auto *line = array_.peek(addr);
    return line ? line->meta.state : DirState::DI;
}

std::uint64_t
Directory::sharersOf(Addr addr) const
{
    const auto *line = array_.peek(addr);
    return line ? line->meta.sharers : 0;
}

void
Directory::registerStats(const obs::Scope &scope) const
{
    scope.counter("requests", stats_.requests);
    scope.counter("nacks_sent", stats_.nacks_sent);
    scope.counter("invalidations_sent", stats_.invalidations_sent);
    scope.counter("downgrades_sent", stats_.downgrades_sent);
    scope.counter("mem_reads", stats_.mem_reads);
    scope.counter("mem_writes", stats_.mem_writes);
    scope.counter("l2_evictions", stats_.l2_evictions);
    scope.counter("stale_acks_dropped", stats_.stale_acks_dropped);
    scope.counter("late_writebacks_merged", stats_.late_writebacks_merged);
    scope.counter("sync_updates", stats_.sync_updates);
    scope.counter("l2_accesses", stats_.l2_accesses);
}

std::uint64_t
Directory::packSyncTag(Addr word, std::uint64_t value, bool success,
                       bool direct)
{
    return ((word >> 3) << 18) | ((value & 0xffff) << 2)
        | (success ? 2u : 0u) | (direct ? 1u : 0u);
}

void
Directory::unpackSyncTag(std::uint64_t tag, Addr &word,
                         std::uint64_t &value, bool &success, bool &direct)
{
    direct = tag & 1;
    success = tag & 2;
    value = (tag >> 2) & 0xffff;
    word = (tag >> 18) << 3;
}

const char *
Directory::txnKindName(std::uint8_t kind)
{
    switch (static_cast<Txn::Kind>(kind)) {
      case Txn::Kind::FetchSh: return "FetchSh";
      case Txn::Kind::FetchEx: return "FetchEx";
      case Txn::Kind::InvForEx: return "InvForEx";
      case Txn::Kind::DwgForSh: return "DwgForSh";
      case Txn::Kind::InvForOwn: return "InvForOwn";
      case Txn::Kind::EvictShared: return "EvictShared";
      case Txn::Kind::EvictOwned: return "EvictOwned";
      case Txn::Kind::AwaitWriteBack: return "AwaitWriteBack";
      case Txn::Kind::GrantWait: return "GrantWait";
    }
    return "?";
}

void
Directory::openTxn(Addr line_addr, Txn txn)
{
    if (flightRec_ && flightRec_->enabled()) {
        flightRec_->record(obs::FlightEventKind::DirTxnStart, now_, node_,
                           kInvalidNode, line_addr,
                           static_cast<std::uint8_t>(txn.kind));
    }
    int idx = txns_.find(line_addr);
    if (idx < 0) {
        if (txns_.full())
            txns_.grow();
        idx = txns_.alloc(line_addr);
    }
    txns_.at(idx) = std::move(txn);
}

void
Directory::closeTxn(int idx)
{
    if (flightRec_ && flightRec_->enabled()) {
        flightRec_->record(obs::FlightEventKind::DirTxnEnd, now_, node_,
                           kInvalidNode, txns_.lineAt(idx),
                           static_cast<std::uint8_t>(txns_.at(idx).kind));
    }
    txns_.release(idx);
}

void
Directory::queueSend(NodeId dst, const Message &msg, int latency)
{
    outbox_.push_back(OutMsg{now_ + static_cast<Cycle>(latency), dst, msg});
}

void
Directory::sendNack(const Message &msg)
{
    Message nack{};
    nack.type = MsgType::Nack;
    nack.line = msg.line;
    nack.requester = msg.requester;
    stats_.nacks_sent++;
    queueSend(msg.requester, nack, config_.ctrl_latency);
}

void
Directory::handleMessage(const Message &msg)
{
    // A full request queue NACKs requests; acknowledgments, data and
    // fills are always accepted.
    if (packetKindOf(msg.type) == noc::PacketKind::Request
        && inQueue_.size()
            >= static_cast<std::size_t>(config_.request_queue)) {
        sendNack(msg);
        return;
    }
    if (msg.type == MsgType::InvAck || msg.type == MsgType::InvAckData)
        FSOI_TRACE_POINT(TraceCat::Coherence, 3, "enq_invack", now_,
                         node_, {"line", msg.line},
                         {"queue", inQueue_.size()});
    inQueue_.push_back(msg);
}

void
Directory::dispatch(const Message &msg)
{
    switch (msg.type) {
      case MsgType::ReqSh:
      case MsgType::ReqEx:
      case MsgType::ReqUpg:
        stats_.requests++;
        FSOI_TRACE_POINT(TraceCat::Coherence, 1, "req", now_, node_,
                         {"line", msg.line},
                         {"from", msg.requester},
                         {"type", static_cast<std::uint64_t>(msg.type)});
        if (const int idx = txns_.find(msg.line); idx >= 0) {
            // Table 2 "z": the line is busy; park the request.
            Txn &txn = txns_.at(idx);
            if (txn.pending.size()
                >= static_cast<std::size_t>(config_.pending_per_line)) {
                sendNack(msg);
            } else {
                txn.pending.push_back(msg);
            }
            return;
        }
        processRequest(msg);
        return;
      case MsgType::SyncLl:
      case MsgType::SyncSc:
        handleSync(msg);
        return;
      case MsgType::WriteBack:
        handleWriteBack(msg);
        return;
      case MsgType::InvAck:
        handleInvAck(msg, false);
        return;
      case MsgType::InvAckData:
        handleInvAck(msg, true);
        return;
      case MsgType::DwgAck:
        handleDwgAck(msg, false);
        return;
      case MsgType::DwgAckData:
        handleDwgAck(msg, true);
        return;
      case MsgType::MemReply:
        handleMemReply(msg);
        return;
      default:
        panic("directory %u: unexpected message %s", node_,
              msgTypeName(msg.type));
    }
}

void
Directory::grantAndComplete(Addr line_addr, NodeId dst, MsgType type,
                            std::deque<Message> pending)
{
    Message grant{};
    grant.type = type;
    grant.line = line_addr;
    grant.requester = dst;
    const bool tag_only =
        type == MsgType::ExcAck || type == MsgType::Nack;
    if (!tag_only)
        stats_.l2_accesses++;
    FSOI_TRACE_POINT(TraceCat::Coherence, 1, "grant", now_, node_,
                     {"line", line_addr}, {"to", dst},
                     {"type", static_cast<std::uint64_t>(type)});
    queueSend(dst, grant,
              tag_only ? config_.ctrl_latency : config_.l2_latency);

    if (config_.confirmation_gating && dst != node_) {
        Txn txn{};
        txn.kind = Txn::Kind::GrantWait;
        txn.requester = dst;
        txn.grant_type = type;
        txn.pending = std::move(pending);
        openTxn(line_addr, std::move(txn));
        return;
    }
    drainPending(line_addr, std::move(pending));
}

void
Directory::drainPending(Addr line_addr, std::deque<Message> pending)
{
    while (!pending.empty()) {
        Message msg = std::move(pending.front());
        pending.pop_front();
        processRequest(msg);
        if (const int idx = txns_.find(line_addr); idx >= 0) {
            // The request re-busied the line; re-park the rest.
            Txn &txn = txns_.at(idx);
            for (auto &rest : pending)
                txn.pending.push_back(std::move(rest));
            return;
        }
    }
}

void
Directory::processRequest(const Message &msg)
{
    const Addr line_addr = msg.line;
    const NodeId req = msg.requester;
    Line *ln = array_.find(line_addr);
    const bool wants_write =
        msg.type == MsgType::ReqEx || msg.type == MsgType::ReqUpg;

    if (!ln) {
        // DI: fetch the line from memory.
        Txn txn{};
        txn.kind = wants_write ? Txn::Kind::FetchEx : Txn::Kind::FetchSh;
        txn.requester = req;
        openTxn(line_addr, std::move(txn));
        Message fetch{};
        fetch.type = MsgType::MemRead;
        fetch.line = line_addr;
        fetch.requester = node_;
        stats_.mem_reads++;
        queueSend(memctlOf_(line_addr), fetch, config_.ctrl_latency);
        return;
    }

    switch (ln->meta.state) {
      case DirState::DV:
        ln->meta.state = DirState::DM;
        ln->meta.owner = req;
        ln->meta.sharers = 0;
        grantAndComplete(line_addr, req,
                         wants_write ? MsgType::DataM : MsgType::DataE,
                         {});
        return;

      case DirState::DS: {
        if (!wants_write) {
            ln->meta.sharers |= bit(req);
            grantAndComplete(line_addr, req, MsgType::DataS, {});
            return;
        }
        const bool was_sharer = ln->meta.sharers & bit(req);
        ln->meta.sharers &= ~bit(req);
        // An upgrade from a node that silently dropped its S copy is
        // reinterpreted as a full Req(Ex) (Table 2's "(Req(Ex))").
        const bool upgrade =
            was_sharer && msg.type == MsgType::ReqUpg;
        if (ln->meta.sharers == 0) {
            ln->meta.state = DirState::DM;
            ln->meta.owner = req;
            grantAndComplete(line_addr, req,
                             upgrade ? MsgType::ExcAck : MsgType::DataM,
                             {});
            return;
        }
        Txn txn{};
        txn.kind = Txn::Kind::InvForEx;
        txn.requester = req;
        txn.upgrade = upgrade;
        txn.acks_pending = std::popcount(ln->meta.sharers);
        txn.epoch = ++epochCounter_;
        Message inv{};
        inv.type = MsgType::Inv;
        inv.line = line_addr;
        inv.requester = req;
        inv.version = txn.epoch;
        FSOI_TRACE_POINT(TraceCat::Coherence, 2, "inv_for_ex", now_,
                         node_, {"line", line_addr}, {"req", req},
                         {"sharers", ln->meta.sharers});
        for (NodeId n = 0; n < 64; ++n) {
            if (ln->meta.sharers & bit(n)) {
                stats_.invalidations_sent++;
                // Local delivery bypasses the optical layer, so no
                // confirmation will fire: demand an explicit ack.
                inv.explicit_ack = n == node_;
                queueSend(n, inv, config_.ctrl_latency);
            }
        }
        openTxn(line_addr, std::move(txn));
        return;
      }

      case DirState::DM: {
        const NodeId owner = ln->meta.owner;
        if (owner == req) {
            // The owner lost its copy (silent E eviction, or an M
            // writeback still in flight) and re-requests: serve from
            // the L2 copy; a late writeback merges harmlessly.
            grantAndComplete(line_addr, req,
                             wants_write ? MsgType::DataM : MsgType::DataE,
                             {});
            return;
        }
        Txn txn{};
        txn.requester = req;
        txn.epoch = ++epochCounter_;
        Message demand{};
        demand.line = line_addr;
        demand.requester = req;
        demand.version = txn.epoch;
        if (wants_write) {
            txn.kind = Txn::Kind::InvForOwn;
            demand.type = MsgType::Inv;
            demand.explicit_ack = true;
            stats_.invalidations_sent++;
            FSOI_TRACE_POINT(TraceCat::Coherence, 2, "inv_for_own", now_,
                             node_, {"line", line_addr}, {"owner", owner},
                             {"req", req});
        } else {
            txn.kind = Txn::Kind::DwgForSh;
            demand.type = MsgType::Dwg;
            stats_.downgrades_sent++;
            FSOI_TRACE_POINT(TraceCat::Coherence, 2, "dwg_for_sh", now_,
                             node_, {"line", line_addr}, {"owner", owner},
                             {"req", req});
        }
        queueSend(owner, demand, config_.ctrl_latency);
        openTxn(line_addr, std::move(txn));
        return;
      }

      case DirState::DI:
        panic("directory %u: resident line in DI", node_);
    }
}

void
Directory::evictLine(Line *ln)
{
    stats_.l2_evictions++;
    if (ln->meta.dirty) {
        Message wb{};
        wb.type = MsgType::MemWrite;
        wb.line = ln->tag;
        wb.requester = node_;
        stats_.mem_writes++;
        queueSend(memctlOf_(ln->tag), wb, config_.l2_latency);
    }
    array_.invalidate(ln);
}

Directory::Line *
Directory::makeRoomL2(Addr line_addr)
{
    // Prefer an invalid way, then a DV way (synchronous eviction).
    Line *slot = array_.victimIf(line_addr, [this](const Line &cand) {
        return cand.meta.state == DirState::DV
            && !txns_.contains(cand.tag);
    });
    if (slot) {
        if (slot->valid)
            evictLine(slot);
        return slot;
    }
    // Fall back to tearing down a shared or owned line -- but at most
    // one eviction per set at a time, or retried deferred fills would
    // tear the whole set down.
    bool eviction_in_progress = false;
    array_.forEachInSet(line_addr, [&](const Line &cand) {
        const int tidx = txns_.find(cand.tag);
        if (tidx >= 0
            && (txns_.at(tidx).kind == Txn::Kind::EvictShared
                || txns_.at(tidx).kind == Txn::Kind::EvictOwned)) {
            eviction_in_progress = true;
        }
    });
    if (eviction_in_progress)
        return nullptr;
    slot = array_.victimIf(line_addr, [this](const Line &cand) {
        return !txns_.contains(cand.tag);
    });
    if (!slot)
        return nullptr; // every way busy; caller defers
    FSOI_ASSERT(slot->valid);
    Txn txn{};
    txn.epoch = ++epochCounter_;
    Message demand{};
    demand.line = slot->tag;
    demand.requester = node_;
    demand.version = txn.epoch;
    if (slot->meta.state == DirState::DS) {
        txn.kind = Txn::Kind::EvictShared;
        txn.acks_pending = std::popcount(slot->meta.sharers);
        demand.type = MsgType::Inv;
        for (NodeId n = 0; n < 64; ++n) {
            if (slot->meta.sharers & bit(n)) {
                stats_.invalidations_sent++;
                demand.explicit_ack = n == node_;
                queueSend(n, demand, config_.ctrl_latency);
            }
        }
    } else {
        FSOI_ASSERT(slot->meta.state == DirState::DM);
        txn.kind = Txn::Kind::EvictOwned;
        txn.acks_pending = 1;
        demand.type = MsgType::Inv;
        demand.explicit_ack = true;
        stats_.invalidations_sent++;
        FSOI_TRACE_POINT(TraceCat::Coherence, 2, "evict_owned", now_,
                         node_, {"line", slot->tag},
                         {"owner", slot->meta.owner});
        queueSend(slot->meta.owner, demand, config_.ctrl_latency);
    }
    openTxn(slot->tag, std::move(txn));
    return nullptr;
}

void
Directory::handleWriteBack(const Message &msg)
{
    const Addr line_addr = msg.line;
    Line *ln = array_.find(line_addr);

    if (const int idx = txns_.find(line_addr); idx >= 0) {
        Txn &txn = txns_.at(idx);
        switch (txn.kind) {
          case Txn::Kind::DwgForSh: {
            // The owner evicted instead of downgrading: the requester
            // gets an exclusive-clean copy straight from L2.
            FSOI_ASSERT(ln);
            ln->meta.dirty = true;
            ln->meta.state = DirState::DM;
            ln->meta.owner = txn.requester;
            ln->meta.sharers = 0;
            const NodeId req = txn.requester;
            auto pending = std::move(txn.pending);
            closeTxn(idx);
            grantAndComplete(line_addr, req, MsgType::DataE,
                             std::move(pending));
            return;
          }
          case Txn::Kind::InvForOwn: {
            FSOI_ASSERT(ln);
            ln->meta.dirty = true;
            ln->meta.state = DirState::DM;
            ln->meta.owner = txn.requester;
            ln->meta.sharers = 0;
            const NodeId req = txn.requester;
            auto pending = std::move(txn.pending);
            closeTxn(idx);
            grantAndComplete(line_addr, req, MsgType::DataM,
                             std::move(pending));
            return;
          }
          case Txn::Kind::EvictOwned: {
            FSOI_ASSERT(ln);
            ln->meta.dirty = true;
            auto pending = std::move(txn.pending);
            closeTxn(idx);
            evictLine(ln);
            drainPending(line_addr, std::move(pending));
            return;
          }
          case Txn::Kind::AwaitWriteBack: {
            FSOI_ASSERT(ln);
            ln->meta.dirty = true;
            ln->meta.state = DirState::DV;
            ln->meta.owner = kInvalidNode;
            auto pending = std::move(txn.pending);
            closeTxn(idx);
            drainPending(line_addr, std::move(pending));
            return;
          }
          default:
            // Late writeback racing a newer transaction: merge data.
            if (ln)
                ln->meta.dirty = true;
            stats_.late_writebacks_merged++;
            return;
        }
    }

    if (ln && ln->meta.state == DirState::DM
        && ln->meta.owner == msg.requester) {
        stats_.l2_accesses++;
        ln->meta.dirty = true;
        ln->meta.state = DirState::DV;
        ln->meta.owner = kInvalidNode;
        ln->meta.sharers = 0;
        return;
    }
    // Stale writeback from a previous owner: merge.
    if (ln)
        ln->meta.dirty = true;
    stats_.late_writebacks_merged++;
}

void
Directory::handleInvAck(const Message &msg, bool with_data)
{
    const Addr line_addr = msg.line;
    const int idx = txns_.find(line_addr);
    FSOI_TRACE_POINT(TraceCat::Coherence, 3, "invack", now_, node_,
                     {"line", line_addr}, {"from", msg.requester},
                     {"data", with_data ? 1u : 0u});
    if (idx < 0) {
        FSOI_TRACE_POINT(TraceCat::Coherence, 3, "stale_invack", now_,
                         node_, {"line", line_addr});
        stats_.stale_acks_dropped++;
        return;
    }
    Txn &txn = txns_.at(idx);
    if (msg.version != txn.epoch) {
        stats_.stale_acks_dropped++;
        return;
    }
    Line *ln = array_.find(line_addr);

    switch (txn.kind) {
      case Txn::Kind::InvForEx: {
        FSOI_ASSERT(ln);
        if (with_data)
            ln->meta.dirty = true;
        if (--txn.acks_pending > 0)
            return;
        ln->meta.state = DirState::DM;
        ln->meta.owner = txn.requester;
        ln->meta.sharers = 0;
        const NodeId req = txn.requester;
        const bool upgrade = txn.upgrade;
        auto pending = std::move(txn.pending);
        closeTxn(idx);
        grantAndComplete(line_addr, req,
                         upgrade ? MsgType::ExcAck : MsgType::DataM,
                         std::move(pending));
        return;
      }
      case Txn::Kind::InvForOwn: {
        FSOI_ASSERT(ln);
        if (with_data)
            ln->meta.dirty = true;
        ln->meta.state = DirState::DM;
        ln->meta.owner = txn.requester;
        ln->meta.sharers = 0;
        const NodeId req = txn.requester;
        auto pending = std::move(txn.pending);
        closeTxn(idx);
        grantAndComplete(line_addr, req, MsgType::DataM,
                         std::move(pending));
        return;
      }
      case Txn::Kind::EvictShared:
      case Txn::Kind::EvictOwned: {
        FSOI_ASSERT(ln);
        if (with_data)
            ln->meta.dirty = true;
        if (--txn.acks_pending > 0)
            return;
        auto pending = std::move(txn.pending);
        closeTxn(idx);
        evictLine(ln);
        drainPending(line_addr, std::move(pending));
        return;
      }
      default:
        stats_.stale_acks_dropped++;
        return;
    }
}

void
Directory::handleDwgAck(const Message &msg, bool with_data)
{
    const Addr line_addr = msg.line;
    const int idx = txns_.find(line_addr);
    FSOI_TRACE_POINT(TraceCat::Coherence, 3, "dwgack", now_, node_,
                     {"line", line_addr},
                     {"data", with_data ? 1u : 0u});
    if (idx < 0 || txns_.at(idx).kind != Txn::Kind::DwgForSh) {
        stats_.stale_acks_dropped++;
        return;
    }
    Txn &txn = txns_.at(idx);
    if (msg.version != txn.epoch) {
        stats_.stale_acks_dropped++;
        return;
    }
    Line *ln = array_.find(line_addr);
    FSOI_ASSERT(ln);
    if (with_data)
        ln->meta.dirty = true;
    const NodeId old_owner = ln->meta.owner;
    ln->meta.state = DirState::DS;
    ln->meta.owner = kInvalidNode;
    ln->meta.sharers = bit(old_owner) | bit(txn.requester);
    const NodeId req = txn.requester;
    auto pending = std::move(txn.pending);
    closeTxn(idx);
    grantAndComplete(line_addr, req, MsgType::DataS, std::move(pending));
}

void
Directory::handleMemReply(const Message &msg)
{
    const Addr line_addr = msg.line;
    const int idx = txns_.find(line_addr);
    FSOI_ASSERT(idx >= 0,
                "directory %u: memory reply without transaction", node_);
    Txn &txn = txns_.at(idx);
    const auto kind = txn.kind;
    FSOI_ASSERT(kind == Txn::Kind::FetchSh || kind == Txn::Kind::FetchEx);

    if (!array_.peek(line_addr)) {
        Line *slot = makeRoomL2(line_addr);
        if (!slot) {
            deferredFills_.push_back(msg);
            return;
        }
        DirMeta meta{};
        meta.state = DirState::DM;
        meta.owner = txn.requester;
        meta.dirty = false;
        array_.install(slot, line_addr, meta);
        stats_.l2_accesses++;
    }
    const NodeId req = txn.requester;
    const MsgType grant =
        kind == Txn::Kind::FetchSh ? MsgType::DataE : MsgType::DataM;
    auto pending = std::move(txn.pending);
    closeTxn(idx);
    grantAndComplete(line_addr, req, grant, std::move(pending));
}

void
Directory::notifySubscribers(Addr word, SyncVar &var, NodeId except)
{
    FSOI_ASSERT(controlBitSender_ != nullptr);
    for (NodeId n = 0; n < 64; ++n) {
        if ((var.subscribers & bit(n)) && n != except) {
            stats_.sync_updates++;
            controlBitSender_(n,
                              packSyncTag(word, var.value, true, false));
        }
    }
}

void
Directory::handleSync(const Message &msg)
{
    FSOI_ASSERT(config_.sync_subscription,
                "sync message without subscription support");
    FSOI_ASSERT(controlBitSender_ != nullptr,
                "sync subscription requires the FSOI side channel");
    const Addr word = msg.line;
    auto [it, inserted] = syncVars_.try_emplace(word);
    SyncVar &var = it->second;
    if (inserted)
        var.value = memory_.read(word);

    if (msg.type == MsgType::SyncLl) {
        if (msg.subscribe)
            var.subscribers |= bit(msg.requester);
        syncLinks_[msg.requester] = {word, var.version};
        controlBitSender_(msg.requester,
                          packSyncTag(word, var.value, true, true));
        return;
    }

    // SyncSc: msg.success doubles as the "unconditional" flag.
    const bool unconditional = msg.success;
    bool ok = unconditional;
    if (!unconditional) {
        const auto link = syncLinks_.find(msg.requester);
        ok = link != syncLinks_.end() && link->second.first == word
            && link->second.second == var.version;
    }
    if (ok) {
        var.value = msg.value;
        var.version++;
        memory_.write(word, msg.value);
        notifySubscribers(word, var, msg.requester);
    }
    controlBitSender_(msg.requester,
                      packSyncTag(word, var.value, ok, true));
}

void
Directory::onConfirm(const Message &msg)
{
    const int idx = txns_.find(msg.line);
    if (idx < 0)
        return;
    Txn &txn = txns_.at(idx);

    if (txn.kind == Txn::Kind::GrantWait) {
        if (msg.type == txn.grant_type) {
            auto pending = std::move(txn.pending);
            closeTxn(idx);
            drainPending(msg.line, std::move(pending));
        }
        return;
    }

    if (config_.confirmation_acks && msg.type == MsgType::Inv
        && (txn.kind == Txn::Kind::InvForEx
            || txn.kind == Txn::Kind::EvictShared)) {
        // Section 5.1: the optical confirmation of Inv delivery is the
        // sharer's commitment; no InvAck packet will come.
        Message synthetic{};
        synthetic.type = MsgType::InvAck;
        synthetic.line = msg.line;
        synthetic.requester = msg.requester;
        synthetic.version = msg.version;
        handleInvAck(synthetic, false);
    }
}

void
Directory::tick(Cycle now)
{
    now_ = now;

    // Drain the outbox (entries become visible after their pipeline
    // latency; the transport may refuse when queues are full).
    drainDue(outbox_, now, [this](const OutMsg &out) {
        return transport_.trySend(node_, out.dst, out.msg);
    });

    // Retry deferred fills (ways may have freed).
    if (!deferredFills_.empty()) {
        std::vector<Message> retry;
        retry.swap(deferredFills_);
        for (const auto &msg : retry)
            handleMemReply(msg);
    }

    for (int p = 0; p < config_.ports && !inQueue_.empty(); ++p) {
        Message msg = std::move(inQueue_.front());
        inQueue_.pop_front();
        if (msg.type == MsgType::InvAck || msg.type == MsgType::InvAckData)
            FSOI_TRACE_POINT(TraceCat::Coherence, 3, "deq_invack", now_,
                             node_, {"line", msg.line});
        dispatch(msg);
    }
}

bool
Directory::quiescent() const
{
    return inQueue_.empty() && outbox_.empty() && txns_.empty()
        && deferredFills_.empty();
}

void
Directory::serialize(snapshot::Archive &ar)
{
    ar(array_);
    txns_.serialize(ar, [&](Txn &txn) {
        ar(txn.kind, txn.requester, txn.upgrade, txn.acks_pending,
           txn.epoch, txn.grant_type);
        ar.seq(txn.pending);
    });
    ar(epochCounter_);

    ar.seq(inQueue_);
    ar.seq(outbox_, [&](OutMsg &out) { ar(out.due, out.dst, out.msg); });
    ar.seq(deferredFills_);
    ar.sortedMap(syncVars_, [&](SyncVar &var) {
        ar(var.value, var.version, var.subscribers);
    });
    ar.sortedMap(syncLinks_, [&](std::pair<Addr, std::uint64_t> &link) {
        ar(link.first, link.second);
    });

    ar(now_, stats_.requests, stats_.nacks_sent, stats_.invalidations_sent,
       stats_.downgrades_sent, stats_.mem_reads, stats_.mem_writes,
       stats_.l2_evictions, stats_.stale_acks_dropped,
       stats_.late_writebacks_merged, stats_.sync_updates,
       stats_.l2_accesses);
}

void
Directory::writeJson(std::ostream &os) const
{
    os << "{\"node\":" << node_ << ",\"in_queue\":" << inQueue_.size()
       << ",\"outbox\":" << outbox_.size() << ",\"deferred_fills\":"
       << deferredFills_.size() << ",\"txns\":[";
    const char *sep = "";
    txns_.forEach([&](Addr line, const Txn &txn) {
        os << sep << "{\"kind\":\"dir_txn\",\"node\":" << node_
           << ",\"line\":" << line << ",\"txn\":\""
           << txnKindName(static_cast<std::uint8_t>(txn.kind)) << "\"";
        if (txn.requester != kInvalidNode)
            os << ",\"requester\":" << txn.requester;
        os << ",\"acks_pending\":" << txn.acks_pending << ",\"queued\":"
           << txn.pending.size() << ",\"state\":\""
           << dirStateName(lineState(line)) << "\"}";
        sep = ",";
    });
    os << "]}";
}

} // namespace fsoi::coherence
