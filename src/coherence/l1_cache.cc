#include "coherence/l1_cache.hh"

#include <algorithm>

#include "common/due_list.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "obs/flight_recorder.hh"
#include "snapshot/serialize.hh"

namespace fsoi::coherence {

const char *
l1StateName(L1State state)
{
    switch (state) {
      case L1State::I: return "I";
      case L1State::S: return "S";
      case L1State::E: return "E";
      case L1State::M: return "M";
    }
    return "?";
}

L1Cache::L1Cache(NodeId node, const L1Config &config, Transport &transport,
                 FunctionalMemory &memory,
                 std::function<NodeId(Addr)> home_of,
                 CompletionHandler on_complete)
    : node_(node), config_(config), transport_(transport), memory_(memory),
      homeOf_(std::move(home_of)), onComplete_(std::move(on_complete)),
      array_(config.geometry)
{
    FSOI_ASSERT(config_.num_mshrs >= 1 && config_.store_buffer >= 1);
    FSOI_ASSERT(onComplete_ != nullptr, "L1 %u has no completion handler",
                node_);
    mshrs_.reset(config_.num_mshrs);
}

const char *
L1Cache::wantName(std::uint8_t want)
{
    switch (static_cast<Mshr::Want>(want)) {
      case Mshr::Want::Shared: return "Shared";
      case Mshr::Want::Exclusive: return "Exclusive";
      case Mshr::Want::Upgrade: return "Upgrade";
    }
    return "?";
}

L1State
L1Cache::lineState(Addr addr) const
{
    const auto *line = array_.peek(addr);
    return line ? line->meta.state : L1State::I;
}

void
L1Cache::registerStats(const obs::Scope &scope) const
{
    scope.counter("loads", stats_.loads);
    scope.counter("stores", stats_.stores);
    scope.counter("load_hits", stats_.load_hits);
    scope.counter("store_hits", stats_.store_hits);
    scope.counter("misses", stats_.misses);
    scope.counter("upgrades", stats_.upgrades);
    scope.counter("writebacks", stats_.writebacks);
    scope.counter("invalidations_received",
                  stats_.invalidations_received);
    scope.counter("downgrades_received", stats_.downgrades_received);
    scope.counter("nacks", stats_.nacks);
    scope.counter("sc_failures", stats_.sc_failures);
    scope.counter("accesses", stats_.l1_accesses);
    scope.histogram("miss_latency", stats_.miss_latency);
    scope.derived("miss_rate", [this] {
        const auto accesses =
            stats_.loads.value() + stats_.stores.value();
        return accesses
            ? static_cast<double>(stats_.misses.value()) / accesses
            : 0.0;
    });
}

void
L1Cache::queueSend(NodeId dst, const Message &msg)
{
    outbox_.push_back(OutMsg{dst, msg});
}

void
L1Cache::scheduleDone(Cycle due, std::uint64_t value, bool success)
{
    pendingDone_.push_back(PendingDone{due, value, success});
}

void
L1Cache::clearLinkIfCovers(Addr line)
{
    if (linkValid_ && linkLine_ == line)
        linkValid_ = false;
}

void
L1Cache::issueRequest(Addr line, Mshr &mshr)
{
    Message msg{};
    msg.line = line;
    msg.requester = node_;
    switch (mshr.want) {
      case Mshr::Want::Shared:
        msg.type = MsgType::ReqSh;
        break;
      case Mshr::Want::Exclusive:
        msg.type = MsgType::ReqEx;
        break;
      case Mshr::Want::Upgrade:
        msg.type = MsgType::ReqUpg;
        break;
    }
    queueSend(homeOf_(line), msg);
    mshr.request_outstanding = true;
    mshr.retry_at = kNoCycle;
    if (mshr.created == 0) {
        mshr.created = now_;
        if (flightRec_ && flightRec_->enabled()) {
            flightRec_->record(obs::FlightEventKind::MshrAlloc, now_,
                               node_, kInvalidNode, line,
                               static_cast<std::uint8_t>(mshr.want));
        }
    }
}

bool
L1Cache::load(Addr addr)
{
    return read(addr, false);
}

bool
L1Cache::loadLinked(Addr addr)
{
    return read(addr, true);
}

bool
L1Cache::read(Addr addr, bool linked)
{
    const Addr line = array_.lineAddr(addr);

    // Store-buffer forwarding (youngest matching entry wins); an ll
    // reads the cache so the link covers a readable copy.
    if (!linked) {
        for (auto it = storeBuffer_.rbegin(); it != storeBuffer_.rend();
             ++it) {
            if (it->addr == addr) {
                stats_.loads++;
                stats_.l1_accesses++;
                stats_.load_hits++;
                scheduleDone(now_ + config_.hit_latency, it->value, true);
                return true;
            }
        }
    }

    if (auto *ln = array_.find(addr); ln && ln->meta.state != L1State::I) {
        stats_.loads++;
        stats_.l1_accesses++;
        stats_.load_hits++;
        if (linked) {
            linkValid_ = true;
            linkLine_ = line;
        }
        scheduleDone(now_ + config_.hit_latency, memory_.read(addr), true);
        return true;
    }

    if (const int idx = mshrs_.find(line); idx >= 0) {
        stats_.loads++;
        stats_.l1_accesses++;
        Mshr &mshr = mshrs_.at(idx);
        mshr.is_ll |= linked;
        mshr.loads.push_back(addr);
        return true;
    }

    if (mshrs_.full())
        return false;

    stats_.loads++;
    stats_.l1_accesses++;
    stats_.misses++;
    Mshr &mshr = mshrs_.at(mshrs_.alloc(line));
    mshr.want = Mshr::Want::Shared;
    mshr.is_ll = linked;
    mshr.loads.push_back(addr);
    issueRequest(line, mshr);
    return true;
}

bool
L1Cache::store(Addr addr, std::uint64_t value)
{
    if (storeBuffer_.size() >= static_cast<std::size_t>(config_.store_buffer))
        return false;
    stats_.stores++;
    storeBuffer_.push_back(StoreEntry{addr, value});
    return true;
}

bool
L1Cache::storeConditional(Addr addr, std::uint64_t value)
{
    const Addr line = array_.lineAddr(addr);
    stats_.l1_accesses++;

    if (!linkValid_ || linkLine_ != line) {
        stats_.sc_failures++;
        scheduleDone(now_ + 1, 0, false);
        return true;
    }

    auto *ln = array_.find(addr);
    if (ln && (ln->meta.state == L1State::M
               || ln->meta.state == L1State::E)) {
        ln->meta.state = L1State::M;
        memory_.write(addr, value);
        stats_.store_hits++;
        scheduleDone(now_ + config_.hit_latency, value, true);
        return true;
    }
    if (ln && ln->meta.state == L1State::S) {
        const int idx = mshrs_.find(line);
        if (idx < 0) {
            if (mshrs_.full())
                return false;
            Mshr &mshr = mshrs_.at(mshrs_.alloc(line));
            mshr.want = Mshr::Want::Upgrade;
            stats_.upgrades++;
            mshr.is_sc = true;
            mshr.sc_addr = addr;
            mshr.sc_value = value;
            issueRequest(line, mshr);
        } else {
            Mshr &mshr = mshrs_.at(idx);
            mshr.is_sc = true;
            mshr.sc_addr = addr;
            mshr.sc_value = value;
        }
        return true;
    }
    // Link register valid but line not readable: treat as failure.
    stats_.sc_failures++;
    linkValid_ = false;
    scheduleDone(now_ + 1, 0, false);
    return true;
}

L1Cache::Line *
L1Cache::makeRoom(Addr line)
{
    Line *slot = array_.victimIf(line, [this](const Line &candidate) {
        return !lineBusy(candidate.tag);
    });
    if (!slot)
        return nullptr;
    if (slot->valid) {
        if (slot->meta.state == L1State::M) {
            Message wb{};
            wb.type = MsgType::WriteBack;
            wb.line = slot->tag;
            wb.requester = node_;
            queueSend(homeOf_(slot->tag), wb);
            stats_.writebacks++;
        }
        clearLinkIfCovers(slot->tag);
        array_.invalidate(slot);
    }
    return slot;
}

void
L1Cache::performStoreHead()
{
    FSOI_ASSERT(!storeBuffer_.empty());
    const StoreEntry entry = storeBuffer_.front();
    storeBuffer_.pop_front();
    memory_.write(entry.addr, entry.value);
    stats_.store_hits++;
}

void
L1Cache::finishMshr(Addr line, L1State granted)
{
    const int idx = mshrs_.find(line);
    FSOI_ASSERT(idx >= 0);
    Mshr mshr = mshrs_.release(idx);
    stats_.miss_latency.add(static_cast<double>(now_ - mshr.created));
    if (flightRec_ && flightRec_->enabled()) {
        flightRec_->record(obs::FlightEventKind::MshrFree, now_, node_,
                           kInvalidNode, line,
                           static_cast<std::uint8_t>(granted));
    }

    auto *ln = array_.find(line);
    FSOI_ASSERT(ln && ln->valid);
    ln->meta.state = granted;

    const bool writable =
        granted == L1State::E || granted == L1State::M;

    if (mshr.is_ll) {
        linkValid_ = true;
        linkLine_ = line;
    }

    if (mshr.store_pending && writable) {
        // The store-buffer head triggered this miss; complete it now.
        if (!storeBuffer_.empty()
            && array_.lineAddr(storeBuffer_.front().addr) == line) {
            performStoreHead();
            ln->meta.state = L1State::M;
        }
    }

    if (mshr.is_sc) {
        if (writable && linkValid_ && linkLine_ == line) {
            memory_.write(mshr.sc_addr, mshr.sc_value);
            ln->meta.state = L1State::M;
            scheduleDone(now_ + 1, mshr.sc_value, true);
        } else {
            stats_.sc_failures++;
            scheduleDone(now_ + 1, 0, false);
        }
    }

    for (const Addr addr : mshr.loads)
        scheduleDone(now_ + 1, memory_.read(addr), true);

    if (mshr.inv_pending) {
        // Read-once: the invalidation was acknowledged when it
        // arrived; the data has now been consumed exactly once, so
        // drop the line before it can become visibly stale.
        clearLinkIfCovers(line);
        array_.invalidate(ln);
    } else if (mshr.dwg_pending) {
        // Downgrade was acknowledged clean on arrival; demote the
        // freshly granted copy.
        ln->meta.state = L1State::S;
    }
}

void
L1Cache::handleData(const Message &msg, L1State granted)
{
    const Addr line = msg.line;
    const int idx = mshrs_.find(line);
    FSOI_ASSERT(idx >= 0,
                "node %u: data for line %llx without MSHR", node_,
                static_cast<unsigned long long>(line));
    mshrs_.at(idx).request_outstanding = false;

    if (!array_.peek(line)) {
        Line *slot = makeRoom(line);
        if (!slot) {
            // Every way of the set is pinned by an in-flight upgrade;
            // retry the install next cycle.
            deferredData_.push_back(msg);
            return;
        }
        array_.install(slot, line, LineMeta{granted});
    }
    finishMshr(line, granted);
}

void
L1Cache::handleExcAck(const Message &msg)
{
    const Addr line = msg.line;
    const int idx = mshrs_.find(line);
    FSOI_ASSERT(idx >= 0);
    mshrs_.at(idx).request_outstanding = false;
    if (!array_.peek(line)) {
        // Race: our S copy was consumed read-once (an invalidation
        // overtook a regrant) after the directory classified this as
        // an upgrade. The directory now counts us as the owner, so a
        // full Req(Ex) fetches the current L2 copy as DataM (the
        // directory's owner-lost-its-copy path).
        Mshr &mshr = mshrs_.at(idx);
        mshr.want = Mshr::Want::Exclusive;
        mshr.inv_pending = false;
        issueRequest(line, mshr);
        return;
    }
    finishMshr(line, L1State::M);
}

void
L1Cache::handleInv(const Message &msg)
{
    const Addr line = msg.line;
    stats_.invalidations_received++;

    const int idx = mshrs_.find(line);
    auto *ln = array_.find(line);
    FSOI_TRACE_POINT(TraceCat::Coherence, 2, "inv", now_, node_,
                     {"line", line},
                     {"mshr", idx >= 0 ? 1u : 0u},
                     {"state",
                      ln ? static_cast<std::uint64_t>(ln->meta.state) + 1
                         : 0});

    Message ack{};
    ack.line = line;
    ack.requester = node_;
    ack.version = msg.version;

    if (idx >= 0) {
        Mshr &mshr = mshrs_.at(idx);
        if (ln && ln->meta.state == L1State::S
            && mshr.want == Mshr::Want::Upgrade) {
            // Table 2: S.MA + Inv -> InvAck / I.MD. The directory
            // reinterprets our queued upgrade as a full Req(Ex).
            clearLinkIfCovers(line);
            array_.invalidate(ln);
            mshr.want = Mshr::Want::Exclusive;
            if (!config_.confirmation_acks || msg.explicit_ack) {
                ack.type = MsgType::InvAck;
                queueSend(homeOf_(line), ack);
            }
            return;
        }
        // I.SD / I.MD (Table 2): acknowledge immediately -- the
        // request may be parked behind a directory transaction, so the
        // directory must not wait on us. If a data grant is already in
        // flight it will be consumed exactly once and dropped
        // (read-once), so no stale copy ever becomes visible.
        mshr.inv_pending = true;
        clearLinkIfCovers(line);
        if (!config_.confirmation_acks || msg.explicit_ack) {
            ack.type = MsgType::InvAck;
            queueSend(homeOf_(line), ack);
        }
        return;
    }

    if (ln) {
        const L1State state = ln->meta.state;
        clearLinkIfCovers(line);
        array_.invalidate(ln);
        if (state == L1State::M) {
            ack.type = MsgType::InvAckData;
            queueSend(homeOf_(line), ack);
        } else if (state == L1State::E) {
            ack.type = MsgType::InvAck;
            queueSend(homeOf_(line), ack);
        } else if (!config_.confirmation_acks || msg.explicit_ack) {
            ack.type = MsgType::InvAck;
            queueSend(homeOf_(line), ack);
        }
        return;
    }

    // Stale invalidation for a line we no longer hold (Table 2:
    // I + Inv -> InvAck / I).
    if (!config_.confirmation_acks || msg.explicit_ack) {
        ack.type = MsgType::InvAck;
        FSOI_TRACE_POINT(TraceCat::Coherence, 3, "stale_ack", now_,
                         node_, {"line", line}, {"home", homeOf_(line)});
        queueSend(homeOf_(line), ack);
    }
}

void
L1Cache::handleDwg(const Message &msg)
{
    const Addr line = msg.line;
    stats_.downgrades_received++;
    if (traceEnabled(TraceCat::Coherence, 2)) {
        const auto *lnp = array_.peek(line);
        tracer().instant(TraceCat::Coherence, "dwg", now_, node_,
                         {{"line", line},
                          {"mshr", mshrs_.find(line) >= 0 ? 1u : 0u},
                          {"state",
                           lnp ? static_cast<std::uint64_t>(
                                     lnp->meta.state) + 1
                               : 0}});
    }

    Message ack{};
    ack.line = line;
    ack.requester = node_;
    ack.version = msg.version;

    if (const int idx = mshrs_.find(line); idx >= 0) {
        auto *ln = array_.find(line);
        if (!ln) {
            // As with Inv: acknowledge immediately (clean; the L2 copy
            // is current) and downgrade the eventual grant on arrival.
            mshrs_.at(idx).dwg_pending = true;
            ack.type = MsgType::DwgAck;
            queueSend(homeOf_(line), ack);
            return;
        }
        // Upgrade in flight on a present S line: stale downgrade.
        ack.type = MsgType::DwgAck;
        queueSend(homeOf_(line), ack);
        return;
    }

    if (auto *ln = array_.find(line); ln) {
        if (ln->meta.state == L1State::M) {
            ack.type = MsgType::DwgAckData;
            ln->meta.state = L1State::S;
        } else {
            ack.type = MsgType::DwgAck;
            if (ln->meta.state == L1State::E)
                ln->meta.state = L1State::S;
        }
        queueSend(homeOf_(line), ack);
        return;
    }

    ack.type = MsgType::DwgAck;
    queueSend(homeOf_(line), ack);
}

void
L1Cache::handleNack(const Message &msg)
{
    const int idx = mshrs_.find(msg.line);
    if (idx < 0)
        return; // satisfied through another path meanwhile
    stats_.nacks++;
    Mshr &mshr = mshrs_.at(idx);
    mshr.request_outstanding = false;
    mshr.retry_at = now_ + config_.nack_retry_delay;
}

void
L1Cache::handleMessage(const Message &msg)
{
    switch (msg.type) {
      case MsgType::DataS:
        handleData(msg, L1State::S);
        break;
      case MsgType::DataE:
        handleData(msg, L1State::E);
        break;
      case MsgType::DataM:
        handleData(msg, L1State::M);
        break;
      case MsgType::ExcAck:
        handleExcAck(msg);
        break;
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::Dwg:
        handleDwg(msg);
        break;
      case MsgType::Nack:
        handleNack(msg);
        break;
      default:
        panic("L1 %u: unexpected message %s", node_,
              msgTypeName(msg.type));
    }
}

void
L1Cache::drainStoreBuffer()
{
    if (storeBuffer_.empty())
        return;
    const StoreEntry &head = storeBuffer_.front();
    const Addr line = array_.lineAddr(head.addr);

    if (const int idx = mshrs_.find(line); idx >= 0) {
        mshrs_.at(idx).store_pending = true;
        return;
    }

    auto *ln = array_.find(head.addr);
    if (ln && ln->meta.state == L1State::M) {
        performStoreHead();
        return;
    }
    if (ln && ln->meta.state == L1State::E) {
        ln->meta.state = L1State::M;
        performStoreHead();
        return;
    }
    if (mshrs_.full())
        return;
    stats_.l1_accesses++;
    Mshr &mshr = mshrs_.at(mshrs_.alloc(line));
    if (ln && ln->meta.state == L1State::S) {
        mshr.want = Mshr::Want::Upgrade;
        stats_.upgrades++;
    } else {
        mshr.want = Mshr::Want::Exclusive;
        stats_.misses++;
    }
    mshr.store_pending = true;
    issueRequest(line, mshr);
}

void
L1Cache::tick(Cycle now)
{
    now_ = now;

    // Fire completed operations.
    drainDue(pendingDone_, now, [this](const PendingDone &done) {
        onComplete_(done.value, done.success);
        return true;
    });

    // Retry deferred fills.
    if (!deferredData_.empty()) {
        std::vector<Message> retry;
        retry.swap(deferredData_);
        for (const auto &msg : retry) {
            const L1State granted = msg.type == MsgType::DataS
                ? L1State::S
                : msg.type == MsgType::DataE ? L1State::E : L1State::M;
            handleData(msg, granted);
        }
    }

    // Drain the outbox into the transport.
    while (!outbox_.empty()
           && transport_.trySend(node_, outbox_.front().dst,
                                 outbox_.front().msg)) {
        outbox_.pop_front();
    }

    // NACK retries. Issue in line-address order, not slot order: the
    // outbox order of same-cycle retries is observable downstream, and
    // slot assignment depends on allocation history (a restored table,
    // rebuilt by sorted insertion, would otherwise iterate differently
    // than the uninterrupted run's).
    {
        retryScratch_.clear();
        mshrs_.forEach([&](Addr line, const Mshr &mshr) {
            if (mshr.retry_at != kNoCycle && mshr.retry_at <= now
                && !mshr.request_outstanding) {
                retryScratch_.push_back(line);
            }
        });
        if (!retryScratch_.empty()) {
            std::sort(retryScratch_.begin(), retryScratch_.end());
            for (const Addr line : retryScratch_)
                issueRequest(line, mshrs_.at(mshrs_.find(line)));
        }
    }

    drainStoreBuffer();
}

void
L1Cache::serialize(snapshot::Archive &ar)
{
    ar(array_);
    mshrs_.serialize(ar, [&](Mshr &mshr) {
        ar(mshr.want);
        ar.seq(mshr.loads);
        ar(mshr.store_pending, mshr.is_ll, mshr.is_sc, mshr.sc_addr,
           mshr.sc_value, mshr.inv_pending, mshr.dwg_pending,
           mshr.retry_at, mshr.request_outstanding, mshr.created);
    });

    ar.seq(storeBuffer_, [&](StoreEntry &entry) {
        ar(entry.addr, entry.value);
    });
    ar.seq(outbox_, [&](OutMsg &out) { ar(out.dst, out.msg); });
    ar.seq(deferredData_);
    ar.seq(pendingDone_, [&](PendingDone &done) {
        ar(done.due, done.value, done.success);
    });
    ar(linkLine_, linkValid_, now_);

    ar(stats_.loads, stats_.stores, stats_.load_hits, stats_.store_hits,
       stats_.misses, stats_.upgrades, stats_.writebacks,
       stats_.invalidations_received, stats_.downgrades_received,
       stats_.nacks, stats_.sc_failures, stats_.l1_accesses,
       stats_.miss_latency);
}

Cycle
L1Cache::nextEventCycle(Cycle now) const
{
    // Deferred installs and queued sends retry every cycle.
    if (!deferredData_.empty() || !outbox_.empty())
        return now + 1;

    Cycle next = nextDue(pendingDone_, now);
    mshrs_.forEach([&](Addr, const Mshr &mshr) {
        if (mshr.retry_at != kNoCycle && !mshr.request_outstanding)
            next = std::min(next, std::max(mshr.retry_at, now + 1));
    });

    if (!storeBuffer_.empty()) {
        // The drain makes tick-driven progress (one head per cycle)
        // except in two delivery-driven waits: the head's miss is in
        // flight and already flagged store_pending (finishMshr or the
        // post-completion drain performs it on the delivery cycle), or
        // every MSHR is taken (the drain unblocks the cycle an MSHR
        // frees, which only happens on a delivery to this L1). A head
        // whose MSHR is not yet flagged must still get one tick so the
        // flag is set before the grant lands.
        const Addr line = array_.lineAddr(storeBuffer_.front().addr);
        const int idx = mshrs_.find(line);
        const bool parked =
            idx >= 0 ? mshrs_.at(idx).store_pending : mshrs_.full();
        if (!parked)
            next = std::min(next, now + 1);
    }
    return next;
}

bool
L1Cache::quiescent() const
{
    return mshrs_.empty() && storeBuffer_.empty() && outbox_.empty()
        && pendingDone_.empty() && deferredData_.empty();
}

void
L1Cache::writeJson(std::ostream &os, Cycle now) const
{
    const auto flag = [](bool b) { return b ? "true" : "false"; };
    os << "{\"node\":" << node_ << ",\"store_buffer\":"
       << storeBuffer_.size() << ",\"outbox\":" << outbox_.size()
       << ",\"pending_done\":" << pendingDone_.size()
       << ",\"deferred_fills\":" << deferredData_.size()
       << ",\"mshrs\":[";
    const char *sep = "";
    mshrs_.forEach([&](Addr line, const Mshr &mshr) {
        os << sep << "{\"kind\":\"mshr\",\"node\":" << node_
           << ",\"line\":" << line << ",\"want\":\""
           << wantName(static_cast<std::uint8_t>(mshr.want))
           << "\",\"since\":" << mshr.created << ",\"age\":"
           << (now >= mshr.created ? now - mshr.created : 0)
           << ",\"request_outstanding\":"
           << flag(mshr.request_outstanding);
        if (mshr.retry_at != kNoCycle)
            os << ",\"retry_at\":" << mshr.retry_at;
        os << ",\"store_pending\":" << flag(mshr.store_pending)
           << ",\"inv_pending\":" << flag(mshr.inv_pending)
           << ",\"dwg_pending\":" << flag(mshr.dwg_pending)
           << ",\"loads\":" << mshr.loads.size() << "}";
        sep = ",";
    });
    os << "]}";
}

} // namespace fsoi::coherence
