#include "fsoi/fsoi_network.hh"

#include <algorithm>
#include <cmath>

#include "common/due_list.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "fault/fault_model.hh"
#include "snapshot/serialize.hh"

namespace fsoi::fsoi {

namespace {

/** First slot boundary at or after @p cycle for slot length @p len. */
Cycle
alignUp(Cycle cycle, int len)
{
    const Cycle rem = cycle % len;
    return rem == 0 ? cycle : cycle + (len - rem);
}

/** Reservation key: destination, receiver index, absolute slot index. */
std::uint64_t
reservationKey(NodeId dst, int rx, std::uint64_t slot)
{
    return (static_cast<std::uint64_t>(dst) << 48)
        | (static_cast<std::uint64_t>(rx & 0xff) << 40)
        | (slot & 0xffffffffffULL);
}

} // namespace

const char *
collisionCategoryName(CollisionCategory cat)
{
    switch (cat) {
      case CollisionCategory::Memory: return "Memory";
      case CollisionCategory::Reply: return "Reply";
      case CollisionCategory::WriteBack: return "WriteBack";
      case CollisionCategory::Retransmission: return "Retransmission";
      case CollisionCategory::Other: return "Other";
      default: return "?";
    }
}

FsoiNetwork::FsoiNetwork(const noc::MeshLayout &layout,
                         const FsoiConfig &config,
                         fault::FaultInjector *fault)
    : Network(layout.numEndpoints()), layout_(layout), config_(config),
      rng_(config.seed), fault_(fault),
      lanes_(static_cast<std::size_t>(layout.numEndpoints()) * 2),
      confirmHandlers_(layout.numEndpoints()),
      controlBitHandlers_(layout.numEndpoints())
{
    FSOI_ASSERT(config_.data_vcsels >= 1 && config_.meta_vcsels >= 1);
    FSOI_ASSERT(config_.receivers_per_lane >= 1);
    FSOI_ASSERT(config_.backoff_window >= 1.0 && config_.backoff_base >= 1.0);
    FSOI_ASSERT(config_.bandwidth_scale > 0.0
                && config_.bandwidth_scale <= 1.0);
    FSOI_ASSERT(config_.confirmation_delay >= 1);

    slotCyclesCached_[0] = computeSlotCycles(PacketClass::Meta);
    slotCyclesCached_[1] = computeSlotCycles(PacketClass::Data);

    txSlots_[0].resize(layout.numEndpoints());
    txSlots_[1].resize(layout.numEndpoints());
}

int
FsoiNetwork::computeSlotCycles(PacketClass cls) const
{
    const int vcsels = cls == PacketClass::Meta ? config_.meta_vcsels
                                                : config_.data_vcsels;
    const double capacity = vcsels * config_.bits_per_cycle_per_vcsel
        * config_.bandwidth_scale;
    return static_cast<int>(
        std::ceil(noc::packetBits(cls) / capacity - 1e-9));
}

double
FsoiNetwork::transmissionProbability(PacketClass cls) const
{
    const auto slots = slotsElapsed_[static_cast<int>(cls)].value();
    if (slots == 0)
        return 0.0;
    return static_cast<double>(stats().attempts(cls))
        / (static_cast<double>(slots) * numEndpoints());
}

void
FsoiNetwork::registerStats(const obs::Scope &scope) const
{
    Network::registerStats(scope);

    const obs::Scope activity = scope.scope("activity");
    activity.counter("vcsel_slot_cycles", activity_.vcsel_slot_cycles);
    activity.counter("bits_transmitted", activity_.bits_transmitted);
    activity.counter("confirmations", activity_.confirmations);
    activity.counter("control_bits", activity_.control_bits);
    activity.counter("phase_setups", activity_.phase_setups);

    const obs::Scope events = scope.scope("data_collisions");
    for (int c = 0; c < static_cast<int>(CollisionCategory::kCount);
         ++c) {
        events.counter(
            collisionCategoryName(static_cast<CollisionCategory>(c)),
            dataCollisionEvents_[c]);
    }
    scope.accumulator("data_resolution_delay", dataResolution_);

    const obs::Scope slots = scope.scope("slots_elapsed");
    slots.counter("meta",
                  slotsElapsed_[static_cast<int>(PacketClass::Meta)]);
    slots.counter("data",
                  slotsElapsed_[static_cast<int>(PacketClass::Data)]);

    const obs::Scope txp = scope.scope("tx_probability");
    txp.derived("meta", [this] {
        return transmissionProbability(PacketClass::Meta);
    });
    txp.derived("data", [this] {
        return transmissionProbability(PacketClass::Data);
    });

    // Per-node channel occupancy: how many slots each node's lanes
    // actually transmitted in, plus the VCSEL duty cycle. This is the
    // FSOI half of the tools/stats_report heatmap.
    const obs::Scope channels = scope.scope("channels");
    for (NodeId node = 0; node < static_cast<NodeId>(numEndpoints());
         ++node) {
        const obs::Scope n = channels.scope("n" + std::to_string(node));
        n.counter("meta_tx_slots", txSlots_[0][node]);
        n.counter("data_tx_slots", txSlots_[1][node]);
        n.derived("util",
                  [this, node] { return channelUtilization(node); });
    }
}

double
FsoiNetwork::channelUtilization(NodeId node) const
{
    if (now() == 0)
        return 0.0;
    const std::uint64_t lasing =
        txSlots(node, PacketClass::Meta)
            * static_cast<std::uint64_t>(slotCycles(PacketClass::Meta))
        + txSlots(node, PacketClass::Data)
            * static_cast<std::uint64_t>(slotCycles(PacketClass::Data));
    // Two independent lanes per node, each usable every cycle.
    return static_cast<double>(lasing) / (2.0 * now());
}

void
FsoiNetwork::writeLaneStateJson(std::ostream &os) const
{
    os << "{\"packets_in_flight\":" << packetsInFlight_
       << ",\"lanes\":[";
    bool sep = false;
    for (NodeId node = 0; node < static_cast<NodeId>(numEndpoints());
         ++node) {
        for (PacketClass cls :
             {PacketClass::Meta, PacketClass::Data}) {
            const TxLane &ln = lane(node, cls);
            if (ln.queue.empty() && ln.retries.empty())
                continue;
            os << (sep ? "," : "") << "{\"node\":" << node
               << ",\"class\":\""
               << (cls == PacketClass::Meta ? "meta" : "data")
               << "\",\"queued\":" << ln.queue.size()
               << ",\"retrying\":" << ln.retries.size();
            if (!ln.retries.empty()) {
                const RetryEntry *oldest = &ln.retries.front();
                for (const auto &r : ln.retries)
                    if (r.pkt.created < oldest->pkt.created)
                        oldest = &r;
                os << ",\"oldest_retry\":{\"id\":" << oldest->pkt.id
                   << ",\"dst\":" << oldest->pkt.dst
                   << ",\"created\":" << oldest->pkt.created
                   << ",\"retries\":" << oldest->pkt.retries
                   << ",\"retry_at\":" << oldest->retry_at << "}";
            } else {
                const QueuedPacket &head = ln.queue.front();
                os << ",\"head\":{\"id\":" << head.pkt.id
                   << ",\"dst\":" << head.pkt.dst
                   << ",\"created\":" << head.pkt.created
                   << ",\"release_at\":" << head.release_at << "}";
            }
            os << "}";
            sep = true;
        }
    }
    os << "]}";
}

FsoiNetwork::TxLane &
FsoiNetwork::lane(NodeId node, PacketClass cls)
{
    return lanes_[static_cast<std::size_t>(node) * 2
                  + static_cast<int>(cls)];
}

const FsoiNetwork::TxLane &
FsoiNetwork::lane(NodeId node, PacketClass cls) const
{
    return lanes_[static_cast<std::size_t>(node) * 2
                  + static_cast<int>(cls)];
}

void
FsoiNetwork::setConfirmHandler(NodeId node, ConfirmHandler handler)
{
    FSOI_ASSERT(node < confirmHandlers_.size());
    confirmHandlers_[node] = std::move(handler);
}

void
FsoiNetwork::setControlBitHandler(NodeId node, ControlBitHandler handler)
{
    FSOI_ASSERT(node < controlBitHandlers_.size());
    controlBitHandlers_[node] = std::move(handler);
}

bool
FsoiNetwork::canAccept(NodeId src, PacketClass cls) const
{
    return lane(src, cls).queue.size()
        < static_cast<std::size_t>(config_.queue_capacity);
}

int
FsoiNetwork::windowSlots(int retry) const
{
    const double w = config_.backoff_window
        * std::pow(config_.backoff_base, retry - 1);
    return static_cast<int>(std::max(1.0, std::ceil(w)));
}

int
FsoiNetwork::reserveSlot(NodeId node, int rx, std::uint64_t slot)
{
    for (int tries = 0; tries < 8; ++tries) {
        const auto key = reservationKey(node, rx, slot + tries);
        if (reservations_.insert(key).second) {
            reservationLog_.push_back({slot + tries, key});
            return tries;
        }
    }
    return -1;
}

bool
FsoiNetwork::send(Packet &&pkt)
{
    if (!canAccept(pkt.src, pkt.cls))
        return false;
    stampOnSend(pkt);

    Cycle release_at = pkt.created;
    const int data_slot = slotCycles(PacketClass::Data);
    if (config_.request_spacing && pkt.cls == PacketClass::Meta
        && pkt.kind == PacketKind::Request) {
        // The data reply will come from pkt.dst back to pkt.src and
        // land on receiver (pkt.dst mod R) of the requester: delay the
        // request until its predicted reply slot is free.
        const int rx = static_cast<int>(pkt.dst)
            % config_.receivers_per_lane;
        const std::uint64_t slot =
            (pkt.created + config_.predicted_reply_latency) / data_slot;
        if (const int tries = reserveSlot(pkt.src, rx, slot); tries >= 0)
            release_at += static_cast<Cycle>(tries) * data_slot;
    } else if (config_.request_spacing && pkt.cls == PacketClass::Data
               && pkt.kind == PacketKind::WriteBack) {
        // Split-transaction writeback: claim a slot at the home so the
        // data packet arrives expected rather than unannounced.
        const int rx = static_cast<int>(pkt.src)
            % config_.receivers_per_lane;
        const std::uint64_t slot =
            alignUp(pkt.created + 1, data_slot) / data_slot;
        if (const int tries = reserveSlot(pkt.dst, rx, slot); tries >= 0)
            release_at = (slot + tries) * data_slot;
    }
    pkt.sched_delay = release_at - pkt.created;

    FSOI_TRACE_POINT(TraceCat::Fsoi, 2, "request", pkt.created, pkt.src,
                     {"id", pkt.id}, {"dst", pkt.dst},
                     {"kind", static_cast<std::uint64_t>(pkt.kind)});
    lane(pkt.src, pkt.cls).queue.push_back(
        QueuedPacket{std::move(pkt), release_at});
    ++packetsInFlight_;
    return true;
}

void
FsoiNetwork::sendControlBit(NodeId src, NodeId dst, std::uint64_t tag)
{
    FSOI_ASSERT(src < static_cast<NodeId>(numEndpoints())
                && dst < static_cast<NodeId>(numEndpoints()));
    controlBits_.push_back(ControlBitEvent{
        now() + config_.confirmation_delay + 1, src, dst, tag});
    activity_.control_bits++;
    FSOI_TRACE_POINT(TraceCat::Fsoi, 3, "control_bit", now(), src,
                     {"dst", dst}, {"tag", tag});
}

void
FsoiNetwork::processControlBits(Cycle now)
{
    drainDue(controlBits_, now, [this](const ControlBitEvent &evt) {
        auto &handler = controlBitHandlers_[evt.dst];
        FSOI_ASSERT(handler != nullptr,
                    "control bit to node %u without handler", evt.dst);
        handler(evt.src, evt.tag);
        return true;
    });
}

void
FsoiNetwork::processConfirmations(Cycle now)
{
    drainDue(confirmations_, now, [&](ConfirmEvent &evt) {
        if (evt.success) {
            activity_.confirmations++;
            FSOI_TRACE_POINT(TraceCat::Fsoi, 3, "confirm", now,
                             evt.pkt.src, {"id", evt.pkt.id});
            auto &handler = confirmHandlers_[evt.pkt.src];
            if (handler)
                handler(evt.pkt);
            return true;
        }
        // Missing confirmation: the sender now knows the packet
        // collided (or was eaten by a fault) and schedules a
        // retransmission slot.
        Packet pkt = std::move(evt.pkt);
        pkt.retries += 1;
        retxStats().recordRetx();
        const int slot_len = slotCycles(pkt.cls);
        Cycle retry_at;
        if (evt.hinted_winner) {
            // The receiver picked this sender: go in the next slot.
            retry_at = alignUp(now + 1, slot_len);
        } else {
            const Cycle base = config_.collision_hints
                && pkt.cls == PacketClass::Data
                ? alignUp(now + 1, slot_len) + slot_len // skip hint slot
                : alignUp(now + 1, slot_len);
            // Under fault injection the backoff window stops growing at
            // the retry budget: a persistently failing channel keeps
            // probing at a bounded rate instead of backing off forever,
            // so the blacklist trips in bounded time.
            int effective_retry = pkt.retries;
            if (fault_) {
                const int budget = fault_->config().max_retx;
                if (pkt.retries > budget) {
                    fault_->countRetxExhausted();
                    effective_retry = budget;
                }
            }
            const int window = windowSlots(effective_retry);
            const int draw =
                static_cast<int>(rng_.nextRange(1, window));
            retry_at = base + static_cast<Cycle>(draw - 1) * slot_len;
        }
        FSOI_TRACE_POINT(TraceCat::Fsoi, 2, "retry", now, pkt.src,
                         {"id", pkt.id}, {"retries",
                          static_cast<std::uint64_t>(pkt.retries)},
                         {"retry_at", retry_at});
        lane(pkt.src, pkt.cls).retries.push_back(
            RetryEntry{std::move(pkt), retry_at});
        return true;
    });
}

CollisionCategory
FsoiNetwork::classify(const std::vector<Transmission *> &colliders)
{
    bool any_retry = false, any_mem = false, any_wb = false;
    bool all_reply = true;
    for (const auto *tx : colliders) {
        const auto kind = tx->pkt.kind;
        if (tx->pkt.retries > 0)
            any_retry = true;
        if (kind == PacketKind::MemRequest || kind == PacketKind::MemReply)
            any_mem = true;
        if (kind == PacketKind::WriteBack)
            any_wb = true;
        if (kind != PacketKind::Reply)
            all_reply = false;
    }
    if (any_retry)
        return CollisionCategory::Retransmission;
    if (any_mem)
        return CollisionCategory::Memory;
    if (any_wb)
        return CollisionCategory::WriteBack;
    if (all_reply)
        return CollisionCategory::Reply;
    return CollisionCategory::Other;
}

void
FsoiNetwork::resolveSlot(PacketClass cls, Cycle now)
{
    auto &inflight = inflight_[static_cast<int>(cls)];
    if (inflight.empty())
        return;

    // Group transmissions by (destination, receiver index).
    std::unordered_map<std::uint64_t, std::vector<Transmission *>> groups;
    for (auto &tx : inflight) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(tx.pkt.dst) << 8)
            | static_cast<unsigned>(tx.rx);
        groups[key].push_back(&tx);
    }

    for (auto &[key, txs] : groups) {
        (void)key;
        if (txs.size() == 1) {
            Packet &pkt = txs[0]->pkt;
            if (fault_) {
                const int cls_idx = static_cast<int>(cls);
                const int rx = txs[0]->rx;
                const bool dead = fault_->rxDead(pkt.dst, cls_idx, rx);
                if (dead || fault_->corrupts(cls_idx)) {
                    // Dead photodetector (no light detected) or a
                    // CRC-flagged corrupted reception: the receiver
                    // stays silent, so the sender sees a missing
                    // confirmation -- indistinguishable from a
                    // collision -- and retransmits with backoff.
                    if (dead) {
                        fault_->countDeadChannelLoss();
                        retxStats().recordDeadChannelLoss();
                    } else {
                        retxStats().recordCrcDrop();
                    }
                    fault_->noteChannelFailure(pkt.dst, cls_idx, rx);
                    FSOI_TRACE_POINT(TraceCat::Fsoi, 1, "fault_drop",
                                     now, pkt.dst, {"id", pkt.id},
                                     {"src", pkt.src},
                                     {"rx",
                                      static_cast<std::uint64_t>(rx)},
                                     {"dead",
                                      static_cast<std::uint64_t>(dead)});
                    confirmations_.push_back(ConfirmEvent{
                        now + config_.confirmation_delay, false, false,
                        std::move(pkt)});
                    continue;
                }
                fault_->noteChannelSuccess(pkt.dst, cls_idx, rx);
            }
            // Clean reception: deliver now, confirm the sender at
            // now + confirmation_delay.
            Packet confirm_copy = pkt; // trivially copyable, no alloc
            if (pkt.cls == PacketClass::Data && pkt.retries > 0)
                dataResolution_.add(
                    static_cast<double>(pkt.final_tx - pkt.first_tx));
            confirmations_.push_back(ConfirmEvent{
                now + config_.confirmation_delay, true, false,
                std::move(confirm_copy)});
            FSOI_TRACE_POINT(TraceCat::Fsoi, 2, "grant", now, pkt.dst,
                             {"id", pkt.id}, {"src", pkt.src},
                             {"retries",
                              static_cast<std::uint64_t>(pkt.retries)});
            deliver(pkt);
            --packetsInFlight_;
            continue;
        }
        // Collision: the receiver sees the OR of the beams; the
        // PID/~PID check flags corruption. Every packet involved must
        // be retransmitted.
        CollisionCategory category = CollisionCategory::Other;
        if (cls == PacketClass::Data) {
            category = classify(txs);
            dataCollisionEvents_[static_cast<int>(category)]++;
        }
        FSOI_TRACE_POINT(TraceCat::Fsoi, 1, "collision", now,
                         txs[0]->pkt.dst,
                         {"colliders",
                          static_cast<std::uint64_t>(txs.size())},
                         {"class", static_cast<std::uint64_t>(cls)},
                         {"category",
                          static_cast<std::uint64_t>(category)});
        int winner = -1;
        if (config_.collision_hints && cls == PacketClass::Data
            && rng_.nextBool(config_.hint_accuracy)) {
            winner = static_cast<int>(rng_.nextBelow(txs.size()));
        }
        for (std::size_t i = 0; i < txs.size(); ++i) {
            stats().recordCollision(cls, txs[i]->pkt.kind);
            confirmations_.push_back(ConfirmEvent{
                now + config_.confirmation_delay, false,
                static_cast<int>(i) == winner,
                std::move(txs[i]->pkt)});
        }
    }
    inflight.clear();
}

void
FsoiNetwork::startSlot(PacketClass cls, Cycle now)
{
    const int slot_len = slotCycles(cls);
    const int vcsels = cls == PacketClass::Meta ? config_.meta_vcsels
                                                : config_.data_vcsels;
    slotsElapsed_[static_cast<int>(cls)]++;

    for (NodeId node = 0;
         node < static_cast<NodeId>(numEndpoints()); ++node) {
        TxLane &ln = lane(node, cls);

        // A dead VCSEL array never lights up: its packets stay queued
        // and the watchdog diagnoses the wedge from the fault schedule.
        if (fault_ && fault_->txDead(node, static_cast<int>(cls)))
            continue;

        // Pick the packet to transmit: pending retries first (earliest
        // retry_at), then the head of the outgoing queue.
        Packet pkt;
        bool have = false;
        int best = -1;
        for (std::size_t i = 0; i < ln.retries.size(); ++i) {
            if (ln.retries[i].retry_at > now)
                continue;
            if (best < 0
                || ln.retries[i].retry_at < ln.retries[best].retry_at)
                best = static_cast<int>(i);
        }
        if (best >= 0) {
            pkt = std::move(ln.retries[best].pkt);
            ln.retries.erase(ln.retries.begin() + best);
            have = true;
        } else if (!ln.queue.empty()
                   && ln.queue.front().release_at <= now) {
            pkt = std::move(ln.queue.front().pkt);
            ln.queue.pop_front();
            have = true;
        }
        if (!have)
            continue;

        // Phase-array steering: the beam must already point at the
        // destination, with any re-steer completed, to use this slot.
        if (config_.phase_array) {
            if (ln.beam_target != pkt.dst) {
                ln.beam_target = pkt.dst;
                ln.setup_ready = now + config_.phase_setup_cycles;
                activity_.phase_setups++;
                ln.retries.push_back(RetryEntry{std::move(pkt), now});
                continue;
            }
            if (ln.setup_ready > now) {
                ln.retries.push_back(RetryEntry{std::move(pkt), now});
                continue;
            }
        }

        if (pkt.first_tx == kNoCycle)
            pkt.first_tx = now;
        pkt.final_tx = now;
        FSOI_TRACE_SPAN(TraceCat::Fsoi, 3, "tx", now,
                        static_cast<Cycle>(slot_len), node,
                        {"id", pkt.id}, {"dst", pkt.dst});
        stats().recordAttempt(cls);
        txSlots_[static_cast<int>(cls)][node]++;
        activity_.vcsel_slot_cycles +=
            static_cast<std::uint64_t>(slot_len) * vcsels;
        activity_.bits_transmitted += noc::packetBits(cls);

        // Static receiver partition (sender id mod R); with faults the
        // injector steers traffic off blacklisted channels.
        const int rx = fault_
            ? fault_->redirectRx(node, pkt.dst, static_cast<int>(cls))
            : static_cast<int>(node) % config_.receivers_per_lane;
        inflight_[static_cast<int>(cls)].push_back(
            Transmission{std::move(pkt), rx});
    }
}

void
FsoiNetwork::tick(Cycle now)
{
    // Event-calendar gap accounting: skipped cycles (drained network,
    // or a busy one between slot boundaries) would only have advanced
    // the per-slot counters — replay the boundaries inside the gap
    // (multiples of the slot length) in one step; the boundary at now
    // itself, if any, is counted by the idle early-out or startSlot.
    if (const Cycle prev = this->now(); now > prev + 1) {
        for (PacketClass cls : {PacketClass::Meta, PacketClass::Data}) {
            const int slot = slotCycles(cls);
            slotsElapsed_[static_cast<int>(cls)] +=
                (now - 1) / slot - prev / slot;
        }
    }
    setNow(now);

    // Idle early-out: every queued, retrying or in-flight packet is
    // counted in packetsInFlight_ until delivery, so with the event
    // lists also empty the slot machinery below cannot move anything.
    // The per-slot counters still advance (transmissionProbability
    // normalizes attempts by *elapsed* slots, Figure 9) and stale
    // reservations still expire, exactly as in a fully simulated tick.
    if (packetsInFlight_ == 0 && confirmations_.empty()
        && controlBits_.empty()) {
        for (PacketClass cls : {PacketClass::Meta, PacketClass::Data})
            if (now % slotCycles(cls) == 0)
                slotsElapsed_[static_cast<int>(cls)]++;
        expireReservations(now);
        return;
    }

    processControlBits(now);
    processConfirmations(now);

    for (PacketClass cls : {PacketClass::Meta, PacketClass::Data}) {
        if (now % slotCycles(cls) == 0) {
            resolveSlot(cls, now);
            startSlot(cls, now);
        }
    }

    // Phase-array: start re-steering toward the next packet's target as
    // soon as it reaches the head of a lane, so the setup (1 cycle)
    // usually overlaps the wait for the slot boundary.
    if (config_.phase_array) {
        for (NodeId node = 0;
             node < static_cast<NodeId>(numEndpoints()); ++node) {
            for (PacketClass cls : {PacketClass::Meta, PacketClass::Data}) {
                TxLane &ln = lane(node, cls);
                const Packet *next = nullptr;
                for (const auto &r : ln.retries)
                    if (r.retry_at <= now + 1) {
                        next = &r.pkt;
                        break;
                    }
                if (!next && !ln.queue.empty()
                    && ln.queue.front().release_at <= now + 1)
                    next = &ln.queue.front().pkt;
                if (next && ln.beam_target != next->dst
                    && ln.setup_ready <= now) {
                    ln.beam_target = next->dst;
                    ln.setup_ready = now + config_.phase_setup_cycles;
                    activity_.phase_setups++;
                }
            }
        }
    }

    expireReservations(now);
}

Cycle
FsoiNetwork::nextEventCycle(Cycle now) const
{
    if (packetsInFlight_ == 0 && confirmations_.empty()
        && controlBits_.empty())
        return kNoCycle;
    // Phase-array steering inspects lane heads every cycle (the
    // re-steer must start the cycle a head becomes eligible, not at
    // the boundary), so the wake cannot be coarsened.
    if (config_.phase_array)
        return now + 1;

    Cycle next =
        std::min(nextDue(confirmations_, now), nextDue(controlBits_, now));

    // Slot machinery (resolve + start) only runs on a class's slot
    // boundary; between boundaries a tick is a no-op for that class.
    // Any lane content pins the wake to the class's next boundary —
    // conservative for packets still backing off or held by request
    // spacing, which is allowed (early wakes are harmless).
    for (int c = 0; c < 2; ++c) {
        const Cycle slot = static_cast<Cycle>(slotCyclesCached_[c]);
        bool work = !inflight_[c].empty();
        if (!work) {
            for (NodeId node = 0;
                 node < static_cast<NodeId>(numEndpoints()) && !work;
                 ++node) {
                const TxLane &ln =
                    lanes_[static_cast<std::size_t>(node) * 2
                           + static_cast<std::size_t>(c)];
                work = !ln.queue.empty() || !ln.retries.empty();
            }
        }
        if (work) {
            const Cycle boundary = (now / slot + 1) * slot;
            if (boundary < next)
                next = boundary;
        }
    }
    // Defensive: in-flight work must always produce a finite wake.
    return next == kNoCycle ? now + 1 : next;
}

/** Drop stale request-spacing reservations. */
void
FsoiNetwork::expireReservations(Cycle now)
{
    if (!config_.request_spacing || reservationLog_.empty())
        return;
    const int data_slot = slotCycles(PacketClass::Data);
    const std::uint64_t current = now / data_slot;
    while (!reservationLog_.empty()
           && reservationLog_.front().slot < current) {
        reservations_.erase(reservationLog_.front().key);
        reservationLog_.pop_front();
    }
}

void
FsoiNetwork::serialize(snapshot::Sections &snap, const std::string &prefix)
{
    snapshot::Archive ar = snap.open(prefix);
    serializeBase(ar);
    ar(activity_.vcsel_slot_cycles, activity_.bits_transmitted,
       activity_.confirmations, activity_.control_bits,
       activity_.phase_setups, rng_);

    ar.fixed(lanes_, "fsoi endpoint count", [&](TxLane &ln) {
        ar.seq(ln.queue, [&](QueuedPacket &qp) { ar(qp.pkt, qp.release_at); });
        ar.seq(ln.retries, [&](RetryEntry &re) { ar(re.pkt, re.retry_at); });
        ar(ln.beam_target, ln.setup_ready);
    });
    for (auto &fl : inflight_)
        ar.seq(fl, [&](Transmission &tx) { ar(tx.pkt, tx.rx); });
    ar.seq(confirmations_, [&](ConfirmEvent &ev) {
        ar(ev.due, ev.success, ev.hinted_winner, ev.pkt);
    });
    ar.seq(controlBits_, [&](ControlBitEvent &ev) {
        ar(ev.due, ev.src, ev.dst, ev.tag);
    });
    // The reservation set is exactly the keys of the FIFO log
    // (insert-if-absent on reserve, erase on expiry), so only the log
    // is serialized and the set is rebuilt on restore.
    ar.seq(reservationLog_, [&](ReservationEntry &re) {
        ar(re.slot, re.key);
    });
    if (ar.loading()) {
        reservations_.clear();
        for (const ReservationEntry &re : reservationLog_)
            reservations_.insert(re.key);
    }
    ar(slotsElapsed_);
    for (auto &per_node : txSlots_)
        ar.fixed(per_node, "fsoi node count");
    ar(dataCollisionEvents_, dataResolution_, packetsInFlight_);
}

bool
FsoiNetwork::idle() const
{
    if (packetsInFlight_ != 0)
        return false;
    if (!confirmations_.empty() || !controlBits_.empty())
        return false;
    for (const auto &ln : lanes_)
        if (!ln.queue.empty() || !ln.retries.empty())
            return false;
    for (const auto &fl : inflight_)
        if (!fl.empty())
            return false;
    return true;
}

} // namespace fsoi::fsoi
