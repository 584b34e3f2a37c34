#include "noc/mesh_network.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/due_list.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "fault/fault_model.hh"
#include "snapshot/serialize.hh"

namespace fsoi::noc {

namespace {

/** Direction port indices; local ports start at kFirstLocal. */
enum Direction { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };
constexpr int kFirstLocal = 4;

/** Upper bound on router ports (4 directions + local endpoints),
 *  asserted at construction; sizes the arbitration scratch arrays. */
constexpr int kMaxPorts = 8;

const char *const kDirectionNames[4] = {"east", "west", "north", "south"};

} // namespace

/** One flit of a packet in flight: 16 flat bytes, no indirection. */
struct MeshNetwork::Flit
{
    PacketHandle pkt = kNullPkt;
    std::uint8_t head = 0;
    std::uint8_t tail = 0;
    Cycle ready_at = 0; //!< switch-allocation eligibility at this router

    void
    serialize(snapshot::Archive &ar)
    {
        ar(pkt, head, tail, ready_at);
    }
};

/** A single mesh router with VC input buffers and credit flow control. */
struct MeshNetwork::Router
{
    /**
     * VC buffer as a fixed-capacity ring over a flat Flit array. The
     * capacity is buffer_depth, which the credit protocol (and the
     * explicit injection-side checks) already enforce, so push/pop are
     * two or three stores with no allocation -- the deque-of-shared_ptr
     * this replaces paid chunk management plus refcount traffic on the
     * hottest loop in the simulator.
     */
    struct Vc
    {
        std::vector<Flit> ring; //!< sized to buffer_depth, never grows
        int head = 0;
        int count = 0;
        int out_port = -1; //!< route of the packet currently at the head
        int out_vc = -1;   //!< downstream VC granted to that packet

        bool empty() const { return count == 0; }
        Flit &front() { return ring[static_cast<std::size_t>(head)]; }
        const Flit &front() const
        { return ring[static_cast<std::size_t>(head)]; }

        /** Ring index of the @p i-th buffered flit from the head. */
        std::size_t
        slot(int i) const
        {
            int idx = head + i;
            const int cap = static_cast<int>(ring.size());
            if (idx >= cap)
                idx -= cap;
            return static_cast<std::size_t>(idx);
        }

        const Flit &back() const { return ring[slot(count - 1)]; }

        void
        push(const Flit &flit)
        {
            FSOI_ASSERT(count < static_cast<int>(ring.size()));
            ring[slot(count)] = flit;
            ++count;
        }

        void
        pop()
        {
            ++head;
            if (head >= static_cast<int>(ring.size()))
                head = 0;
            --count;
        }
    };

    struct InPort
    {
        Router *up = nullptr; //!< upstream router (nullptr = injection)
        int up_port = -1;     //!< output port index at the upstream router
        std::vector<Vc> vcs;
        /**
         * Lower bound on the earliest ready_at among the front flits of
         * this port's non-empty VCs. While ready_min > now every VC
         * front is still in the router pipeline and the allocation scan
         * over this port is side-effect free, so tick() skips it
         * entirely. Pure memoization: pushes min it in, pops recompute
         * it exactly, and snapshot restore rebuilds it from the
         * restored buffers (it is never serialized).
         */
        Cycle ready_min = 0;
        int rr = 0;       //!< VC round-robin pointer
        int buffered = 0; //!< flits across this port's VCs (scan skip)

        /** Exact ready_min from the current buffer contents. */
        void
        recomputeReadyMin()
        {
            ready_min = kNoCycle;
            for (const Vc &vc : vcs)
                if (!vc.empty() && vc.front().ready_at < ready_min)
                    ready_min = vc.front().ready_at;
        }
    };

    struct OutPort
    {
        Router *peer = nullptr; //!< downstream router (nullptr = ejection)
        int peer_port = -1;     //!< input port index at the peer
        bool local = false;
        std::vector<int> credits;
        std::vector<char> vc_busy;
        int rr_in = 0; //!< switch-allocation round-robin pointer
        int rr_vc = 0; //!< VC-allocation round-robin pointer
    };

    /**
     * A credit produced by a downstream traversal this cycle; it
     * matures exactly one cycle later, which is never later than the
     * next executed tick (nextEventCycle pins the wake to now + 1
     * while any credit is pending), so no due stamp is needed: the
     * whole queue is applied and cleared at the top of the next tick.
     */
    struct CreditEvent
    {
        int port;
        int vc;
    };

    /**
     * Per-tick scratch: the input ports whose candidate VC routes to
     * one output port. Filled by the switch-allocation scan, consumed
     * (and reset) by output arbitration, which then only examines
     * actual contenders instead of scanning every (output, input)
     * pair. An input's candidate VC targets exactly one output, so
     * membership is unique and the rotating-priority winner is the
     * member with the smallest circular distance from rr_in.
     */
    struct WantList
    {
        std::array<std::int8_t, kMaxPorts> ports;
        std::int8_t count = 0;
    };

    int id = 0;
    int scan_phase = 0; //!< rotating input-port priority (fairness)
    int buffered_flits = 0; //!< flits across all input VC buffers
    std::vector<InPort> in;
    std::vector<OutPort> out;
    std::vector<CreditEvent> credit_queue;
    // Per-tick scratch: candidate VC per input port (only entries
    // reachable through a want list are meaningful).
    std::vector<int> candidate;
    std::vector<WantList> want; //!< per output port

    /**
     * Apply every staged credit (all matured by now -- see
     * CreditEvent) and clear the queue. Returns the number applied.
     */
    std::size_t
    applyCredits()
    {
        const std::size_t applied = credit_queue.size();
        for (const CreditEvent &ev : credit_queue)
            ++out[ev.port].credits[ev.vc];
        credit_queue.clear();
        return applied;
    }

    bool
    empty() const
    {
        for (const auto &ip : in)
            if (ip.buffered != 0)
                return false;
        return true;
    }
};

MeshNetwork::MeshNetwork(const MeshLayout &layout, const MeshConfig &config,
                         fault::FaultInjector *fault)
    : Network(layout.numEndpoints()), layout_(layout), config_(config),
      fault_(fault),
      linkFlits_(static_cast<std::size_t>(layout.side() * layout.side())),
      injectors_(static_cast<std::size_t>(layout.numEndpoints())),
      injWake_(static_cast<std::size_t>(layout.numEndpoints() + 63) / 64, 0)
{
    FSOI_ASSERT(config_.num_vcs >= 2 && config_.num_vcs % 2 == 0,
                "need an even number of VCs to partition meta/data");
    FSOI_ASSERT(config_.buffer_depth >= config_.data_flits,
                "VC buffer must hold a whole data packet");
    FSOI_ASSERT(config_.bandwidth_scale > 0.0
                && config_.bandwidth_scale <= 1.0);

    const int side = layout_.side();
    const int num_routers = side * side;

    // How many local ports each router needs (core + attached memctls).
    std::vector<int> local_ports(num_routers, 1);
    for (int m = 0; m < layout_.numMemctls(); ++m) {
        const NodeId ep = static_cast<NodeId>(layout_.numCores() + m);
        local_ports[layout_.routerOf(ep)] += 1;
    }

    // Routers live in one contiguous array (reserved up front so the
    // wiring pointers below stay stable) — the tick loop walks them
    // every executed cycle, and the pointer-per-router layout this
    // replaces cost a cache miss per hop of that walk.
    routers_.reserve(static_cast<std::size_t>(num_routers));
    for (int r = 0; r < num_routers; ++r) {
        Router &router = routers_.emplace_back();
        router.id = r;
        const int num_ports = kFirstLocal + local_ports[r];
        router.in.resize(num_ports);
        router.out.resize(num_ports);
        for (int p = 0; p < num_ports; ++p) {
            router.in[p].vcs.resize(config_.num_vcs);
            for (auto &vc : router.in[p].vcs)
                vc.ring.resize(
                    static_cast<std::size_t>(config_.buffer_depth));
            router.out[p].credits.assign(config_.num_vcs,
                                         config_.buffer_depth);
            router.out[p].vc_busy.assign(config_.num_vcs, 0);
        }
        FSOI_ASSERT(num_ports <= kMaxPorts);
        router.candidate.assign(num_ports, -1);
        router.want.resize(static_cast<std::size_t>(num_ports));
    }

    // Wire neighbouring routers (E<->W, N<->S) and mark local ports.
    auto at = [&](int x, int y) { return &routers_[y * side + x]; };
    for (int y = 0; y < side; ++y) {
        for (int x = 0; x < side; ++x) {
            Router *r = at(x, y);
            if (x + 1 < side) {
                Router *e = at(x + 1, y);
                r->out[kEast] = {e, kWest, false,
                                 std::vector<int>(config_.num_vcs,
                                                  config_.buffer_depth),
                                 std::vector<char>(config_.num_vcs, 0),
                                 0, 0};
                e->in[kWest].up = r;
                e->in[kWest].up_port = kEast;
                e->out[kWest] = {r, kEast, false,
                                 std::vector<int>(config_.num_vcs,
                                                  config_.buffer_depth),
                                 std::vector<char>(config_.num_vcs, 0),
                                 0, 0};
                r->in[kEast].up = e;
                r->in[kEast].up_port = kWest;
            }
            if (y + 1 < side) {
                Router *s = at(x, y + 1);
                r->out[kSouth] = {s, kNorth, false,
                                  std::vector<int>(config_.num_vcs,
                                                   config_.buffer_depth),
                                  std::vector<char>(config_.num_vcs, 0),
                                  0, 0};
                s->in[kNorth].up = r;
                s->in[kNorth].up_port = kSouth;
                s->out[kNorth] = {r, kSouth, false,
                                  std::vector<int>(config_.num_vcs,
                                                   config_.buffer_depth),
                                  std::vector<char>(config_.num_vcs, 0),
                                  0, 0};
                r->in[kSouth].up = s;
                r->in[kSouth].up_port = kNorth;
            }
        }
    }
    for (Router &router : routers_) {
        for (std::size_t p = kFirstLocal; p < router.out.size(); ++p)
            router.out[p].local = true;
    }

    flits_[0] = computeFlitsPerPacket(PacketClass::Meta);
    flits_[1] = computeFlitsPerPacket(PacketClass::Data);

    buildRouteTable();
}

void
MeshNetwork::buildRouteTable()
{
    const int n = static_cast<int>(routers_.size());
    nextHop_.assign(static_cast<std::size_t>(n) * n, -1);
    // One BFS per destination over the live links (edges die with both
    // directions, so the graph stays undirected). The neighbour scan
    // order E, W, N, S picks the first port that closes the distance:
    // on a healthy grid that is exactly XY's port (x first, then y),
    // and routes stay XY-flavoured wherever XY still works.
    const auto live = [this](int r, int d) {
        return routers_[r].out[d].peer
            && !(fault_ && fault_->linkDead(r, d));
    };
    std::vector<int> dist(n);
    std::vector<int> bfs(n);
    for (int dst = 0; dst < n; ++dst) {
        std::fill(dist.begin(), dist.end(), -1);
        int head = 0, tail = 0;
        dist[dst] = 0;
        bfs[tail++] = dst;
        while (head < tail) {
            const int r = bfs[head++];
            for (int d = 0; d < 4; ++d) {
                if (!live(r, d))
                    continue;
                const Router *peer = routers_[r].out[d].peer;
                if (dist[peer->id] < 0) {
                    dist[peer->id] = dist[r] + 1;
                    bfs[tail++] = peer->id;
                }
            }
        }
        for (int r = 0; r < n; ++r) {
            if (r == dst || dist[r] < 0)
                continue;
            for (int d = 0; d < 4; ++d) {
                if (!live(r, d))
                    continue;
                const Router *peer = routers_[r].out[d].peer;
                if (dist[peer->id] == dist[r] - 1) {
                    nextHop_[static_cast<std::size_t>(dst) * n + r] =
                        static_cast<std::int16_t>(d);
                    break;
                }
            }
        }
    }
}

bool
MeshNetwork::reachable(NodeId src, NodeId dst) const
{
    const int sr = layout_.routerOf(src);
    const int dr = layout_.routerOf(dst);
    if (sr == dr)
        return true;
    const std::size_t n = routers_.size();
    return nextHop_[static_cast<std::size_t>(dr) * n + sr] >= 0;
}

bool
MeshNetwork::fullyConnected() const
{
    const std::size_t n = routers_.size();
    for (std::size_t dst = 0; dst < n; ++dst)
        for (std::size_t r = 0; r < n; ++r)
            if (r != dst && nextHop_[dst * n + r] < 0)
                return false;
    return true;
}

MeshNetwork::~MeshNetwork() = default;

int
MeshNetwork::computeFlitsPerPacket(PacketClass cls) const
{
    const int base = cls == PacketClass::Meta ? config_.meta_flits
                                              : config_.data_flits;
    return static_cast<int>(
        std::ceil(base / config_.bandwidth_scale - 1e-9));
}

int
MeshNetwork::localPortOf(NodeId endpoint) const
{
    if (!layout_.isMemctl(endpoint))
        return kFirstLocal;
    // Memory controllers take the port after the core's. The layout
    // spreads controllers so at most one shares a router with the core.
    return kFirstLocal + 1;
}

void
MeshNetwork::registerStats(const obs::Scope &scope) const
{
    Network::registerStats(scope);
    const obs::Scope activity = scope.scope("activity");
    activity.counter("buffer_writes", activity_.buffer_writes);
    activity.counter("buffer_reads", activity_.buffer_reads);
    activity.counter("crossbar_traversals",
                     activity_.crossbar_traversals);
    activity.counter("link_traversals", activity_.link_traversals);
    activity.counter("arbitrations", activity_.arbitrations);

    // Per-link traversal counts and router occupancy gauges: the
    // heatmap data tools/stats_report renders. Only links that exist
    // are registered (edge routers lack some directions).
    const obs::Scope links = scope.scope("links");
    const obs::Scope occupancy = scope.scope("occupancy");
    for (const Router &router : routers_) {
        const obs::Scope r = links.scope("r" + std::to_string(router.id));
        for (int d = 0; d < 4; ++d) {
            if (router.out[d].peer)
                r.counter(kDirectionNames[d], linkFlits_[router.id][d]);
        }
        occupancy.derived("r" + std::to_string(router.id),
                          [&router] {
                              return static_cast<double>(
                                  router.buffered_flits);
                          });
    }
}

bool
MeshNetwork::canAccept(NodeId src, PacketClass cls) const
{
    const auto &lane =
        injectors_[src].lanes[static_cast<int>(cls)];
    return lane.queue.size()
        < static_cast<std::size_t>(config_.inject_queue_capacity);
}

bool
MeshNetwork::send(Packet &&pkt)
{
    if (!canAccept(pkt.src, pkt.cls))
        return false;
    if (fault_ && !reachable(pkt.src, pkt.dst)) {
        // No live route to the destination: the packet is dropped and
        // counted rather than wedging a router queue. The protocol
        // above never gets its reply; the watchdog then diagnoses the
        // partition from the fault schedule (System also refuses to
        // start a run on a partitioned mesh).
        fault_->countUnroutableDrop();
        FSOI_TRACE_POINT(TraceCat::Noc, 1, "unroutable", now(), pkt.src,
                         {"dst", pkt.dst});
        return true;
    }
    stampOnSend(pkt);
    injWake_[pkt.src >> 6] |= 1ull << (pkt.src & 63);
    injectors_[pkt.src].lanes[static_cast<int>(pkt.cls)]
        .queue.push_back(std::move(pkt));
    ++packetsInFlight_;
    return true;
}

void
MeshNetwork::startPacket(Injector &inj, int cls_idx, NodeId endpoint)
{
    auto &lane = inj.lanes[cls_idx];
    FSOI_ASSERT(!lane.queue.empty());
    // Choose a VC in this class's partition with room in the local
    // input port of the endpoint's router.
    Router &router = routers_[layout_.routerOf(endpoint)];
    auto &iport = router.in[localPortOf(endpoint)];
    const int half = config_.num_vcs / 2;
    const int lo = cls_idx == 0 ? 0 : half;
    const int hi = cls_idx == 0 ? half : config_.num_vcs;
    for (int vc = lo; vc < hi; ++vc) {
        // The VC must not be mid-packet from this injector and must
        // have room for the whole packet eventually; we stream flit by
        // flit so only per-flit room is needed, but a fresh packet must
        // not interleave with another packet on the same VC.
        const auto &buf = iport.vcs[vc];
        const bool mid_packet = !buf.empty() && !buf.back().tail;
        if (mid_packet)
            continue;
        if (buf.count >= config_.buffer_depth)
            continue;
        if (inj.active[0] != kNullPkt && inj.vc[0] == vc)
            continue;
        if (inj.active[1] != kNullPkt && inj.vc[1] == vc)
            continue;
        const PacketHandle h =
            pkts_.alloc(std::move(lane.queue.front()));
        lane.queue.pop_front();
        Packet &pkt = pkts_[h];
        FSOI_TRACE_POINT(TraceCat::Noc, 3, "inject", now(), pkt.src,
                         {"id", pkt.id}, {"dst", pkt.dst},
                         {"vc", static_cast<std::uint64_t>(vc)});
        // A NACKed packet re-entering the lane keeps its original
        // first_tx so collisionLatency() spans the full retry history.
        if (pkt.first_tx == kNoCycle)
            pkt.first_tx = now();
        pkt.final_tx = now();
        stats().recordAttempt(pkt.cls);
        inj.active[cls_idx] = h;
        inj.remaining[cls_idx] = flitsPerPacket(
            cls_idx == 0 ? PacketClass::Meta : PacketClass::Data);
        inj.vc[cls_idx] = vc;
        return;
    }
}

void
MeshNetwork::tickInjection(Cycle now)
{
    // Walk only the endpoints flagged as possibly-active; bit order is
    // ascending endpoint id, the same order the full scan used.
    for (std::size_t w = 0; w < injWake_.size(); ++w) {
      for (std::uint64_t word = injWake_[w]; word != 0; word &= word - 1) {
        const int bit = std::countr_zero(word);
        const NodeId ep = static_cast<NodeId>(w * 64
                                              + static_cast<std::size_t>(bit));
        Injector &inj = injectors_[ep];
        // Begin serialization of queued packets when a class is idle.
        for (int c = 0; c < 2; ++c)
            if (inj.active[c] == kNullPkt && !inj.lanes[c].queue.empty())
                startPacket(inj, c, ep);

        // One flit per cycle per endpoint, alternating classes.
        Router &router = routers_[layout_.routerOf(ep)];
        auto &iport = router.in[localPortOf(ep)];
        for (int k = 0; k < 2; ++k) {
            const int c = (inj.rr_class + k) % 2;
            if (inj.active[c] == kNullPkt)
                continue;
            auto &buf = iport.vcs[inj.vc[c]];
            if (buf.count >= config_.buffer_depth)
                continue; // no room this cycle
            const int total = flitsPerPacket(
                c == 0 ? PacketClass::Meta : PacketClass::Data);
            Flit flit;
            flit.pkt = inj.active[c];
            flit.head = inj.remaining[c] == total;
            flit.tail = inj.remaining[c] == 1;
            flit.ready_at = now + config_.router_cycles;
            buf.push(flit);
            if (flit.ready_at < iport.ready_min)
                iport.ready_min = flit.ready_at;
            ++iport.buffered;
            ++router.buffered_flits;
            activity_.buffer_writes++;
            if (--inj.remaining[c] == 0) {
                inj.active[c] = kNullPkt;
                inj.vc[c] = -1;
            }
            inj.rr_class = (c + 1) % 2;
            break; // one flit per endpoint per cycle
        }
        if (inj.quiet())
            injWake_[w] &= ~(1ull << bit);
      }
    }
}

Cycle
MeshNetwork::nextEventCycle(Cycle now) const
{
    if (packetsInFlight_ == 0 && pendingCredits_ == 0)
        return kNoCycle;
    // Credit events always mature one cycle after the traversal that
    // produced them, so any unapplied credit pins the wake to now + 1
    // without looking further. Likewise a flagged injector (possibly
    // stale — then the next tick clears it) streams one flit per
    // cycle. Both checks are O(1); the router scan below only runs in
    // the sparse case — every packet in flight sitting in a router
    // pipeline — which is exactly where skipping pays.
    if (pendingCredits_ != 0)
        return now + 1;
    for (const std::uint64_t word : injWake_)
        if (word != 0)
            return now + 1;
    Cycle next = kNoCycle;
    // pendingCredits_ == 0 here, so every credit queue is empty: only
    // buffered flits (their ready_at), matured ejections and pending
    // retransmissions can wake the mesh.
    for (const Router &router : routers_) {
        if (router.buffered_flits == 0)
            continue;
        for (const auto &iport : router.in)
            if (iport.buffered != 0 && iport.ready_min < next)
                next = iport.ready_min;
        if (next <= now + 1)
            return now + 1;
    }
    next = std::min({next, nextDue(pending_, now), nextDue(retxQueue_, now)});
    // Defensive: in-flight work must always produce a finite wake.
    return next == kNoCycle ? now + 1 : next;
}

void
MeshNetwork::tick(Cycle now)
{
    // Event-calendar gap accounting: every cycle the scheduler skipped
    // since the previous tick was a mesh no-op by construction
    // (nextEventCycle reports the earliest cycle a tick could do work,
    // and nothing can inject without an executed cycle), so fold the
    // whole gap into the lazy scan_phase replay counter — a no-op tick
    // only rotates the arbitration priority.
    if (now > this->now() + 1)
        idleTicks_ += now - this->now() - 1;
    setNow(now);

    // Idle early-out: with no packet anywhere (injector queues, VC
    // buffers and pending ejections all hold in-flight packets) and no
    // credit event waiting to mature, the full tick body is a no-op
    // except for the scan_phase rotation, which is replayed lazily
    // below so arbitration fairness evolves exactly as if every idle
    // cycle had been simulated.
    if (packetsInFlight_ == 0 && pendingCredits_ == 0) {
        ++idleTicks_;
        return;
    }
    if (idleTicks_ != 0) {
        for (Router &router : routers_) {
            router.scan_phase = static_cast<int>(
                (router.scan_phase + idleTicks_) % router.in.size());
        }
        idleTicks_ = 0;
    }

    // Deliver packets whose tail ejected.
    drainDue(pending_, now, [this](const PendingDelivery &pd) {
        deliver(pkts_[pd.pkt]);
        pkts_.release(pd.pkt);
        --packetsInFlight_;
        return true;
    });

    const int half = config_.num_vcs / 2;

    for (Router &router : routers_) {
        const int num_ports = static_cast<int>(router.in.size());
        // A router with no buffered flit and no credit event has
        // nothing to arbitrate; only its priority rotation advances.
        if (++router.scan_phase >= num_ports)
            router.scan_phase = 0;
        if (router.buffered_flits == 0 && router.credit_queue.empty())
            continue;
        pendingCredits_ -= router.applyCredits();

        // --- Switch allocation: input-first candidate selection ---
        // The scan start rotates every cycle (advanced above, busy or
        // not); a fixed start would give low-numbered ports permanent
        // VA priority and can starve a port indefinitely under
        // saturation.
        for (int pi = 0; pi < num_ports; ++pi) {
            int p = pi + router.scan_phase;
            if (p >= num_ports)
                p -= num_ports;
            auto &iport = router.in[p];
            // ready_min > now means every front flit is still in the
            // router pipeline: the VC scan below would continue at the
            // ready_at check for all of them, so skip the port.
            if (iport.buffered == 0 || iport.ready_min > now)
                continue;
            for (int k = 0; k < config_.num_vcs; ++k) {
                int v = iport.rr + k;
                if (v >= config_.num_vcs)
                    v -= config_.num_vcs;
                auto &vc = iport.vcs[v];
                if (vc.empty())
                    continue;
                Flit &flit = vc.front();
                if (flit.ready_at > now)
                    continue;
                const Packet &fpkt = pkts_[flit.pkt];
                // Route compute for a head flit reaching the front.
                if (flit.head && vc.out_port < 0) {
                    const int dst_router = layout_.routerOf(fpkt.dst);
                    Router &dr = routers_[dst_router];
                    if (dr.id == router.id) {
                        vc.out_port = localPortOf(fpkt.dst);
                    } else {
                        const int hop = nextHop_[
                            static_cast<std::size_t>(dst_router)
                            * routers_.size() + router.id];
                        FSOI_ASSERT(hop >= 0,
                                    "no live route r%d -> r%d",
                                    router.id, dst_router);
                        vc.out_port = hop;
                    }
                }
                FSOI_ASSERT(vc.out_port >= 0 || !flit.head,
                            "body flit without route at router %d",
                            router.id);
                auto &oport = router.out[vc.out_port];
                // VC allocation within the packet's class partition.
                if (vc.out_vc < 0) {
                    const bool is_meta = fpkt.cls == PacketClass::Meta;
                    const int lo = is_meta ? 0 : half;
                    const int hi = is_meta ? half : config_.num_vcs;
                    const int span = hi - lo;
                    for (int j = 0; j < span; ++j) {
                        int rel = oport.rr_vc + j;
                        if (rel >= span)
                            rel -= span;
                        const int cand = lo + rel;
                        if (!oport.vc_busy[cand]) {
                            oport.vc_busy[cand] = 1;
                            oport.rr_vc = rel + 1 == span ? 0 : rel + 1;
                            vc.out_vc = cand;
                            break;
                        }
                    }
                    if (vc.out_vc < 0)
                        continue; // no downstream VC free
                }
                if (!oport.local && oport.credits[vc.out_vc] <= 0)
                    continue; // no buffer space downstream
                router.candidate[p] = v;
                auto &wl = router.want[static_cast<std::size_t>(
                    vc.out_port)];
                wl.ports[wl.count++] = static_cast<std::int8_t>(p);
                break;
            }
        }

        // --- Output arbitration + switch traversal ---
        // Only outputs with contenders are visited; the rotating
        // rr_in priority picks the contender closest (circularly)
        // after the pointer — the same winner the full scan found.
        for (std::size_t o = 0; o < router.out.size(); ++o) {
            auto &wl = router.want[o];
            if (wl.count == 0)
                continue;
            auto &oport = router.out[o];
            const int np = static_cast<int>(router.in.size());
            int winner_port = -1;
            int best = np;
            for (int k = 0; k < wl.count; ++k) {
                const int p = wl.ports[k];
                int d = p - oport.rr_in;
                if (d < 0)
                    d += np;
                if (d < best) {
                    best = d;
                    winner_port = p;
                }
            }
            wl.count = 0;
            activity_.arbitrations++;
            oport.rr_in = winner_port + 1 == np ? 0 : winner_port + 1;
            auto &iport = router.in[winner_port];
            const int v = router.candidate[winner_port];
            auto &vc = iport.vcs[v];
            Flit flit = vc.front();
            vc.pop();
            --iport.buffered;
            --router.buffered_flits;
            iport.recomputeReadyMin();
            iport.rr = v + 1 == config_.num_vcs ? 0 : v + 1;
            activity_.buffer_reads++;
            activity_.crossbar_traversals++;

            const int out_vc = vc.out_vc;
            if (flit.tail) {
                oport.vc_busy[out_vc] = 0;
                vc.out_port = -1;
                vc.out_vc = -1;
            }
            // Return a credit upstream for the freed buffer slot.
            if (iport.up) {
                iport.up->credit_queue.push_back(
                    {iport.up_port, v});
                ++pendingCredits_;
            }
            if (oport.local) {
                if (flit.tail) {
                    if (fault_
                        && fault_->corrupts(
                            static_cast<int>(pkts_[flit.pkt].cls))) {
                        // CRC check at the ejection port failed: the
                        // destination NACKs, and after the NACK's
                        // round trip the source re-injects the whole
                        // packet.
                        retxStats().recordCrcDrop();
                        retxStats().recordRetx();
                        Packet pkt = std::move(pkts_[flit.pkt]);
                        pkts_.release(flit.pkt);
                        pkt.retries += 1;
                        const Cycle rtt = static_cast<Cycle>(
                            2 * (layout_.hopDistance(pkt.src, pkt.dst)
                                 + 1)
                            * (config_.router_cycles
                               + config_.link_cycles));
                        FSOI_TRACE_POINT(TraceCat::Noc, 2, "crc_nack",
                                         now, pkt.dst, {"id", pkt.id},
                                         {"src", pkt.src});
                        retxQueue_.push_back(
                            RetxEvent{now + rtt, std::move(pkt)});
                        continue;
                    }
                    FSOI_TRACE_POINT(TraceCat::Noc, 3, "eject", now,
                                     pkts_[flit.pkt].dst,
                                     {"id", pkts_[flit.pkt].id},
                                     {"router",
                                      static_cast<std::uint64_t>(
                                          router.id)},
                                     {"port",
                                      static_cast<std::uint64_t>(o)});
                    pending_.push_back(
                        {now + static_cast<Cycle>(config_.link_cycles),
                         flit.pkt});
                }
            } else {
                --oport.credits[out_vc];
                FSOI_ASSERT(oport.credits[out_vc] >= 0);
                activity_.link_traversals++;
                linkFlits_[router.id][o]++;
                flit.ready_at = now + config_.link_cycles
                    + config_.router_cycles;
                auto &dport = oport.peer->in[oport.peer_port];
                dport.vcs[out_vc].push(flit);
                if (flit.ready_at < dport.ready_min)
                    dport.ready_min = flit.ready_at;
                ++dport.buffered;
                ++oport.peer->buffered_flits;
                activity_.buffer_writes++;
            }
        }
    }

    // Re-inject NACKed packets whose round trip has elapsed. They go
    // back into the source's lane queue (past the capacity check: the
    // packet is already accounted for in packetsInFlight_).
    drainDue(retxQueue_, now, [&](RetxEvent &ev) {
        Packet &pkt = ev.pkt;
        FSOI_TRACE_POINT(TraceCat::Noc, 2, "retx_inject", now, pkt.src,
                         {"id", pkt.id},
                         {"retries",
                          static_cast<std::uint64_t>(pkt.retries)});
        injWake_[pkt.src >> 6] |= 1ull << (pkt.src & 63);
        injectors_[pkt.src].lanes[static_cast<int>(pkt.cls)]
            .queue.push_back(std::move(pkt));
        return true;
    });

    tickInjection(now);
}

void
MeshNetwork::writeLinkStateJson(std::ostream &os) const
{
    const auto port = [&os](int p) {
        if (p < 0)
            os << "null"; // not routed yet
        else if (p < kFirstLocal)
            os << "\"" << kDirectionNames[p] << "\"";
        else
            os << "\"local" << (p - kFirstLocal) << "\"";
    };
    const auto flag = [](bool b) { return b ? "true" : "false"; };
    os << "{\"packets_in_flight\":" << packetsInFlight_
       << ",\"retx_queued\":" << retxQueue_.size()
       << ",\"routers\":[";
    const char *sep = "";
    for (const Router &router : routers_) {
        if (router.buffered_flits == 0)
            continue;
        os << sep << "{\"id\":" << router.id
           << ",\"buffered_flits\":" << router.buffered_flits
           << ",\"buffered_in\":[";
        const char *isep = "";
        for (std::size_t p = 0; p < router.in.size(); ++p) {
            for (int v = 0; v < config_.num_vcs; ++v) {
                const Router::Vc &vc = router.in[p].vcs[v];
                if (vc.empty())
                    continue;
                // The front flit's packet is what this VC waits on.
                const Flit &f = vc.front();
                const Packet &pkt = pkts_[f.pkt];
                os << isep << "{\"port\":";
                port(static_cast<int>(p));
                os << ",\"vc\":" << v << ",\"flits\":" << vc.count
                   << ",\"front_pkt\":" << pkt.id << ",\"class\":\""
                   << (pkt.cls == PacketClass::Meta ? "meta" : "data")
                   << "\",\"dst\":" << pkt.dst << ",\"head\":"
                   << flag(f.head) << ",\"tail\":" << flag(f.tail)
                   << ",\"ready_at\":" << f.ready_at << ",\"out_port\":";
                port(vc.out_port);
                os << ",\"out_vc\":" << vc.out_vc << "}";
                isep = ",";
            }
        }
        os << "],\"blocked_out\":[";
        const char *bsep = "";
        for (std::size_t o = 0; o < router.out.size(); ++o) {
            const auto &op = router.out[o];
            for (int v = 0; v < config_.num_vcs; ++v) {
                // A busy VC with no credits is where wormhole
                // backpressure originates; report those first.
                if (!op.vc_busy[v])
                    continue;
                os << bsep << "{\"port\":";
                port(static_cast<int>(o));
                os << ",\"vc\":" << v << ",\"credits\":"
                   << (op.local ? -1 : op.credits[v]) << "}";
                bsep = ",";
            }
        }
        os << "]}";
        sep = ",";
    }
    os << "],\"injectors\":[";
    sep = "";
    for (std::size_t ep = 0; ep < injectors_.size(); ++ep) {
        const auto &inj = injectors_[ep];
        if (inj.quiet())
            continue;
        os << sep << "{\"endpoint\":" << ep
           << ",\"queued_meta\":" << inj.lanes[0].queue.size()
           << ",\"queued_data\":" << inj.lanes[1].queue.size()
           << ",\"mid_packet\":"
           << flag(inj.active[0] != kNullPkt || inj.active[1] != kNullPkt)
           << ",\"remaining\":[" << inj.remaining[0] << ","
           << inj.remaining[1] << "],\"vc\":[" << inj.vc[0] << ","
           << inj.vc[1] << "]}";
        sep = ",";
    }
    os << "]}";
}

void
MeshNetwork::serialize(snapshot::Sections &snap, const std::string &prefix)
{
    snapshot::Archive ar = snap.open(prefix);
    serializeBase(ar);
    ar(activity_.buffer_writes, activity_.buffer_reads,
       activity_.crossbar_traversals, activity_.link_traversals,
       activity_.arbitrations);
    ar.fixed(linkFlits_, "mesh geometry");
    ar(pkts_);

    ar.fixed(injectors_, "mesh endpoint count", [&](Injector &inj) {
        for (InjectLane &lane : inj.lanes)
            ar.seq(lane.queue);
        for (int c = 0; c < 2; ++c)
            ar(inj.active[c], inj.remaining[c], inj.vc[c]);
        ar(inj.rr_class);
    });
    ar.seq(pending_, [&](PendingDelivery &pd) { ar(pd.due, pd.pkt); });
    ar.seq(retxQueue_, [&](RetxEvent &ev) { ar(ev.due, ev.pkt); });
    ar(packetsInFlight_, pendingCredits_, idleTicks_);

    for (Router &router : routers_) {
        snapshot::Archive rw = snap.open(
            prefix + ".router[" + std::to_string(router.id) + "]");
        rw(router.scan_phase, router.buffered_flits);
        for (auto &iport : router.in) {
            rw(iport.rr, iport.buffered);
            for (auto &vc : iport.vcs) {
                // The ring is a FIFO: only the live flits in logical
                // order are state; the head index is canonicalized to
                // zero so snapshot bytes don't depend on ring phase.
                rw(vc.count);
                FSOI_ASSERT(vc.count <= static_cast<int>(vc.ring.size()),
                            "VC depth mismatch on restore");
                if (rw.loading())
                    vc.head = 0;
                for (int i = 0; i < vc.count; ++i)
                    rw(vc.ring[vc.slot(i)]);
                rw(vc.out_port, vc.out_vc);
            }
        }
        for (auto &oport : router.out) {
            // Per-VC arrays sized by num_vcs: no count prefix.
            for (int &credit : oport.credits)
                rw(credit);
            for (char &busy : oport.vc_busy)
                rw(busy);
            rw(oport.rr_in, oport.rr_vc);
        }
        rw.seq(router.credit_queue, [&](Router::CreditEvent &ev) {
            rw(ev.port, ev.vc);
        });
    }

    if (!ar.loading())
        return;
    // Rebuild the memoized scan accelerators (never serialized) from
    // the restored state: per-port ready_min and the active-injector
    // bitmap.
    for (Router &router : routers_)
        for (auto &iport : router.in)
            iport.recomputeReadyMin();
    std::fill(injWake_.begin(), injWake_.end(), 0);
    for (std::size_t ep = 0; ep < injectors_.size(); ++ep)
        if (!injectors_[ep].quiet())
            injWake_[ep >> 6] |= 1ull << (ep & 63);
}

bool
MeshNetwork::idle() const
{
    if (packetsInFlight_ != 0)
        return false;
    if (!retxQueue_.empty())
        return false;
    for (const auto &inj : injectors_) {
        if (!inj.quiet())
            return false;
    }
    for (const Router &router : routers_)
        if (!router.empty())
            return false;
    return true;
}

} // namespace fsoi::noc
