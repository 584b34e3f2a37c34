#include "sim/system.hh"

#include <algorithm>
#include <bit>

#include "analytic/backoff_model.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "obs/crash.hh"
#include "obs/watchdog.hh"

namespace fsoi::sim {

using coherence::Message;
using coherence::MsgType;
using noc::Packet;
using noc::PacketClass;

namespace {

/**
 * Visit every set bit (ascending), calling @p fn with the component
 * index; a false return clears the bit (the component went inactive).
 * fn sets no other bit of the bitmap it is iterating — component ticks
 * wake only *other* component kinds, and rearm() only re-sets the
 * visited component's own, already set bit — so in-place clearing is
 * safe.
 */
template <typename Fn>
inline void
forEachWake(std::vector<std::uint64_t> &words, Fn &&fn)
{
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        while (bits) {
            const int b = std::countr_zero(bits);
            bits &= bits - 1;
            if (!fn(static_cast<int>(w << 6) + b))
                words[w] &= ~(1ull << b);
        }
    }
}

/**
 * Check-cadence constants of the run loop. Both are pure alignments —
 * a completion or progress check never mutates simulation state — so
 * they are not configuration. The progress cadence is an
 * unconditional epoch wake source (the watchdog must sample the
 * instruction/network feeds at the same cycles the tick-every-cycle
 * engine gave it); the completion cadence joins the epoch only once
 * every core is done.
 */
constexpr Cycle kCompletionStride = 32;
constexpr Cycle kProgressStride = 16384;

/**
 * The core counts the model builds: a square mesh of tiles (the
 * layout's grid) of at most 64, the width of the directory's sharer
 * and subscriber masks.
 */
bool
buildableCores(int cores)
{
    for (int side = 2; side <= 8; ++side)
        if (side * side == cores)
            return true;
    return false;
}

/** @p config once its core count is asserted buildable (the layout
 *  it sizes is built next). */
const SystemConfig &
checkedCores(const SystemConfig &config)
{
    FSOI_ASSERT(buildableCores(config.num_cores),
                "cores wants a perfect square from 4 to 64, got %d",
                config.num_cores);
    return config;
}

} // namespace

const char *
netKindName(NetKind kind)
{
    switch (kind) {
      case NetKind::Mesh: return "mesh";
      case NetKind::L0: return "L0";
      case NetKind::Lr1: return "Lr1";
      case NetKind::Lr2: return "Lr2";
      case NetKind::Fsoi: return "FSOI";
    }
    return "?";
}

NetKind
netKindByName(const std::string &name)
{
    if (name == "mesh")
        return NetKind::Mesh;
    if (name == "l0")
        return NetKind::L0;
    if (name == "lr1")
        return NetKind::Lr1;
    if (name == "lr2")
        return NetKind::Lr2;
    if (name == "fsoi")
        return NetKind::Fsoi;
    fatal("unknown network '%s'", name.c_str());
}

SystemConfig
SystemConfig::paperConfig(int cores, NetKind kind)
{
    if (!buildableCores(cores))
        fatal("cores wants a perfect square from 4 to 64, got %d", cores);
    SystemConfig cfg;
    cfg.num_cores = cores;
    cfg.num_memctls = cores <= 16 ? 4 : 8;
    cfg.network = kind;
    if (cores > 16)
        cfg.fsoi.phase_array = true;
    if (kind == NetKind::Fsoi) {
        cfg.opt_confirmation_ack = true;
        cfg.opt_sync_subscription = true;
        cfg.opt_data_collision = true;
    }
    return cfg;
}

/** Transport gluing controllers to the network / local short-circuit. */
class System::LocalTransport : public coherence::Transport
{
  public:
    explicit LocalTransport(System &sys) : sys_(sys) {}

    bool
    trySend(NodeId src, NodeId dst, const Message &msg) override
    {
        if (src == dst) {
            sys_.localQueue_.push_back(LocalMsg{
                sys_.now_
                    + static_cast<Cycle>(sys_.config_.local_hop_latency),
                dst, msg});
            recordSend(src, dst, msg);
            return true;
        }
        const PacketClass cls = coherence::isDataMessage(msg.type)
            ? PacketClass::Data : PacketClass::Meta;
        if (!sys_.network_->canAccept(src, cls)) {
            FSOI_TRACE_POINT(TraceCat::Sim, 3, "send_blocked",
                             sys_.now_, src, {"line", msg.line},
                             {"type",
                              static_cast<std::uint64_t>(msg.type)});
            return false;
        }
        Packet pkt = noc::makePacket(
            src, dst, cls, coherence::packetKindOf(msg.type),
            coherence::canonicalPayload(msg));
        if (!sys_.network_->send(std::move(pkt)))
            return false;
        recordSend(src, dst, msg);
        return true;
    }

  private:
    void
    recordSend(NodeId src, NodeId dst, const Message &msg)
    {
        if (sys_.flightRec_.enabled()) {
            sys_.flightRec_.record(
                obs::FlightEventKind::MsgSend, sys_.now_, src, dst,
                msg.line, static_cast<std::uint8_t>(msg.type));
        }
    }

    System &sys_;
};

System::System(const SystemConfig &config)
    : config_(checkedCores(config)),
      layout_(config.num_cores, config.num_memctls),
      flightRec_(config.flight_recorder_events),
      profiler_(config.profile_stride)
{
    // Derive dependent parameters. freq_hz / 1e9 is exactly 3.3 at
    // the default clock (freq_hz * 1e-9 is not).
    config_.mem.bytes_per_cycle = config_.mem_gbytes_per_sec
        / config_.num_memctls / (config_.energy.freq_hz / 1e9);

    const bool is_fsoi = config_.network == NetKind::Fsoi;
    if (!is_fsoi
        && (config_.opt_confirmation_ack || config_.opt_sync_subscription
            || config_.opt_data_collision)) {
        fatal("FSOI optimizations enabled on a %s interconnect",
              netKindName(config_.network));
    }
    // Home interleaving consumes the low line-address bits; the L2
    // slices must index their sets with the bits above them.
    config_.dir.geometry.index_skip_bits =
        static_cast<std::uint32_t>(std::bit_width(
            static_cast<unsigned>(config_.num_cores) - 1));
    config_.dir.geometry.hash_index = true;

    config_.l1.confirmation_acks = config_.opt_confirmation_ack;
    config_.dir.confirmation_acks = config_.opt_confirmation_ack;
    config_.dir.confirmation_gating = is_fsoi;
    config_.dir.sync_subscription = config_.opt_sync_subscription;
    config_.core.sync_subscription = config_.opt_sync_subscription;
    config_.core.seed = config_.seed;
    config_.fsoi.request_spacing = config_.opt_data_collision;
    config_.fsoi.collision_hints = config_.opt_data_collision;
    config_.fsoi.seed = config_.seed * 0x9e3779b9ULL + 17;

    // A System without faults constructs no injector at all, and the
    // datapaths' null fast paths make the fault layer a true no-op.
    if (config_.fault.enabled()) {
        if (config_.fault.seed == 0)
            config_.fault.seed = config_.seed * 0x9e3779b9ULL + 29;
        fault_ = std::make_unique<fault::FaultInjector>(
            config_.fault,
            fault::FaultTopology{layout_.numEndpoints(),
                                 config_.fsoi.receivers_per_lane,
                                 layout_.side()});
    }

    switch (config_.network) {
      case NetKind::Mesh:
        network_ = std::make_unique<noc::MeshNetwork>(layout_,
                                                      config_.mesh,
                                                      fault_.get());
        meshNet_ = static_cast<noc::MeshNetwork *>(network_.get());
        break;
      case NetKind::L0:
        network_ = std::make_unique<noc::IdealNetwork>(
            layout_, noc::makeL0Config());
        break;
      case NetKind::Lr1:
        network_ = std::make_unique<noc::IdealNetwork>(
            layout_, noc::makeLr1Config());
        break;
      case NetKind::Lr2:
        network_ = std::make_unique<noc::IdealNetwork>(
            layout_, noc::makeLr2Config());
        break;
      case NetKind::Fsoi:
        network_ = std::make_unique<fsoi::FsoiNetwork>(layout_,
                                                       config_.fsoi,
                                                       fault_.get());
        fsoiNet_ = static_cast<fsoi::FsoiNetwork *>(network_.get());
        break;
    }

    transport_ = std::make_unique<LocalTransport>(*this);

    auto home_fn = [this](Addr addr) { return homeOf(addr); };
    auto memctl_fn = [this](Addr addr) { return memctlOf(addr); };

    for (int n = 0; n < config_.num_cores; ++n) {
        const NodeId node = static_cast<NodeId>(n);
        // Every L1 completion is core n's (in-order cores block on
        // each load, ll and sc); it lands during the L1 phase, so the
        // wake queues a sleeping core for this cycle's core phase —
        // exactly the cycle the tick-every-cycle engine re-examined it.
        l1s_.push_back(std::make_unique<coherence::L1Cache>(
            node, config_.l1, *transport_, funcMem_, home_fn,
            [this, n](std::uint64_t value, bool success) {
                cores_[n]->complete(value, success);
                wake(WakeKind::Core, n);
            }));
        dirs_.push_back(std::make_unique<coherence::Directory>(
            node, config_.dir, *transport_, funcMem_, memctl_fn));
        cores_.push_back(std::make_unique<cpu::Core>(
            node, config_.core, *l1s_.back(), *transport_, home_fn));
    }
    for (int m = 0; m < config_.num_memctls; ++m) {
        const NodeId node = static_cast<NodeId>(config_.num_cores + m);
        memctls_.push_back(std::make_unique<memory::MemoryController>(
            node, config_.mem, *transport_));
    }

    // One wake bit per component: num_cores of each tile kind (Dir,
    // L1, Core), num_memctls memory controllers.
    for (auto &words : wake_)
        words.assign(static_cast<std::size_t>(config_.num_cores + 63) / 64,
                     0);
    wakeBits(WakeKind::Mem)
        .assign(static_cast<std::size_t>(config_.num_memctls + 63) / 64, 0);

    wireNetworkHandlers();
    registerStats();

    // Abnormal-exit diagnostics: panics, fatal asserts and signals
    // flush the trace ring and dump this recorder (see obs/crash.hh).
    obs::installCrashHooks();
    flightRec_.setDetailNamer(
        [](obs::FlightEventKind kind,
           std::uint8_t detail) -> const char * {
            switch (kind) {
              case obs::FlightEventKind::MsgSend:
              case obs::FlightEventKind::MsgRecv:
                return coherence::msgTypeName(
                    static_cast<MsgType>(detail));
              case obs::FlightEventKind::MshrAlloc:
                return coherence::L1Cache::wantName(detail);
              case obs::FlightEventKind::MshrFree:
                return coherence::l1StateName(
                    static_cast<coherence::L1State>(detail));
              case obs::FlightEventKind::DirTxnStart:
              case obs::FlightEventKind::DirTxnEnd:
                return coherence::Directory::txnKindName(detail);
            }
            return nullptr;
        });
    // The post-mortem's stuck state is read from the controllers when
    // the dump is taken: every core, and each L1 and directory slice
    // with work outstanding (its MSHRs or transactions).
    flightRec_.setContextWriter([this](std::ostream &os) {
        os << "\"now\":" << now_ << ",\"network\":\""
           << netKindName(config_.network) << "\",\"cores\":[";
        for (int n = 0; n < config_.num_cores; ++n) {
            os << (n ? "," : "");
            cores_[n]->writeJson(os);
        }
        os << "],\"l1s\":[";
        const char *sep = "";
        for (const auto &l1 : l1s_) {
            if (!l1->quiescent()) {
                os << sep;
                l1->writeJson(os, now_);
                sep = ",";
            }
        }
        os << "],\"dirs\":[";
        sep = "";
        for (const auto &dir : dirs_) {
            if (!dir->quiescent()) {
                os << sep;
                dir->writeJson(os);
                sep = ",";
            }
        }
        os << "]";
        if (meshNet_) {
            os << ",\"mesh\":";
            meshNet_->writeLinkStateJson(os);
        }
        if (fsoiNet_) {
            os << ",\"fsoi\":";
            fsoiNet_->writeLaneStateJson(os);
        }
        if (fault_) {
            os << ",\"fault\":";
            fault_->writeJson(os);
        }
    });
    for (auto &l1 : l1s_)
        l1->setFlightRecorder(&flightRec_);
    for (auto &dir : dirs_)
        dir->setFlightRecorder(&flightRec_);
}

System::~System() = default;

void
System::registerStats()
{
    const obs::Scope root(registry_);
    const obs::Scope sys = root.scope("system");
    for (int n = 0; n < config_.num_cores; ++n) {
        const std::string id = std::to_string(n);
        const obs::Scope tile = sys.scope("core" + id);
        cores_[n]->registerStats(tile);
        l1s_[n]->registerStats(tile.scope("l1"));
        dirs_[n]->registerStats(sys.scope("dir" + id));
    }
    for (int m = 0; m < config_.num_memctls; ++m)
        memctls_[m]->registerStats(sys.scope("mem" + std::to_string(m)));

    // The interconnect publishes under its kind so FSOI-only series
    // (fsoi.collisions.data, ...) keep stable names across configs.
    network_->registerStats(root.scope(netSectionPrefix()));

    if (fault_)
        fault_->registerStats(root.scope("fault"));

    // Host-side self-profile: nondeterministic wall-clock data, so it
    // lives under its own top-level prefix that golden-stats diffs
    // ignore (tools/stats_report skips "host." by default).
    const obs::Scope host = root.scope("host");
    profiler_.registerStats(host);

    // Event-calendar telemetry. Also under "host.": the wake schedule
    // is engine bookkeeping (a restored run may execute a slightly
    // different superset of cycles than the uninterrupted one), not
    // simulation state.
    const obs::Scope sched = host.scope("sched");
    sched.derived("events_dispatched", [this] {
        return static_cast<double>(eventsDispatched_);
    });
    sched.derived("cycles_executed", [this] {
        return static_cast<double>(schedExecuted_);
    });
    sched.derived("cycles_skipped", [this] {
        return static_cast<double>(schedSkipped_);
    });

    // Cross-tile aggregates (registry-side, not per-component).
    sys.derived("cycles",
                [this] { return static_cast<double>(now_); });
    sys.derived("instructions", [this] {
        Counter total;
        for (const auto &core : cores_)
            total += core->stats().instructions;
        return static_cast<double>(total.value());
    });
    sys.derived("l1.miss_rate", [this] {
        Counter loads, stores, misses;
        for (const auto &l1 : l1s_) {
            loads += l1->stats().loads;
            stores += l1->stats().stores;
            misses += l1->stats().misses;
        }
        const auto accesses = loads.value() + stores.value();
        return accesses
            ? static_cast<double>(misses.value()) / accesses : 0.0;
    });
    sys.derived("invalidations", [this] {
        Counter total;
        for (const auto &l1 : l1s_)
            total += l1->stats().invalidations_received;
        return static_cast<double>(total.value());
    });
}

void
System::attachSampler(Cycle interval, std::ostream &os,
                      obs::IntervalSampler::Format format)
{
    sampler_ = std::make_unique<obs::IntervalSampler>(registry_, interval,
                                                      os, format);
}

NodeId
System::homeOf(Addr addr) const
{
    const Addr line = addr / config_.l1.geometry.line_bytes;
    return static_cast<NodeId>(line % config_.num_cores);
}

NodeId
System::memctlOf(Addr addr) const
{
    const Addr line = addr / config_.l1.geometry.line_bytes;
    return static_cast<NodeId>(config_.num_cores
                               + line % config_.num_memctls);
}

void
System::routeMessage(NodeId dst, const Message &msg)
{
    if (flightRec_.enabled()) {
        flightRec_.record(obs::FlightEventKind::MsgRecv, now_, dst,
                          msg.requester, msg.line,
                          static_cast<std::uint8_t>(msg.type));
    }
    // Deliveries happen before the target's own phase in the cycle,
    // when the old tick-everything loop had last stamped component
    // clocks at now-1; sync the sleeping target to that same cycle so
    // handleMessage sees the clock it always saw. The wake bit queues
    // the target for ticking from here on (until it idles again).
    const Cycle sync = now_ ? now_ - 1 : 0;
    if (static_cast<int>(dst) >= config_.num_cores) {
        const int m = static_cast<int>(dst) - config_.num_cores;
        memctls_[m]->syncClock(sync);
        memctls_[m]->handleMessage(msg);
        wake(WakeKind::Mem, m);
        return;
    }
    switch (coherence::msgTypeInfo(msg.type).receiver) {
      case coherence::Controller::Directory:
        FSOI_TRACE_POINT(TraceCat::Sim, 3, "route_to_dir", now_, dst,
                         {"line", msg.line},
                         {"type", static_cast<std::uint64_t>(msg.type)},
                         {"from", msg.requester});
        dirs_[dst]->syncClock(sync);
        dirs_[dst]->handleMessage(msg);
        wake(WakeKind::Dir, static_cast<int>(dst));
        return;
      case coherence::Controller::L1:
        l1s_[dst]->syncClock(sync);
        l1s_[dst]->handleMessage(msg);
        wake(WakeKind::L1, static_cast<int>(dst));
        return;
      case coherence::Controller::None:
        break;
    }
    panic("unroutable message %s to node %u", msgTypeName(msg.type), dst);
}

void
System::wireNetworkHandlers()
{
    for (int ep = 0; ep < layout_.numEndpoints(); ++ep) {
        const NodeId node = static_cast<NodeId>(ep);
        network_->setHandler(node, [this, node](Packet &pkt) {
            routeMessage(node, pkt.payloadAs<Message>());
        });
    }
    if (!fsoiNet_)
        return;
    for (int n = 0; n < config_.num_cores; ++n) {
        const NodeId node = static_cast<NodeId>(n);
        // Confirmations go back to the *sender*; only the directory
        // cares (per-line gating + confirmation-as-ack).
        fsoiNet_->setConfirmHandler(node, [this, node](const Packet &pkt) {
            // Same clock contract as routeMessage: confirmations land
            // during the network tick, before the directory's phase.
            dirs_[node]->syncClock(now_ ? now_ - 1 : 0);
            dirs_[node]->onConfirm(pkt.payloadAs<Message>());
            wake(WakeKind::Dir, static_cast<int>(node));
        });
        // Wake unconditionally, matching the tick-every-cycle engine:
        // a spinning core re-examined its subscription values on every
        // delivery, direct or not, so even a "useless" bit must
        // trigger a (no-op) tick.
        fsoiNet_->setControlBitHandler(
            node, [this, n](NodeId, std::uint64_t tag) {
                cores_[n]->onControlBit(tag);
                wake(WakeKind::Core, n);
            });
        dirs_[n]->setControlBitSender(
            [this, node](NodeId dst, std::uint64_t tag) {
                fsoiNet_->sendControlBit(node, dst, tag);
            });
    }
    for (int m = 0; m < config_.num_memctls; ++m) {
        const NodeId node = static_cast<NodeId>(config_.num_cores + m);
        fsoiNet_->setConfirmHandler(node, [](const Packet &) {});
        fsoiNet_->setControlBitHandler(node,
                                       [](NodeId, std::uint64_t) {});
    }
}

void
System::loadApp(const workload::AppProfile &profile)
{
    for (int n = 0; n < config_.num_cores; ++n) {
        cores_[n]->bind(workload::makeAppStream(
            profile, n, config_.num_cores, config_.seed));
    }
}

void
System::bindStream(NodeId core,
                   std::unique_ptr<workload::InstrStream> stream)
{
    cores_.at(core)->bind(std::move(stream));
}

bool
System::quiescent() const
{
    if (!network_->idle() || !localQueue_.empty())
        return false;
    for (const auto &l1 : l1s_)
        if (!l1->quiescent())
            return false;
    for (const auto &dir : dirs_)
        if (!dir->quiescent())
            return false;
    for (const auto &mem : memctls_)
        if (!mem->quiescent())
            return false;
    return true;
}

RunResult
System::run()
{
    // A mesh partitioned by dead links can never satisfy every miss;
    // diagnose that up front instead of simulating into a guaranteed
    // wedge (and instead of a watchdog deadlock panic).
    if (fault_ && meshNet_ && !meshNet_->fullyConnected()) {
        faultDiagnosis_ = "partitioned mesh (unreachable routers): "
            + fault_->diagnose();
        warn("%s", faultDiagnosis_.c_str());
        return collectResult(0, false);
    }

    obs::Watchdog::Config wd_config{config_.progress_stall_limit, 0};
    if (fault_) {
        // Healthy retransmission bursts may hold the instruction feed
        // flat for the full bounded-backoff budget of every packet a
        // lane can queue; stretch the watchdog's window by that much
        // so retry traffic is not misread as a livelock storm.
        analytic::BackoffParams bp;
        bp.window = config_.fsoi.backoff_window;
        bp.base = config_.fsoi.backoff_base;
        bp.confirmation_delay = config_.fsoi.confirmation_delay;
        int queue_depth = config_.fsoi.queue_capacity;
        if (fsoiNet_) {
            bp.slot_cycles = fsoiNet_->slotCycles(PacketClass::Data);
        } else {
            // Mesh NACK round trip across the diameter plays the role
            // of the retry slot.
            bp.slot_cycles = 2 * 2 * (layout_.side() - 1)
                * (config_.mesh.router_cycles + config_.mesh.link_cycles);
            queue_depth = config_.mesh.inject_queue_capacity;
        }
        bp.slot_cycles = std::max(bp.slot_cycles, 1);
        wd_config.retry_grace =
            analytic::boundedResolutionBudget(bp, config_.fault.max_retx)
            * static_cast<Cycle>(queue_depth);
    }
    obs::Watchdog watchdog(wd_config);
    initScheduler();
    const bool completed = runLoop(watchdog);

    if (!completed && faultDiagnosis_.empty())
        warn("run hit max_cycles=%llu before completing",
             static_cast<unsigned long long>(config_.max_cycles));

    // Cores asleep when the run ends still owe active/stall time for
    // the skipped tail; account through the last cycle the
    // tick-every-cycle engine would have executed.
    const Cycle last = now_ < config_.max_cycles
        ? now_
        : (config_.max_cycles ? config_.max_cycles - 1 : 0);
    for (auto &core : cores_)
        core->syncStats(last);

    if (sampler_)
        sampler_->finish(now_);
    return collectResult(now_, completed);
}

void
System::initScheduler()
{
    for (auto &words : wake_)
        std::fill(words.begin(), words.end(), 0);
    calendar_.reset(startCycle_);
    eventsDispatched_ = 0;
    coresRunning_ = 0;
    // A restored run resumes with the snapshot's in-flight local
    // messages; a fresh run starts empty either way.
    if (!restoredRun_)
        localQueue_.clear();

    // Seed the scheduler from component state. The calendar and
    // bitmaps are never serialized: every component with pending work
    // (and every unfinished core) is woken once at the start cycle,
    // and its first tick re-arms an exact wake through
    // nextEventCycle(). A wake the uninterrupted run would not have
    // executed is a harmless spurious tick — the cycle is one the
    // tick-every-cycle engine executed anyway, and a tick at a cycle
    // with nothing due has no observable effect (cores fold the
    // skipped span in through catchUp either way).
    for (int n = 0; n < config_.num_cores; ++n) {
        if (!cores_[n]->done()) {
            ++coresRunning_;
            wake(WakeKind::Core, n);
        }
        if (dirs_[n]->active())
            wake(WakeKind::Dir, n);
        if (!l1s_[n]->quiescent())
            wake(WakeKind::L1, n);
    }
    for (int m = 0; m < config_.num_memctls; ++m) {
        if (!memctls_[m]->quiescent())
            wake(WakeKind::Mem, m);
    }
    schedExecuted_ = 0;
    schedSkipped_ = 0;
}

/**
 * The re-arm rule is what keeps the calendar exact: a component that
 * reports now_ + 1 keeps its wake bit (the common back-to-back case
 * pays no calendar traffic). A woken component that was satisfied
 * through another path first just no-op-ticks once — a tick at a cycle
 * with nothing due was what the tick-every-cycle engine did anyway.
 */
bool
System::rearm(WakeKind kind, int idx, Cycle next)
{
    if (next == now_ + 1) {
        wake(kind, idx);
        return true;
    }
    if (next != kNoCycle)
        calendar_.schedule(next, kind, static_cast<std::uint32_t>(idx));
    return false;
}

template <class Component>
void
System::tickPhase(WakeKind kind,
                  std::vector<std::unique_ptr<Component>> &components)
{
    forEachWake(wakeBits(kind), [&](int i) {
        ++eventsDispatched_;
        Component &c = *components[i];
        c.tick(now_);
        return rearm(kind, i, c.nextEventCycle(now_));
    });
}

/**
 * All component phases for cycle now_: local-hop routing, memory
 * controllers, directories, L1s, cores. Only components with a set
 * wake bit — woken by a delivery, a matured calendar entry, or their
 * own lingering next-cycle work — are visited at all, so a quiescent
 * tile costs zero, not even a clock refresh (deliveries re-sync on
 * demand; see routeMessage). Every tick ends in rearm().
 */
void
System::tickComponents(bool prof)
{
    // Calendar wakes that matured in (last executed cycle, now_]
    // become wake bits for the phases below.
    calendar_.popDue(now_, [this](WakeKind kind, std::uint32_t idx) {
        wake(kind, static_cast<int>(idx));
    });
    if (prof)
        profiler_.endPhase(obs::TickPhase::Sched);

    while (!localQueue_.empty() && localQueue_.front().due <= now_) {
        LocalMsg msg = std::move(localQueue_.front());
        localQueue_.pop_front();
        routeMessage(msg.dst, msg.msg);
    }
    if (prof)
        profiler_.endPhase(obs::TickPhase::LocalRoute);

    tickPhase(WakeKind::Mem, memctls_);
    if (prof)
        profiler_.endPhase(obs::TickPhase::Memory);
    tickPhase(WakeKind::Dir, dirs_);
    if (prof)
        profiler_.endPhase(obs::TickPhase::Directory);
    tickPhase(WakeKind::L1, l1s_);
    if (prof)
        profiler_.endPhase(obs::TickPhase::L1);

    // Cores tick when woken (issue activity, a matured pause/compute
    // span, an L1 completion or a control bit). A core drives its L1
    // synchronously, so the L1's clock must read now_ during the
    // core's tick, and any work the access left behind re-arms the L1
    // for its next phase or a future cycle.
    forEachWake(wakeBits(WakeKind::Core), [this](int n) {
        cpu::Core &core = *cores_[n];
        if (core.done())
            return false; // stray wake (late control bit)
        ++eventsDispatched_;
        l1s_[n]->syncClock(now_);
        core.tick(now_);
        rearm(WakeKind::L1, n, l1s_[n]->nextEventCycle(now_));
        if (core.done()) {
            --coresRunning_;
            return false;
        }
        return rearm(WakeKind::Core, n, core.nextEventCycle(now_));
    });
    if (prof)
        profiler_.endPhase(obs::TickPhase::Core);
}

bool
System::cycleEpilogue(obs::Watchdog &watchdog, bool &completed)
{
    if (sampler_ && now_ >= sampler_->nextDue()) {
        // Cores asleep across the sample point have unaccounted
        // active/stall spans; fold them in so the sampled series match
        // the tick-every-cycle engine's cycle for cycle.
        for (auto &core : cores_)
            core->syncStats(now_);
        sampler_->sample(now_);
    }

    if ((now_ & (kCompletionStride - 1)) != 0)
        return false;

    // The quiescent() scan is the authoritative completion check: it
    // reads true component state, so stale wake bits or calendar
    // entries can never hold completion open or declare it early.
    if (coresRunning_ == 0 && quiescent()) {
        completed = true;
        return true;
    }

    if ((now_ & (kProgressStride - 1)) == 0) {
        std::uint64_t instr = 0;
        for (const auto &core : cores_)
            instr += core->stats().instructions.value();
        // The network feed counts deliveries *and* attempts, so a
        // retry/NACK storm that never delivers still reads as
        // network motion — that is exactly the livelock signature.
        const auto &net = network_->stats();
        const std::uint64_t net_events = net.deliveredTotal()
            + net.attempts(PacketClass::Meta)
            + net.attempts(PacketClass::Data);
        const obs::Watchdog::Report report =
            watchdog.check(now_, instr, net_events);
        if (report.verdict != obs::WatchdogVerdict::Ok) {
            // Panics without fault injection; with it, records the
            // diagnosis and lets the run end as a diagnosed fault.
            onWatchdogTrip(report);
            return true;
        }
    }
    return false;
}

Cycle
System::nextEpoch() const
{
    std::uint64_t bits = 0;
    for (const auto &words : wake_)
        for (const std::uint64_t w : words)
            bits |= w;
    Cycle next = bits ? now_ + 1 : config_.max_cycles;
    // Local-hop dues are monotone (constant latency FIFO), so the
    // front is the earliest.
    if (!localQueue_.empty())
        next = std::min(next, std::max(localQueue_.front().due, now_ + 1));
    next = std::min(next, calendar_.nextEventCycle());
    next = std::min(next, network_->nextEventCycle(now_));
    if (sampler_)
        next = std::min(next, std::max(sampler_->nextDue(), now_ + 1));
    if (checkpointEvery_ != 0) {
        next = std::min(
            next, now_ + checkpointEvery_ - now_ % checkpointEvery_);
    }
    next = std::min(next, (now_ | (kProgressStride - 1)) + 1);
    if (coresRunning_ == 0)
        next = std::min(next, (now_ | (kCompletionStride - 1)) + 1);
    return std::max(next, now_ + 1);
}

bool
System::runLoop(obs::Watchdog &watchdog)
{
    bool completed = false;

    now_ = startCycle_;
    while (now_ < config_.max_cycles) {
        if (checkpointEvery_ != 0 && now_ != startCycle_
            && now_ % checkpointEvery_ == 0) {
            // Canonical capture: core clocks/stats synced through the
            // previous cycle, exactly as the tick-every-cycle engine
            // left them at the top of a cycle (and as run() leaves
            // them for a direct end-of-run save). Exact for the
            // continuing run — catch-up spans compose.
            for (auto &core : cores_)
                core->syncStats(now_ - 1);
            saveCheckpoint(checkpointPath_);
        }

        // Self-profiling brackets each phase with a clock read on
        // sampled cycles only; `prof` is hoisted so unsampled cycles
        // pay a single branch per phase.
        const bool prof = profiler_.due(now_);
        if (prof)
            profiler_.beginCycle();

        network_->tick(now_);
        if (prof)
            profiler_.endPhase(obs::TickPhase::Network);

        tickComponents(prof);
        ++schedExecuted_;

        const Cycle next = nextEpoch();
        if (prof)
            profiler_.endPhase(obs::TickPhase::Sched);

        if (cycleEpilogue(watchdog, completed))
            break;

        schedSkipped_ += next - now_ - 1;
        now_ = next;
    }
    return completed;
}

/**
 * Watchdog trip: append this System's flight-recorder post-mortem
 * (recent protocol events, every core, stuck MSHRs and directory
 * transactions, network and fault state) at the trip cycle, then act on
 * the verdict that distinguishes deadlock (network quiet too) from
 * livelock (packets still moving while no instruction retires). With
 * fault injection active the wedge is the *expected* consequence of
 * the schedule, so instead of aborting the trip becomes a
 * diagnosed-fault report naming the dead channels/links, and run()
 * ends normally. Either message names the dump file; the trip reads no
 * other System, and the panic's crash hooks do not write this one again.
 */
void
System::onWatchdogTrip(const obs::Watchdog::Report &report)
{
    const char *verdict = obs::watchdogVerdictName(report.verdict);
    const std::string reason =
        std::string(fault_ ? "fault:" : "watchdog:") + verdict;
    const std::string path = obs::flightDumpPath();
    const char *dump =
        flightRec_.appendDump(path, reason.c_str(), now_) ? path.c_str()
                                                           : "not written";

    if (fault_) {
        faultDiagnosis_ = std::string(verdict)
            + " attributed to injected faults: " + fault_->diagnose();
        warn("%s (no instruction retired for %llu cycles at cycle %llu; "
             "flight dump: %s)",
             faultDiagnosis_.c_str(),
             static_cast<unsigned long long>(report.stalled_for),
             static_cast<unsigned long long>(now_), dump);
        return;
    }

    std::size_t misses = 0, txns = 0;
    for (const auto &l1 : l1s_)
        misses += l1->outstandingMisses();
    for (const auto &dir : dirs_)
        txns += dir->quiescent() ? 0 : 1;
    panic("%s: no instruction retired for %llu cycles at cycle %llu "
          "(network %s for %llu cycles; %zu outstanding misses, "
          "%zu busy directories; flight dump: %s)",
          verdict, static_cast<unsigned long long>(report.stalled_for),
          static_cast<unsigned long long>(now_),
          report.verdict == obs::WatchdogVerdict::Livelock ? "active"
                                                           : "quiet",
          static_cast<unsigned long long>(report.net_quiet_for), misses,
          txns, dump);
}

RunResult
System::collectResult(Cycle cycles, bool completed) const
{
    RunResult res;
    res.completed = completed;
    res.cycles = std::max<Cycle>(cycles, 1);

    const auto &net_stats = network_->stats();
    res.avg_packet_latency = net_stats.totalLatency().mean();
    res.queuing = net_stats.queuing().mean();
    res.scheduling = net_stats.scheduling().mean();
    res.network = net_stats.network().mean();
    res.collision_resolution = net_stats.collisionResolution().mean();
    res.packets_delivered = net_stats.deliveredTotal();
    res.meta_collision_rate = net_stats.collisionRate(PacketClass::Meta);
    res.data_collision_rate = net_stats.collisionRate(PacketClass::Data);

    ActivitySummary activity;
    activity.cycles = res.cycles;
    activity.nodes = config_.num_cores;

    Counter loads, stores, misses, invalidations, l1_accesses;
    for (const auto &l1 : l1s_) {
        const auto &s = l1->stats();
        loads += s.loads;
        stores += s.stores;
        misses += s.misses;
        l1_accesses += s.l1_accesses;
        invalidations += s.invalidations_received;
    }
    res.invalidations = invalidations.value();
    activity.l1_accesses += l1_accesses.value();
    const auto accesses = loads.value() + stores.value();
    res.l1_miss_rate = accesses
        ? static_cast<double>(misses.value()) / accesses : 0.0;

    Counter instructions, active, stalls, sync_packets;
    for (const auto &core : cores_) {
        const auto &s = core->stats();
        instructions += s.instructions;
        active += s.active_cycles;
        stalls += s.stall_cycles;
        sync_packets += s.sync_packets;
    }
    res.instructions = instructions.value();
    res.sync_packets = sync_packets.value();
    activity.active_cycles += active.value();
    activity.stall_cycles += stalls.value();
    res.ipc = static_cast<double>(res.instructions) / res.cycles;

    Counter l2_accesses, mem_accesses;
    for (const auto &dir : dirs_)
        l2_accesses += dir->stats().l2_accesses;
    for (const auto &mem : memctls_) {
        mem_accesses += mem->stats().reads;
        mem_accesses += mem->stats().writes;
    }
    activity.l2_accesses += l2_accesses.value();
    activity.mem_accesses += mem_accesses.value();

    if (meshNet_) {
        activity.mesh = &meshNet_->activity();
        activity.routers = layout_.side() * layout_.side();
    } else if (fsoiNet_) {
        activity.fsoi = &fsoiNet_->activity();
        res.meta_tx_probability =
            fsoiNet_->transmissionProbability(PacketClass::Meta);
        for (int c = 0; c < 5; ++c) {
            res.data_collisions_by_cat[c] = fsoiNet_->dataCollisionEvents(
                static_cast<fsoi::CollisionCategory>(c));
        }
        res.data_resolution_delay = fsoiNet_->meanDataResolutionDelay();
        res.control_bits = fsoiNet_->activity().control_bits.value();
    }
    res.retransmissions = network_->retxStats().packets();
    res.fault_diagnosis = faultDiagnosis_;
    if (fault_) {
        res.fault_bit_errors = fault_->bitErrors();
        res.blacklisted_channels = fault_->blacklists();
        res.unroutable_drops = fault_->unroutableDrops();
    }

    res.energy = computeEnergy(config_.energy, activity);
    res.avg_power_w = res.energy.averagePower(
        res.cycles, config_.energy.freq_hz);
    return res;
}

} // namespace fsoi::sim
