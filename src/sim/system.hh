/**
 * @file
 * Top-level chip-multiprocessor assembly: N cores with private L1s, a
 * distributed shared L2 with directory slices (one per tile), memory
 * controllers, and one of five interconnects (mesh baseline, L0 / Lr1 /
 * Lr2 ideals, or the free-space optical interconnect), advanced in
 * lock-step over the populated cycles of an event calendar: the run
 * loop executes a cycle only when some component has work due, and
 * jumps straight across idle stretches (DESIGN.md §5e). One System
 * runs on one thread; sweeps parallelize across Systems (SweepRunner).
 *
 * This is the library's main entry point: configure a SystemConfig,
 * pick an application profile (or bind custom instruction streams),
 * call run(), and read the RunResult.
 */

#ifndef FSOI_SIM_SYSTEM_HH
#define FSOI_SIM_SYSTEM_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/functional_memory.hh"
#include "coherence/l1_cache.hh"
#include "coherence/transport.hh"
#include "cpu/core.hh"
#include "fault/fault_model.hh"
#include "fsoi/fsoi_network.hh"
#include "memory/memory_controller.hh"
#include "noc/ideal_network.hh"
#include "noc/mesh_network.hh"
#include "obs/flight_recorder.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "obs/watchdog.hh"
#include "obs/stat_registry.hh"
#include "sim/calendar.hh"
#include "sim/energy_model.hh"
#include "workload/apps.hh"

namespace fsoi::snapshot { class Sections; }

namespace fsoi::sim {

/** Which interconnect the system uses. */
enum class NetKind : std::uint8_t { Mesh, L0, Lr1, Lr2, Fsoi };

const char *netKindName(NetKind kind);

/** Full system configuration. */
struct SystemConfig
{
    int num_cores = 16;
    int num_memctls = 4;
    NetKind network = NetKind::Mesh;

    noc::MeshConfig mesh;
    fsoi::FsoiConfig fsoi;
    /**
     * Fault injection (dead channels/links, misalignment, BER). All
     * zero by default: no FaultInjector is constructed and every fault
     * hook in the datapaths stays on its null fast path, so a healthy
     * run is bit-identical to a build without the fault layer.
     */
    fault::FaultConfig fault;
    coherence::L1Config l1;
    coherence::DirConfig dir;
    memory::MemConfig mem;          //!< bytes_per_cycle derived below
    cpu::CoreConfig core;
    EnergyParams energy;

    double mem_gbytes_per_sec = 8.8; //!< aggregate off-chip bandwidth
    double freq_ghz = 3.3;

    /** FSOI Section 5.1: confirmations substitute invalidation acks. */
    bool opt_confirmation_ack = false;
    /** FSOI Section 5.1: ll/sc boolean subscription over mini-slots. */
    bool opt_sync_subscription = false;
    /** FSOI Section 5.2: request spacing + collision hints. */
    bool opt_data_collision = false;

    std::uint64_t seed = 1;
    Cycle max_cycles = 100'000'000;
    int local_hop_latency = 1; //!< L1 <-> same-tile directory

    /**
     * A run aborts after progress_stall_limit cycles without a retired
     * instruction. The completion and progress check cadences are
     * internal constants of the event-calendar engine (32 and 16384
     * cycles; see system.cc) — they are pure check alignments with no
     * effect on results, so they are no longer configuration. Neither
     * was ever part of the snapshot config fingerprint, so checkpoints
     * written before this change restore unchanged.
     */
    Cycle progress_stall_limit = 2'000'000;

    /**
     * Observability knobs. The flight recorder keeps the most recent
     * protocol events for post-mortem dumps (0 = off); the profiler
     * samples host wall time per tick phase every profile_stride
     * cycles (power of two, 0 = off; 256 keeps the clock reads under
     * half a percent of run time even where clock_gettime is a
     * syscall). Neither touches simulation state, so results are
     * bit-identical at any setting.
     */
    std::size_t flight_recorder_events = 1024;
    Cycle profile_stride = 256;

    /** Paper defaults for a given scale (16 or 64 cores). */
    static SystemConfig paperConfig(int cores, NetKind kind);
};

/** Everything a finished run reports. */
struct RunResult
{
    bool completed = false; //!< finished before max_cycles
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    // Network latency breakdown (Figure 6a components), in cycles.
    double avg_packet_latency = 0.0;
    double queuing = 0.0;
    double scheduling = 0.0;
    double network = 0.0;
    double collision_resolution = 0.0;

    std::uint64_t packets_delivered = 0;
    double meta_collision_rate = 0.0;
    double data_collision_rate = 0.0;
    double meta_tx_probability = 0.0; //!< per node per slot (Figure 9)
    std::uint64_t data_collisions_by_cat[5] = {0, 0, 0, 0, 0};
    double data_resolution_delay = 0.0;

    double l1_miss_rate = 0.0;
    std::uint64_t invalidations = 0;
    std::uint64_t sync_packets = 0;
    std::uint64_t control_bits = 0;

    EnergyReport energy;
    double avg_power_w = 0.0;

    // --- fault injection (all zero / empty on a healthy run) ---
    std::uint64_t retransmissions = 0;    //!< <net>.retx.packets
    std::uint64_t fault_bit_errors = 0;   //!< CRC-detected corruptions
    std::uint64_t blacklisted_channels = 0;
    std::uint64_t unroutable_drops = 0;
    /**
     * Non-empty when the run ended because the watchdog (or the eager
     * partition check) attributed the wedge to the injected faults; it
     * names the dead channels/links instead of panicking.
     */
    std::string fault_diagnosis;
};

/** A fully assembled simulated CMP. */
class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Bind every core to one thread of the given application. */
    void loadApp(const workload::AppProfile &profile);

    /** Bind a custom stream to one core (alternative to loadApp). */
    void bindStream(NodeId core,
                    std::unique_ptr<workload::InstrStream> stream);

    /** Run to completion (all threads done, system drained). */
    RunResult run();

    // --- component access (tests, benches) ---
    const SystemConfig &config() const { return config_; }
    noc::Network &network() { return *network_; }
    coherence::L1Cache &l1(NodeId node) { return *l1s_.at(node); }
    coherence::Directory &directory(NodeId node) { return *dirs_.at(node); }
    cpu::Core &core(NodeId node) { return *cores_.at(node); }
    memory::MemoryController &memctl(int i) { return *memctls_.at(i); }
    noc::MeshNetwork *meshNetwork() { return meshNet_; }
    fault::FaultInjector *faultInjector() { return fault_.get(); }
    const noc::MeshLayout &layout() const { return layout_; }

    /** Home directory node of a line address. */
    NodeId homeOf(Addr addr) const;
    /** Memory controller endpoint for a line address. */
    NodeId memctlOf(Addr addr) const;

    // --- observability ---

    /**
     * Every component's stats under hierarchical names
     * (system.core3.l1.miss_rate, fsoi.collisions.data, ...).
     */
    obs::StatRegistry &statRegistry() { return registry_; }
    const obs::StatRegistry &statRegistry() const { return registry_; }

    /**
     * Snapshot the registry every @p interval cycles during run(),
     * appending one record per epoch to @p os. Call before run(); the
     * stream must outlive the System.
     */
    void attachSampler(Cycle interval, std::ostream &os,
                       obs::IntervalSampler::Format format =
                           obs::IntervalSampler::Format::Jsonl);

    /** End-of-run reporting through the registry visitor. */
    void writeStatsText(std::ostream &os) const
    { obs::writeText(registry_, os); }
    void writeStatsJson(std::ostream &os) const
    { obs::writeJson(registry_, os); }
    void writeStatsCsv(std::ostream &os) const
    { obs::writeCsv(registry_, os); }

    /** Post-mortem ring of recent protocol events + in-flight misses. */
    obs::FlightRecorder &flightRecorder() { return flightRec_; }
    const obs::FlightRecorder &flightRecorder() const
    { return flightRec_; }

    // --- checkpoint/restore (snapshot/) ---

    /**
     * The full simulation state as snapshot sections, written or read
     * depending on @p snap: a config fingerprint, functional memory,
     * interconnect, fault-injector runtime state, every core / L1 /
     * directory / memory controller (including statistics), and the
     * in-flight local-hop messages — one hash-guarded section per
     * component. Capture point is the top of a cycle (before the
     * network tick). The event calendar and wake bitmaps are never
     * serialized — wake cycles are pure functions of component state,
     * so restore re-seeds them (initScheduler) and the resumed run
     * stays bit-identical to the uninterrupted one.
     *
     * Reading requires a System built from the same configuration,
     * with instruction streams bound (loadApp/bindStream), before
     * run(); a mismatched snapshot throws snapshot::SnapshotError with
     * a named diagnosis. run() then continues from the captured cycle
     * and is bit-identical to the uninterrupted run. Host-side
     * observability (flight recorder, profiler, watchdog baseline)
     * restarts fresh; none of it feeds simulation state.
     */
    void serialize(snapshot::Sections &snap);

    /** The state to a hash-verified file (atomic temp + rename). */
    void saveCheckpoint(const std::string &path) const;

    /** The state from a checkpoint file (see serialize()). */
    void restoreCheckpoint(const std::string &path);

    /**
     * Periodic checkpointing: during run(), write a checkpoint to
     * @p path every @p every cycles (0 disables). Combined with
     * restoreCheckpoint() this makes a killed run resumable.
     */
    void setCheckpoint(std::string path, Cycle every);

  private:
    class LocalTransport;
    friend class LocalTransport;

    /** A same-node message on its local hop (L1 <-> own directory). */
    struct LocalMsg
    {
        Cycle due;
        NodeId dst;
        coherence::Message msg;
    };

    void routeMessage(NodeId dst, const coherence::Message &msg);

    std::vector<std::uint64_t> &
    wakeBits(WakeKind kind)
    {
        return wake_[static_cast<std::size_t>(kind)];
    }

    /** Queue component @p idx of @p kind for this cycle's phase of its
     *  kind (or the next cycle's, once that phase has run). The only
     *  place a component wake bit is set. */
    void
    wake(WakeKind kind, int idx)
    {
        wakeBits(kind)[static_cast<std::size_t>(idx) >> 6] |=
            1ull << (idx & 63);
    }

    /**
     * The re-arm rule after component (@p kind, @p idx) ticked at
     * now_, given its nextEventCycle() @p next: now_ + 1 keeps the
     * wake bit, a later cycle files a calendar entry, kNoCycle sleeps
     * until a delivery wakes it. Returns whether the bit stays set.
     */
    bool rearm(WakeKind kind, int idx, Cycle next);

    /** One controller phase: tick and re-arm every woken component. */
    template <class Component>
    void tickPhase(WakeKind kind,
                   std::vector<std::unique_ptr<Component>> &components);

    /** Run every component phase for cycle now_; @p prof brackets
     *  the phases for the self-profiler. */
    void tickComponents(bool prof);
    /** Reset the wake bitmaps and calendar for run() and seed them
     *  from component state. */
    void initScheduler();
    bool runLoop(obs::Watchdog &watchdog);
    /** Sampler + completion + watchdog tail of one cycle; true = stop
     *  the run loop. Sets @p completed on clean completion. */
    bool cycleEpilogue(obs::Watchdog &watchdog, bool &completed);
    /**
     * The next cycle the run loop must execute: the min over the
     * components' next wake (now_ + 1 while any wake bit is set, else
     * the earliest of the local-hop queue front and the calendar), the
     * interconnect's nextEventCycle(), the sampler's next due epoch,
     * the next periodic-checkpoint multiple, the next progress-check
     * multiple (always — the watchdog must observe the same cadence
     * the tick-every-cycle engine gave it) and, once every core is
     * done, the next completion-check multiple. Clamped to
     * [now_ + 1, max_cycles].
     */
    Cycle nextEpoch() const;
    /**
     * With fault injection active: write the post-mortem, record the
     * diagnosis in faultDiagnosis_ and return (the run ends cleanly).
     * Without it a watchdog trip is a simulator bug and panics.
     */
    void onWatchdogTrip(const obs::Watchdog::Report &report);
    void wireNetworkHandlers();
    void registerStats();
    bool quiescent() const;
    RunResult collectResult(Cycle cycles, bool completed) const;
    /** Section-name prefix the interconnect snapshots under (matches
     *  its stats scope: "mesh", "fsoi", or "net"). */
    const char *netSectionPrefix() const;

    SystemConfig config_;
    noc::MeshLayout layout_;
    coherence::FunctionalMemory funcMem_;

    // The injector must outlive the networks holding views of it.
    std::unique_ptr<fault::FaultInjector> fault_;
    std::string faultDiagnosis_;

    std::unique_ptr<noc::Network> network_;
    fsoi::FsoiNetwork *fsoiNet_ = nullptr; //!< non-owning view
    noc::MeshNetwork *meshNet_ = nullptr;  //!< non-owning view

    std::unique_ptr<LocalTransport> transport_;
    std::vector<std::unique_ptr<coherence::L1Cache>> l1s_;
    std::vector<std::unique_ptr<coherence::Directory>> dirs_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<memory::MemoryController>> memctls_;

    // Scheduler state. One wake bitmap per WakeKind, with one bit per
    // component of that kind (by component number): set = tick in this
    // cycle's phase. The calendar holds every later wake; the local-hop
    // FIFO holds same-node messages in send order.
    std::array<std::vector<std::uint64_t>, kWakeKinds> wake_;
    EventCalendar calendar_;
    std::deque<LocalMsg> localQueue_;
    int coresRunning_ = 0; //!< cores not yet done
    Cycle now_ = 0;
    // host.sched.* telemetry (not simulation state).
    std::uint64_t eventsDispatched_ = 0; //!< component ticks run
    std::uint64_t schedExecuted_ = 0; //!< cycles the loop executed
    std::uint64_t schedSkipped_ = 0;  //!< cycles the calendar skipped

    // Checkpoint/restore runtime state. startCycle_ is where run()'s
    // loop begins (non-zero after a restore); restoredRun_ keeps
    // initScheduler() from wiping the restored local-hop queue.
    std::string checkpointPath_;
    Cycle checkpointEvery_ = 0;
    Cycle startCycle_ = 0;
    bool restoredRun_ = false;

    obs::StatRegistry registry_;
    std::unique_ptr<obs::IntervalSampler> sampler_;
    obs::FlightRecorder flightRec_;
    obs::PhaseProfiler profiler_;
};

} // namespace fsoi::sim

#endif // FSOI_SIM_SYSTEM_HH
