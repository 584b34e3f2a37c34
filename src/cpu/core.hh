/**
 * @file
 * In-order core model.
 *
 * Executes the workload's coarse-grained instruction stream: compute
 * bursts at IPC 1, blocking loads, store-buffer stores, and
 * synchronization macro-ops expanded into ll/sc spin sequences
 * (test-and-test-and-set locks, sense-reversing barriers with ll/sc
 * fetch-and-increment).
 *
 * With the FSOI subscription optimization enabled (Section 5.1),
 * synchronization words bypass the cache hierarchy entirely: ll/sc
 * travel as SyncLl/SyncSc meta packets to the home directory, replies
 * and spin values arrive over the confirmation lane's reserved
 * mini-slots, and spinning consumes no network traffic at all.
 */

#ifndef FSOI_CPU_CORE_HH
#define FSOI_CPU_CORE_HH

#include <functional>
#include <memory>
#include <ostream>
#include <unordered_map>

#include "coherence/l1_cache.hh"
#include "common/rng.hh"
#include "coherence/transport.hh"
#include "common/stats.hh"
#include "workload/instr.hh"

namespace fsoi::snapshot { class Archive; }

namespace fsoi::cpu {

/** Core configuration. */
struct CoreConfig
{
    int spin_delay = 3; //!< cycles between spin-loop reload attempts
    /**
     * Maximum random pause before retrying a failed sc. Deterministic
     * simulation otherwise sustains perfectly periodic ll/sc livelock
     * between symmetric contenders; real systems break the symmetry
     * through timing noise.
     */
    int sc_backoff = 15;
    std::uint64_t seed = 1; //!< per-core RNG stream seed
    /** Route sync ops through the directory update protocol (FSOI). */
    bool sync_subscription = false;
};

/** Per-core statistics. */
struct CoreStats
{
    Counter instructions; //!< committed (compute cycles + mem + sync ops)
    Counter loads;
    Counter stores;
    Counter locks_acquired;
    Counter barriers_passed;
    Counter spin_loops;
    Counter stall_cycles;  //!< cycles blocked on memory
    Counter active_cycles; //!< cycles doing compute work
    Counter sync_packets;  //!< SyncLl/SyncSc messages sent
};

/** One in-order core. */
class Core
{
  public:
    Core(NodeId node, const CoreConfig &config, coherence::L1Cache &l1,
         coherence::Transport &transport,
         std::function<NodeId(Addr)> home_of);

    NodeId node() const { return node_; }
    const CoreStats &stats() const { return stats_; }

    /** Publish this core's stats under @p scope (e.g. core3). */
    void registerStats(const obs::Scope &scope) const;

    /** Attach the thread's instruction stream (before the first tick). */
    void bind(std::unique_ptr<workload::InstrStream> stream);

    void tick(Cycle now);

    bool done() const { return mode_ == Mode::Done; }

    /**
     * Event-calendar contract: the next cycle this core must tick, or
     * kNoCycle for "only on delivery" (the System wakes a waiting core
     * when it delivers an L1 completion or a control bit). Always a
     * pure function of core state, so the scheduler can drop and
     * recompute it at will; a tick earlier than the reported cycle is
     * harmless (catchUp() keeps the cycle accounting exact).
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Bring the stall/active cycle counters up to date through cycle
     * @p now without running a tick — the per-cycle accounting a
     * sleeping core would have accumulated had it been ticked every
     * cycle. Used by the interval sampler so mid-run snapshots of the
     * stat registry match the tick-every-cycle engine exactly.
     */
    void syncStats(Cycle now);

    /**
     * L1 completion of this core's outstanding load, ll or sc (the
     * System routes the L1's completion handler here). Latches all
     * three rendezvous fields: each waiting mode reads only the ones
     * its operation defines.
     */
    void
    complete(std::uint64_t value, bool success)
    {
        cbArrived_ = true;
        cbValue_ = value;
        cbSuccess_ = success;
    }

    /** Subscription side-channel delivery (wired up by the System). */
    void onControlBit(std::uint64_t tag);

    /** This core's post-mortem as one JSON object (mode and op by
     *  enumerator number); the flight recorder's context writer. */
    void writeJson(std::ostream &os) const;

    /**
     * Checkpoint/restore (snapshot/serialize.hh). The instruction
     * stream describes itself (InstrStream::serialize); the
     * barrier-sense and subscription tables are written sorted by key
     * so snapshot bytes never depend on hash-table iteration order.
     */
    void serialize(snapshot::Archive &ar);

  private:
    enum class Mode : std::uint8_t
    {
        Fetch,
        Compute,
        LoadIssue,
        LoadWait,
        StoreIssue,
        // Lock acquire (normal mode).
        LockLl,
        LockLlWait,
        LockSc,
        LockScWait,
        LockSpinLoad,
        LockSpinWait,
        LockSpinPause,
        LockRetryPause,
        UnlockStore,
        // Barrier (normal mode).
        BarLl,
        BarLlWait,
        BarSc,
        BarScWait,
        BarResetStore,
        BarReleaseStore,
        BarSpinLoad,
        BarSpinWait,
        BarSpinPause,
        BarRetryPause,
        // Subscription-mode synchronization.
        SubLlSend,
        SubLlWait,
        SubScSend,
        SubScWait,
        SubSpin,
        SubStoreSend,
        SubStoreWait,
        Done, //!< last: sizes the mode table (waitOf())
    };

    /**
     * What a mode waits for. The mode table (waitOf()) is the one
     * description of it that the tick guard, the wake contract
     * (nextEventCycle()) and the skipped-cycle accounting (catchUp(),
     * syncStats()) read.
     */
    enum class Wait : std::uint8_t
    {
        Issue,   //!< fetch, issue and send steps: every cycle
        Compute, //!< until busyUntil_, accruing active cycles
        Pause,   //!< spin or sc-backoff pause until busyUntil_
        L1,      //!< an L1 completion (complete()), accruing stalls
        Reply,   //!< a direct sync reply (onControlBit()), accruing stalls
        SubSpin, //!< the wanted value in the subscription table
        Done,    //!< forever
    };

    static Wait waitOf(Mode mode);
    /** A timed wait sleeps until busyUntil_; the others until a
     *  delivery (or forever). */
    static bool timed(Wait wait)
    { return wait == Wait::Compute || wait == Wait::Pause; }
    /** Whether a mode waiting for @p wait may move at cycle @p now. */
    bool waitOver(Wait wait, Cycle now) const;
    /** The counter @p wait accrues for each cycle it lasts, or null. */
    Counter *waitCounter(Wait wait);
    /** Account cycle @p now of a wait; true while the wait lasts. */
    bool accrue(Wait wait, Cycle now);

    void fetch(Cycle now);
    void startInstr(Cycle now);
    bool sendSync(coherence::MsgType type, Addr word, std::uint64_t value,
                  bool subscribe, bool unconditional);
    void catchUp(Cycle now);
    bool subSpinSatisfied() const;

    /**
     * An L1 issue step: @p accepted is the L1's answer to the access
     * just made. Wait for its completion in @p wait, or retry next
     * cycle. Clearing the rendezvous after the access is safe: the L1
     * completes accesses only from its own tick().
     */
    void issue(bool accepted, Mode wait);
    /** A failed sc: a random pause that doubles per consecutive
     *  failure (up to 2^8 x sc_backoff), then @p pause's exit. */
    void backoff(Cycle now, Mode pause);
    /** Commit the current instruction and fetch the next. */
    void retire();
    /** Count the barrier passed and retire it. */
    void passBarrier();

    NodeId node_;
    CoreConfig config_;
    coherence::L1Cache &l1_;
    coherence::Transport &transport_;
    std::function<NodeId(Addr)> homeOf_;
    std::unique_ptr<workload::InstrStream> stream_;
    Rng rng_;

    Mode mode_ = Mode::Fetch;
    workload::Instr instr_{};
    Cycle busyUntil_ = 0;
    Cycle now_ = 0;

    // L1 completion rendezvous (complete()).
    bool cbArrived_ = false;
    std::uint64_t cbValue_ = 0;
    bool cbSuccess_ = false;

    // Barrier bookkeeping.
    std::unordered_map<Addr, std::uint64_t> senses_; //!< per barrier addr
    std::uint64_t mySense_ = 0;
    std::uint64_t llValue_ = 0;

    // Subscription side-channel state.
    bool subWaitingDirect_ = false;
    Addr subWaitWord_ = 0;
    bool subDirectArrived_ = false;
    std::uint64_t subDirectValue_ = 0;
    bool subDirectSuccess_ = false;
    std::unordered_map<Addr, std::uint64_t> subValues_;

    // Subscription-mode sequencing within a macro-op.
    int syncStep_ = 0;
    int scFails_ = 0; //!< consecutive sc failures (backoff doubling)

    CoreStats stats_;
};

} // namespace fsoi::cpu

#endif // FSOI_CPU_CORE_HH
