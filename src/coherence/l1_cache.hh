/**
 * @file
 * L1 data-cache controller: the MESI state machine of Table 2 (upper
 * half) with the transient states I.SD, I.MD and S.MA realized as MSHR
 * bookkeeping.
 *
 * The core issues loads, stores and ll/sc operations; misses allocate
 * MSHRs and complete when the directory's response arrives. Every
 * load, ll and sc completes through the one completion handler the
 * controller receives at construction: the in-order core blocks on each
 * of them, so all pending completions belong to the core that owns this
 * L1. Stores drain through a store buffer so the in-order core only
 * stalls when the buffer fills.
 *
 * Race handling over unordered networks: an Inv or Dwg that arrives
 * while a Data response is still in flight (possible in the mesh, where
 * meta and data packets ride different virtual channels) is remembered
 * on the MSHR and acknowledged right after the data is consumed once --
 * the standard read-once resolution, equivalent to Table 2's
 * InvAck/I.SD entries under point-to-point ordering. In FSOI mode the
 * directory's per-line confirmation gating makes this path unreachable.
 */

#ifndef FSOI_COHERENCE_L1_CACHE_HH
#define FSOI_COHERENCE_L1_CACHE_HH

#include <deque>
#include <functional>
#include <ostream>
#include <vector>

#include "coherence/cache_array.hh"
#include "coherence/functional_memory.hh"
#include "coherence/line_table.hh"
#include "coherence/message.hh"
#include "coherence/transport.hh"
#include "common/stats.hh"
#include "obs/stat_registry.hh"

namespace fsoi::obs { class FlightRecorder; }
namespace fsoi::snapshot { class Archive; }

namespace fsoi::coherence {

/** L1 stable states (Table 2). */
enum class L1State : std::uint8_t { I, S, E, M };

const char *l1StateName(L1State state);

/** L1 configuration (defaults = Table 3, scaled-down 8 KB L1D). */
struct L1Config
{
    CacheGeometry geometry{8 * 1024, 32, 2};
    int hit_latency = 2;       //!< cycles for a hit
    int num_mshrs = 8;         //!< outstanding misses
    int store_buffer = 8;      //!< entries
    int nack_retry_delay = 30; //!< cycles before re-issuing after a NACK
    /**
     * FSOI optimization (Section 5.1): rely on the optical-layer
     * confirmation of Inv delivery instead of sending InvAck packets
     * for clean copies. Requires an FsoiNetwork-backed transport.
     */
    bool confirmation_acks = false;
};

/** Per-L1 statistics. */
struct L1Stats
{
    Counter loads;
    Counter stores;
    Counter load_hits;
    Counter store_hits;
    Counter misses;
    Counter upgrades;
    Counter writebacks;
    Counter invalidations_received;
    Counter downgrades_received;
    Counter nacks;
    Counter sc_failures;
    Counter l1_accesses; //!< total array accesses (for energy)
    /** Overall latency of misses that returned data (Figure 5). */
    Histogram miss_latency{5.0, 60};
};

/** One L1 controller (one per core). */
class L1Cache
{
  public:
    /**
     * Receives every load/ll/sc completion in tick(): the loaded value
     * (the stored value for a successful sc, 0 for a failed one) and
     * the sc outcome (always true for loads and ll).
     */
    using CompletionHandler =
        std::function<void(std::uint64_t value, bool success)>;

    /**
     * @param node        network endpoint id of this L1's core
     * @param home_of     maps a line address to its home directory node
     * @param on_complete the owning core's completion handler (non-null)
     */
    L1Cache(NodeId node, const L1Config &config, Transport &transport,
            FunctionalMemory &memory, std::function<NodeId(Addr)> home_of,
            CompletionHandler on_complete);

    NodeId node() const { return node_; }
    const L1Stats &stats() const { return stats_; }
    const L1Config &config() const { return config_; }

    /** Publish this cache's stats under @p scope (e.g. core3.l1). */
    void registerStats(const obs::Scope &scope) const;

    /** Record every miss's start and end in the System's flight
     *  recorder (nullptr = off). The recorder must outlive this cache. */
    void setFlightRecorder(obs::FlightRecorder *rec)
    { flightRec_ = rec; }

    /**
     * Issue a load. Returns false when no MSHR is available (the core
     * retries next cycle). The completion handler fires when the value
     * is ready (hit_latency later on a hit).
     */
    bool load(Addr addr);

    /** Issue a store through the store buffer; false when full. */
    bool store(Addr addr, std::uint64_t value);

    /** Load-linked: as load, but arms the link register. */
    bool loadLinked(Addr addr);

    /**
     * Store-conditional: the completion reports success. Fails
     * immediately (no traffic) when the link register no longer covers
     * @p addr.
     */
    bool storeConditional(Addr addr, std::uint64_t value);

    /** Handle a message delivered by the transport. */
    void handleMessage(const Message &msg);

    /** Advance one cycle: drain outbox, store buffer, retries. */
    void tick(Cycle now);

    /**
     * True when no miss, store, completion, deferred fill or outgoing
     * message is outstanding. tick() is then a no-op beyond the clock
     * refresh, so the System leaves the controller unscheduled and
     * keeps the clock fresh via syncClock() instead; handleMessage()
     * and the core-facing entry points refill a work list before the
     * controller must tick again.
     */
    bool quiescent() const;

    /** Keep now_ fresh on skipped cycles (what an idle tick() did). */
    void syncClock(Cycle now) { now_ = now; }

    /**
     * Event-calendar contract: the earliest future cycle at which
     * tick() would do something a skipped tick wouldn't, or kNoCycle
     * when every outstanding item advances purely through message
     * delivery (which re-wakes this controller for the same cycle).
     * Conservative early wakes are harmless; late wakes are not, so
     * every tick-driven work source below contributes.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Current stable state of a line (tests / invariant checks). */
    L1State lineState(Addr addr) const;

    std::size_t outstandingMisses() const { return mshrs_.size(); }

    /**
     * This controller's post-mortem as one JSON object: queue depths
     * and every MSHR ("kind":"mshr", node, line, want, since = miss
     * start, age at @p now, retry and pending flags). The System's
     * flight-recorder context writer calls it.
     */
    void writeJson(std::ostream &os, Cycle now) const;

    /** Printable name for an MSHR want value (flight-recorder dumps). */
    static const char *wantName(std::uint8_t want);

  private:
    struct LineMeta
    {
        L1State state = L1State::I;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(state);
        }
    };
    using Line = CacheArray<LineMeta>::Line;

    struct Mshr
    {
        enum class Want : std::uint8_t { Shared, Exclusive, Upgrade };
        Want want = Want::Shared;
        std::vector<Addr> loads;    //!< load/ll addresses to complete
        bool store_pending = false; //!< store-buffer head waits on this
        bool is_ll = false;         //!< arm link on completion
        bool is_sc = false;         //!< report sc outcome
        Addr sc_addr = 0;
        std::uint64_t sc_value = 0;
        bool inv_pending = false;   //!< Inv arrived mid-flight
        bool dwg_pending = false;   //!< Dwg arrived mid-flight
        Cycle retry_at = kNoCycle;  //!< NACK back-off deadline
        bool request_outstanding = false;
        Cycle created = 0;          //!< miss start (latency histogram)
    };

    struct StoreEntry
    {
        Addr addr;
        std::uint64_t value;
    };

    struct OutMsg
    {
        NodeId dst;
        Message msg;
    };

    /** load() and loadLinked(): ll skips store-buffer forwarding and
     *  arms the link register. */
    bool read(Addr addr, bool linked);
    void queueSend(NodeId dst, const Message &msg);
    void issueRequest(Addr line, Mshr &mshr);
    void scheduleDone(Cycle due, std::uint64_t value, bool success);
    void handleData(const Message &msg, L1State granted);
    void handleExcAck(const Message &msg);
    void handleInv(const Message &msg);
    void handleDwg(const Message &msg);
    void handleNack(const Message &msg);
    void finishMshr(Addr line, L1State granted);

    /** Evict a victim way for @p line; returns slot or nullptr. */
    Line *makeRoom(Addr line);
    bool lineBusy(Addr line) const { return mshrs_.find(line) >= 0; }
    void clearLinkIfCovers(Addr line);
    void performStoreHead();
    void drainStoreBuffer();

    NodeId node_;
    L1Config config_;
    Transport &transport_;
    FunctionalMemory &memory_;
    std::function<NodeId(Addr)> homeOf_;
    CompletionHandler onComplete_;

    CacheArray<LineMeta> array_;
    /** Outstanding misses by line; NACK retries issue in line order. */
    LineTable<Mshr> mshrs_;
    std::deque<StoreEntry> storeBuffer_;
    std::deque<OutMsg> outbox_;
    std::vector<Message> deferredData_; //!< fills waiting for a free way

    /** A completion waiting for its cycle (hit latency, fill + 1). */
    struct PendingDone
    {
        Cycle due;
        std::uint64_t value;
        bool success;
    };
    std::vector<PendingDone> pendingDone_;

    Addr linkLine_ = 0;
    bool linkValid_ = false;

    Cycle now_ = 0;
    L1Stats stats_;
    obs::FlightRecorder *flightRec_ = nullptr;
    std::vector<Addr> retryScratch_; //!< per-tick, sorted NACK retries

  public:
    /**
     * Checkpoint/restore (snapshot/serialize.hh). Pending completions
     * are plain data; the handler they go to is construction-time
     * wiring. MSHRs go sorted by line address (LineTable::serialize)
     * so snapshot bytes never depend on slot-allocation history.
     */
    void serialize(snapshot::Archive &ar);
};

} // namespace fsoi::coherence

#endif // FSOI_COHERENCE_L1_CACHE_HH
