/**
 * @file
 * Distributed L2 slice + directory controller: the lower half of
 * Table 2 (states DI, DV, DS, DM plus transients), with the paper's
 * two coherence optimizations:
 *
 *  - confirmation-as-ack (Section 5.1): invalidations of clean (S)
 *    sharers are acknowledged by the FSOI layer's delivery
 *    confirmations instead of explicit InvAck packets;
 *  - per-line confirmation gating: the directory does not emit the
 *    next message about a line until the previous one is confirmed,
 *    giving point-to-point ordering (Section 4.4);
 *  - ll/sc boolean subscription (Section 5.1): synchronization words
 *    are served from a directory-side update table over the
 *    confirmation lane's reserved mini-slots.
 *
 * Incoming requests that hit a busy (transient) line are queued per
 * line ("z" entries in Table 2); a full request queue produces a NACK
 * and the requester retries (footnote 3's fetch-deadlock avoidance).
 */

#ifndef FSOI_COHERENCE_DIRECTORY_HH
#define FSOI_COHERENCE_DIRECTORY_HH

#include <algorithm>
#include <deque>
#include <functional>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "coherence/cache_array.hh"
#include "coherence/functional_memory.hh"
#include "coherence/line_table.hh"
#include "coherence/message.hh"
#include "coherence/transport.hh"
#include "common/due_list.hh"
#include "common/stats.hh"
#include "obs/stat_registry.hh"

namespace fsoi::obs { class FlightRecorder; }
namespace fsoi::snapshot { class Archive; }

namespace fsoi::coherence {

/** Directory stable states (Table 2). */
enum class DirState : std::uint8_t
{
    DI, //!< not present in this L2 slice
    DV, //!< valid in L2, no L1 copies
    DS, //!< shared read-only by one or more L1s
    DM, //!< owned (E or M) by exactly one L1
};

const char *dirStateName(DirState state);

/** Directory configuration (defaults = Table 3). */
struct DirConfig
{
    CacheGeometry geometry{64 * 1024, 32, 8};
    int l2_latency = 15;        //!< L2 data-array access
    int ctrl_latency = 2;       //!< tag-only / control processing
    int request_queue = 64;     //!< incoming request queue entries
    int pending_per_line = 16;  //!< queued requests per busy line
    int ports = 2;              //!< requests started per cycle
    bool confirmation_acks = false;   //!< FSOI Section 5.1
    bool confirmation_gating = false; //!< FSOI per-line ordering
    bool sync_subscription = false;   //!< FSOI ll/sc update protocol
};

/** Per-directory statistics. */
struct DirStats
{
    Counter requests;
    Counter nacks_sent;
    Counter invalidations_sent;
    Counter downgrades_sent;
    Counter mem_reads;
    Counter mem_writes;
    Counter l2_evictions;
    Counter stale_acks_dropped;
    Counter late_writebacks_merged;
    Counter sync_updates;
    Counter l2_accesses; //!< for the energy model
};

/** One L2 slice + directory controller (one per core tile). */
class Directory
{
  public:
    /** Side channel used for subscription updates (FSOI only). */
    using ControlBitSender =
        std::function<void(NodeId dst, std::uint64_t tag)>;

    Directory(NodeId node, const DirConfig &config, Transport &transport,
              FunctionalMemory &memory,
              std::function<NodeId(Addr)> memctl_of);

    NodeId node() const { return node_; }
    const DirStats &stats() const { return stats_; }
    const DirConfig &config() const { return config_; }

    /** Publish this directory's stats under @p scope (e.g. dir3). */
    void registerStats(const obs::Scope &scope) const;

    /** Record every transaction's start and end in the System's
     *  flight recorder (nullptr = off). The recorder must outlive this
     *  directory. */
    void setFlightRecorder(obs::FlightRecorder *rec)
    { flightRec_ = rec; }

    /** Handle a message delivered by the transport. */
    void handleMessage(const Message &msg);

    /**
     * FSOI only: called when the optical layer confirms delivery of a
     * message this directory sent (payload echoed back).
     */
    void onConfirm(const Message &msg);

    void setControlBitSender(ControlBitSender sender)
    { controlBitSender_ = std::move(sender); }

    void tick(Cycle now);

    bool quiescent() const;

    /**
     * Active-set scheduling protocol (see L1Cache::quiescent): tick()
     * only drains the outbox, deferred fills and the input queue, so
     * the slice is skippable whenever those are empty — outstanding
     * txns_ advance purely through handleMessage() and don't require
     * ticking. Skipped slices get syncClock() to keep now_ fresh.
     */
    bool
    active() const
    {
        return !inQueue_.empty() || !outbox_.empty()
            || !deferredFills_.empty();
    }

    /** Keep now_ fresh on skipped cycles (what an idle tick() did). */
    void syncClock(Cycle now) { now_ = now; }

    /**
     * Event-calendar contract: earliest cycle a tick would make
     * progress, or kNoCycle when the slice advances purely through
     * deliveries (outstanding txns_ don't need ticking; queued input
     * and deferred fills retry every cycle; outbox entries wait for
     * their due cycle).
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        if (!inQueue_.empty() || !deferredFills_.empty())
            return now + 1;
        return nextDue(outbox_, now);
    }

    /**
     * This slice's post-mortem as one JSON object: queue depths and
     * every open transaction ("kind":"dir_txn", node, line, txn kind,
     * requester, acks pending, queued requests, line state). The
     * System's flight-recorder context writer calls it.
     */
    void writeJson(std::ostream &os) const;

    /** Directory state of a line (tests / invariants). */
    DirState lineState(Addr addr) const;
    /** Sharer bitmask of a line (tests / invariants). */
    std::uint64_t sharersOf(Addr addr) const;

    /**
     * Pack a sync side-channel payload: word address, 16-bit value,
     * success flag, and whether this is a direct reply to the
     * requester (vs. a subscription broadcast).
     */
    static std::uint64_t packSyncTag(Addr word, std::uint64_t value,
                                     bool success, bool direct);
    static void unpackSyncTag(std::uint64_t tag, Addr &word,
                              std::uint64_t &value, bool &success,
                              bool &direct);

    /** Printable name for a Txn::Kind value (flight-recorder dumps). */
    static const char *txnKindName(std::uint8_t kind);

    /**
     * Checkpoint/restore (snapshot/serialize.hh). Keyed tables
     * (transactions, sync vars, sync links) are written sorted by key
     * so snapshot bytes never depend on slot or hash-table order; no
     * behaviour here iterates them, so rebuild order is immaterial.
     */
    void serialize(snapshot::Archive &ar);

  private:
    struct DirMeta
    {
        DirState state = DirState::DI;
        std::uint64_t sharers = 0; //!< bitmask over core nodes
        NodeId owner = kInvalidNode;
        bool dirty = false;        //!< L2 copy newer than memory

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(state, sharers, owner, dirty);
        }
    };
    using Line = CacheArray<DirMeta>::Line;

    struct Txn
    {
        enum class Kind : std::uint8_t
        {
            FetchSh,       //!< DI.DSD: memory fetch for a read
            FetchEx,       //!< DI.DMD: memory fetch for a write
            InvForEx,      //!< DS.DMA: invalidating sharers
            DwgForSh,      //!< DM.DSD: downgrading the owner
            InvForOwn,     //!< DM.DMD: invalidating the owner
            EvictShared,   //!< DS.DIA: L2 eviction of a shared line
            EvictOwned,    //!< DM.DID: L2 eviction of an owned line
            AwaitWriteBack,//!< owner re-requested; WB is in flight
            GrantWait,     //!< FSOI gating: grant awaiting confirmation
        } kind;
        NodeId requester = kInvalidNode;
        bool upgrade = false;  //!< reply with ExcAck instead of DataM
        int acks_pending = 0;
        /** Epoch stamped into demands; acks must echo it to count. */
        std::uint64_t epoch = 0;
        MsgType grant_type = MsgType::Nack; //!< for GrantWait matching
        std::deque<Message> pending;        //!< "z" queue
    };

    struct OutMsg
    {
        Cycle due; //!< sent from this cycle on (pipeline latency)
        NodeId dst;
        Message msg;
    };

    struct SyncVar
    {
        std::uint64_t value = 0;
        std::uint64_t version = 1;
        std::uint64_t subscribers = 0;
    };

    /** Insert @p txn for @p line_addr, recording DirTxnStart. All
     *  transaction creation funnels through here. */
    void openTxn(Addr line_addr, Txn txn);
    /** Free transaction slot @p idx, recording DirTxnEnd. */
    void closeTxn(int idx);

    void queueSend(NodeId dst, const Message &msg, int latency);
    void sendNack(const Message &msg);
    void dispatch(const Message &msg);
    void processRequest(const Message &msg);
    void handleWriteBack(const Message &msg);
    void handleInvAck(const Message &msg, bool with_data);
    void handleDwgAck(const Message &msg, bool with_data);
    void handleMemReply(const Message &msg);
    void handleSync(const Message &msg);

    /**
     * Send a granting response and either complete the transaction
     * (draining queued requests) or enter GrantWait when confirmation
     * gating applies.
     */
    void grantAndComplete(Addr line_addr, NodeId dst, MsgType type,
                          std::deque<Message> pending);

    /** Resume queued requests after a line stabilizes. */
    void drainPending(Addr line_addr, std::deque<Message> pending);

    /**
     * Find or make an L2 slot for @p line_addr. May synchronously
     * evict a DV way or start an eviction transaction and return
     * nullptr (caller defers the fill).
     */
    Line *makeRoomL2(Addr line_addr);

    void evictLine(Line *line);
    void notifySubscribers(Addr word, SyncVar &var, NodeId except);

    static std::uint64_t bit(NodeId node) { return 1ULL << node; }

    NodeId node_;
    DirConfig config_;
    Transport &transport_;
    FunctionalMemory &memory_;
    std::function<NodeId(Addr)> memctlOf_;
    ControlBitSender controlBitSender_;

    CacheArray<DirMeta> array_;
    /** Open transactions by line; grows when every slot is taken. */
    LineTable<Txn> txns_;
    std::uint64_t epochCounter_ = 0;
    std::deque<Message> inQueue_;
    std::vector<OutMsg> outbox_;
    std::vector<Message> deferredFills_;
    std::unordered_map<Addr, SyncVar> syncVars_;
    /** Per-core ll link (word, version) for sc validation. */
    std::unordered_map<NodeId, std::pair<Addr, std::uint64_t>> syncLinks_;

    Cycle now_ = 0;
    DirStats stats_;
    obs::FlightRecorder *flightRec_ = nullptr;
};

} // namespace fsoi::coherence

#endif // FSOI_COHERENCE_DIRECTORY_HH
