/**
 * @file
 * Flight recorder: a bounded ring of recent protocol events plus a
 * table of in-flight transactions, dumped as structured JSON when a
 * run dies (fatal error, signal, or watchdog trip).
 *
 * The recorder is deliberately dumber than the Tracer: events are
 * fixed-size PODs recorded unconditionally while the recorder is
 * enabled (no categories, no levels), because its job is not
 * interactive analysis but post-mortem triage — "what were the last
 * few thousand protocol steps, and which transactions never finished".
 * A disabled recorder (capacity 0) costs one branch per call site.
 *
 * Ownership mirrors StatRegistry: each System owns one recorder and
 * its components record into it from the one thread that runs that
 * System, so the hot path is lock-free. A small process-global registry of live
 * recorders (mutex-protected, touched only at construction, teardown
 * and crash time) lets the crash hooks dump every active run's state
 * with dumpAllOnCrash(); that path is best-effort by design — it runs
 * when the process is already dying.
 */

#ifndef FSOI_OBS_FLIGHT_RECORDER_HH
#define FSOI_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace fsoi::obs {

/** What happened. The detail byte's meaning depends on the kind. */
enum class FlightEventKind : std::uint8_t
{
    MsgSend,     //!< protocol message handed to the transport (MsgType)
    MsgRecv,     //!< protocol message routed to a controller (MsgType)
    MshrAlloc,   //!< L1 miss registered an MSHR (Want)
    MshrFree,    //!< L1 miss completed (granted state)
    DirTxnStart, //!< directory opened a transaction (Txn kind)
    DirTxnEnd,   //!< directory closed a transaction (Txn kind)
};

const char *flightEventKindName(FlightEventKind kind);

/** One fixed-size ring slot. */
struct FlightEvent
{
    Cycle cycle = 0;
    Addr line = 0;
    NodeId node = kInvalidNode; //!< acting component's node
    NodeId peer = kInvalidNode; //!< message destination/source
    FlightEventKind kind = FlightEventKind::MsgSend;
    std::uint8_t detail = 0;
};

class FlightRecorder
{
  public:
    /**
     * Decodes an event's detail byte into a protocol-layer name for
     * the JSON dump (msg type, MSHR want, directory txn kind). The
     * obs layer cannot name them itself without inverting the library
     * dependency, so the System installs one; nullptr entries fall
     * back to the numeric value.
     */
    using DetailNamer =
        std::function<const char *(FlightEventKind, std::uint8_t)>;

    /** Appends extra JSON object members (no trailing comma) to the
     *  dump's "context" object: per-core state, network link state. */
    using ContextWriter = std::function<void(std::ostream &)>;

    /** @p capacity ring slots (rounded up to a power of two so the
     *  hot path masks instead of dividing); 0 disables recording. */
    explicit FlightRecorder(std::size_t capacity);
    ~FlightRecorder();

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    bool enabled() const { return !ring_.empty(); }
    std::size_t capacity() const { return ring_.size(); }
    std::uint64_t recorded() const { return recorded_; }

    /** Record one event. Call sites guard with enabled(). */
    void
    record(FlightEventKind kind, Cycle cycle, NodeId node, NodeId peer,
           Addr line, std::uint8_t detail)
    {
        if (ring_.empty())
            return;
        FlightEvent &e = ring_[recorded_ & mask_];
        e.cycle = cycle;
        e.line = line;
        e.node = node;
        e.peer = peer;
        e.kind = kind;
        e.detail = detail;
        ++recorded_;
        if (cycle > lastCycle_)
            lastCycle_ = cycle;
    }

    /**
     * Register an outstanding transaction (an L1 miss or directory
     * transaction) keyed by (kind, node, line). Also records the
     * matching ring event. Re-registering the same key overwrites —
     * protocol retries refresh the entry rather than leaking it.
     */
    void beginTransaction(FlightEventKind kind, Cycle cycle, NodeId node,
                          Addr line, std::uint8_t detail);

    /** Retire an outstanding transaction and record the ring event. */
    void endTransaction(FlightEventKind kind, Cycle cycle, NodeId node,
                        Addr line, std::uint8_t detail);

    void setDetailNamer(DetailNamer namer) { namer_ = std::move(namer); }
    void setContextWriter(ContextWriter writer)
    { context_ = std::move(writer); }

    /**
     * Write the full dump as one JSON document:
     *   {"schema":"fsoi-flight-1","reason":...,"cycle":N,
     *    "events":[...oldest first...],
     *    "inflight":[{"kind":...,"node":...,"line":...,"since":...,
     *                 "age":...},...],
     *    "context":{...writer members...}}
     */
    void dumpJson(std::ostream &os, const char *reason, Cycle now) const;

    /**
     * Crash path: dump every live recorder to @p path (one JSON
     * document per line when several Systems are in flight). Invoked
     * by the crash hooks; safe to call with none registered.
     */
    static void dumpAllOnCrash(const char *path, const char *reason);

  private:
    /** (kind class, node, line) -> registration info. */
    struct Inflight
    {
        Cycle since = 0;
        std::uint8_t detail = 0;
    };

    /**
     * The in-flight table's key: the (class, node, line) triple packed
     * into one integer -- line address shifted over a node byte and a
     * class bit; simulated line addresses are far below 2^55, so the
     * pack is collision-free.
     */
    using Key = std::uint64_t;

    static Key
    packKey(std::uint8_t cls, NodeId node, Addr line)
    {
        return (static_cast<std::uint64_t>(line) << 9)
            | (static_cast<std::uint64_t>(node & 0xFF) << 1)
            | (cls & 1);
    }

    static std::uint8_t keyClass(FlightEventKind kind);
    void writeEventJson(std::ostream &os, const FlightEvent &e) const;

    std::vector<FlightEvent> ring_;
    std::uint64_t recorded_ = 0;
    std::uint64_t mask_ = 0; //!< ring_.size() - 1 (size is a power of 2)
    std::unordered_map<Key, Inflight> inflight_;
    Cycle lastCycle_ = 0; //!< newest cycle seen (for crash dumps)
    DetailNamer namer_;
    ContextWriter context_;
};

} // namespace fsoi::obs

#endif // FSOI_OBS_FLIGHT_RECORDER_HH
