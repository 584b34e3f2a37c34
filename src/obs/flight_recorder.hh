/**
 * @file
 * Flight recorder: a bounded ring of recent protocol events plus a
 * context writer, dumped as one JSON document when a run dies (fatal
 * error, signal, or watchdog trip).
 *
 * The recorder is deliberately dumber than the Tracer: events are
 * fixed-size PODs recorded unconditionally while the recorder is
 * enabled (no categories, no levels), because its job is not
 * interactive analysis but post-mortem triage — "what were the last
 * few thousand protocol steps, and what is stuck now". It keeps no
 * copy of simulation state: the stuck part (each core, each L1 MSHR,
 * each directory transaction, the network's buffers) comes from the
 * context writer, which reads the controllers themselves when the dump
 * is taken, so a restored run's dump lists what the checkpoint held.
 * A disabled recorder (capacity 0) costs one branch per call site and
 * still dumps its context.
 *
 * Ownership mirrors StatRegistry: each System owns one recorder and
 * its components record into it from the one thread that runs that
 * System, so the hot path is lock-free. A watchdog trip appends its
 * own System's document (appendDump()). A process-global list of live
 * recorders lets the crash hooks dump every System with
 * dumpAllOnCrash(); that path is best-effort by design — it runs when
 * the process is already dying. Both append one line per document
 * under one process-wide lock.
 */

#ifndef FSOI_OBS_FLIGHT_RECORDER_HH
#define FSOI_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
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

/** Where dumps go: $FSOI_FLIGHT_FILE, read at each dump, or
 *  "fsoi_flight.json". */
std::string flightDumpPath();

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

    /** Appends JSON object members (no trailing comma) to the dump's
     *  "context" object: per-core, L1, directory and network state. */
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

    void setDetailNamer(DetailNamer namer) { namer_ = std::move(namer); }
    void setContextWriter(ContextWriter writer)
    { context_ = std::move(writer); }

    /**
     * Write the full dump as one JSON document:
     *   {"schema":"fsoi-flight-2","reason":...,"cycle":N,
     *    "capacity":N,"recorded":N,"events":[...oldest first...],
     *    "context":{...writer members...}}
     */
    void dumpJson(std::ostream &os, const char *reason, Cycle now) const;

    /**
     * Append this recorder's dump, as one line, to @p path, and take
     * the recorder off the crash hooks' list so a panic that follows
     * does not write it again. Only the append holds the process-wide
     * lock. False (after a warning) when the file cannot be written.
     */
    bool appendDump(const std::string &path, const char *reason,
                    Cycle now);

    /**
     * Crash path: append every live recorder's dump to
     * flightDumpPath(), each stamped with the newest cycle it
     * recorded. Invoked by the crash hooks; safe with none live.
     */
    static void dumpAllOnCrash(const char *reason);

  private:
    void writeEventJson(std::ostream &os, const FlightEvent &e) const;

    std::vector<FlightEvent> ring_;
    std::uint64_t recorded_ = 0;
    std::uint64_t mask_ = 0; //!< ring_.size() - 1 (size is a power of 2)
    Cycle lastCycle_ = 0; //!< newest cycle seen (for crash dumps)
    DetailNamer namer_;
    ContextWriter context_;
};

} // namespace fsoi::obs

#endif // FSOI_OBS_FLIGHT_RECORDER_HH
