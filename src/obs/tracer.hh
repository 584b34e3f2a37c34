/**
 * @file
 * Structured event tracing behind the FSOI_TRACE gate.
 *
 * Events carry a category (coherence, fsoi, noc, mem, sim) and a level
 * (1 = transaction milestones, 2 = per-packet detail, 3 = internal
 * bookkeeping) and land in a preallocated ring buffer that wraps,
 * keeping the most recent events. On exit (or an explicit flush) the
 * buffer is written as Chrome trace_event JSON loadable in
 * chrome://tracing and Perfetto: one process, one track per network
 * node, cycles mapped 1:1 to microseconds.
 *
 * Environment knobs, read once per process:
 *   FSOI_TRACE      category list with optional per-category levels:
 *                   "coherence,fsoi:2", "all:1"; plain "1" (the legacy
 *                   boolean) means all:1.
 *   FSOI_TRACE_FILE output path (default "fsoi_trace.json")
 *   FSOI_TRACE_BUF  ring capacity in events (default 65536): a plain
 *                   positive decimal integer (obs::parseFlagInt), so
 *                   "1e6" is fatal instead of a one-event ring
 *
 * Cost when disabled: one level-table load and compare per call site,
 * the same single branch the old traceEnabled() bool was.
 *
 * Thread-safety: the tracer is process-global while Systems may now
 * run on sweep worker threads. Construction (and the one-time
 * environment parse it performs) is race-free via the C++11
 * magic-static in instance(). All mutating entry points -- record()
 * via instant()/complete(), configure(), setCapacity(), reset() --
 * and the buffer readers (snapshot(), writeChromeTrace(), flush())
 * serialize on an internal mutex. The hot-path gate enabled() stays
 * lock-free: it only loads levels_, which is written before worker
 * threads exist (environment parse) or under the mutex (tests
 * reconfiguring a quiesced tracer). The inline counters
 * recorded()/dropped()/capacity() are unlocked convenience reads;
 * treat them as approximate while worker threads are tracing.
 */

#ifndef FSOI_OBS_TRACER_HH
#define FSOI_OBS_TRACER_HH

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace fsoi::obs {

enum class TraceCat : std::uint8_t { Coherence, Fsoi, Noc, Mem, Sim };
inline constexpr int kNumTraceCats = 5;

const char *traceCatName(TraceCat cat);

/** One key/value pair attached to an event (keys must be static). */
struct TraceArg
{
    const char *key;
    std::uint64_t value;
};

/** One ring-buffer slot. Names/keys must point to static storage. */
struct TraceEvent
{
    Cycle ts = 0;
    Cycle dur = 0;        //!< phase 'X' only
    const char *name = nullptr;
    std::uint32_t tid = 0; //!< network node (Perfetto track)
    TraceCat cat = TraceCat::Sim;
    char phase = 'i';      //!< 'i' instant, 'X' complete
    std::uint8_t num_args = 0;
    TraceArg args[3];
};

class Tracer
{
  public:
    /** Process-wide instance, configured from the environment once. */
    static Tracer &instance();

    /** The hot-path gate: is @p cat recording at @p level? */
    bool
    enabled(TraceCat cat, int level) const
    {
        return level <= levels_[static_cast<int>(cat)];
    }

    int level(TraceCat cat) const
    { return levels_[static_cast<int>(cat)]; }

    /** Record an instant event (a point in time on a node's track). */
    void instant(TraceCat cat, const char *name, Cycle ts,
                 std::uint32_t tid,
                 std::initializer_list<TraceArg> args = {});

    /** Record a complete event spanning [ts, ts + dur). */
    void complete(TraceCat cat, const char *name, Cycle ts, Cycle dur,
                  std::uint32_t tid,
                  std::initializer_list<TraceArg> args = {});

    /**
     * Apply a FSOI_TRACE-style spec: comma-separated category names
     * with optional `:level` suffixes; "all" addresses every category;
     * "1" / "true" enable everything at level 1. A level is a whole
     * decimal number (above 3 clamps to 3); unknown categories and
     * other levels are reported and skipped.
     */
    void configure(const std::string &spec);

    /** Resize the ring (drops recorded events). */
    void setCapacity(std::size_t events);
    std::size_t capacity() const { return ring_.size(); }

    std::uint64_t recorded() const { return recorded_; }
    std::uint64_t dropped() const
    { return recorded_ <= ring_.size() ? 0 : recorded_ - ring_.size(); }

    /** Buffered events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Emit the Chrome trace_event JSON document. */
    void writeChromeTrace(std::ostream &os) const;

    /** Write to the FSOI_TRACE_FILE path when tracing is on; called
     *  at exit. */
    void flush() const;

    /**
     * Abnormal-exit flush: like flush(), but only try-locks the ring
     * mutex so a signal landing mid-record() cannot deadlock the
     * dying process. When the lock is contended the partial ring is
     * written anyway — a slightly torn trace beats losing it.
     */
    void crashFlush() const;

    /** Disable all categories and clear the buffer (tests). */
    void reset();

  private:
    Tracer();

    void record(TraceCat cat, const char *name, char phase, Cycle ts,
                Cycle dur, std::uint32_t tid,
                std::initializer_list<TraceArg> args);
    void writeChromeTraceLocked(std::ostream &os) const;

    /** Serializes ring/config mutation across sweep worker threads. */
    mutable std::mutex mu_;
    std::int8_t levels_[kNumTraceCats] = {0, 0, 0, 0, 0};
    bool any_ = false;
    std::vector<TraceEvent> ring_;
    std::uint64_t recorded_ = 0;
    std::string path_;
};

} // namespace fsoi::obs

#endif // FSOI_OBS_TRACER_HH
