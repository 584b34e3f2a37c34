#include "obs/flight_recorder.hh"

#include <algorithm>
#include <fstream>
#include <mutex>

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace fsoi::obs {

namespace {

/**
 * Process-global registry of live recorders for the crash hooks. Only
 * touched at System construction/teardown and when the process is
 * already dying, so one mutex is plenty.
 */
std::mutex registryMu;
std::vector<FlightRecorder *> liveRecorders;

void
registerRecorder(FlightRecorder *rec)
{
    std::lock_guard<std::mutex> lock(registryMu);
    liveRecorders.push_back(rec);
}

void
unregisterRecorder(FlightRecorder *rec)
{
    std::lock_guard<std::mutex> lock(registryMu);
    liveRecorders.erase(
        std::remove(liveRecorders.begin(), liveRecorders.end(), rec),
        liveRecorders.end());
}

} // namespace

const char *
flightEventKindName(FlightEventKind kind)
{
    switch (kind) {
      case FlightEventKind::MsgSend: return "msg_send";
      case FlightEventKind::MsgRecv: return "msg_recv";
      case FlightEventKind::MshrAlloc: return "mshr_alloc";
      case FlightEventKind::MshrFree: return "mshr_free";
      case FlightEventKind::DirTxnStart: return "dir_txn_start";
      case FlightEventKind::DirTxnEnd: return "dir_txn_end";
    }
    return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
{
    if (capacity) {
        std::size_t rounded = 1;
        while (rounded < capacity)
            rounded *= 2;
        ring_.resize(rounded);
        mask_ = rounded - 1;
        registerRecorder(this);
    }
}

FlightRecorder::~FlightRecorder()
{
    if (enabled())
        unregisterRecorder(this);
}

std::uint8_t
FlightRecorder::keyClass(FlightEventKind kind)
{
    switch (kind) {
      case FlightEventKind::MshrAlloc:
      case FlightEventKind::MshrFree:
        return 0;
      default:
        return 1;
    }
}

void
FlightRecorder::beginTransaction(FlightEventKind kind, Cycle cycle,
                                 NodeId node, Addr line,
                                 std::uint8_t detail)
{
    if (!enabled())
        return;
    record(kind, cycle, node, kInvalidNode, line, detail);
    // A protocol retry re-registers: the entry is refreshed.
    inflight_[packKey(keyClass(kind), node, line)] = Inflight{cycle, detail};
}

void
FlightRecorder::endTransaction(FlightEventKind kind, Cycle cycle,
                               NodeId node, Addr line,
                               std::uint8_t detail)
{
    if (!enabled())
        return;
    record(kind, cycle, node, kInvalidNode, line, detail);
    // An unmatched end (e.g. recorder attached mid-run) erases nothing.
    inflight_.erase(packKey(keyClass(kind), node, line));
}

void
FlightRecorder::writeEventJson(std::ostream &os,
                               const FlightEvent &e) const
{
    os << "{\"cycle\":" << e.cycle << ",\"kind\":\""
       << flightEventKindName(e.kind) << "\",\"node\":" << e.node;
    if (e.peer != kInvalidNode)
        os << ",\"peer\":" << e.peer;
    os << ",\"line\":" << e.line << ",\"detail\":"
       << static_cast<unsigned>(e.detail);
    if (namer_) {
        if (const char *name = namer_(e.kind, e.detail))
            os << ",\"detail_name\":\"" << jsonEscape(name) << "\"";
    }
    os << "}";
}

void
FlightRecorder::dumpJson(std::ostream &os, const char *reason,
                         Cycle now) const
{
    os << "{\"schema\":\"fsoi-flight-1\",\"reason\":\""
       << jsonEscape(reason ? reason : "unknown") << "\",\"cycle\":"
       << now << ",\"capacity\":" << ring_.size()
       << ",\"recorded\":" << recorded_ << ",\"events\":[";
    const std::uint64_t n =
        ring_.empty() ? 0 : std::min<std::uint64_t>(recorded_,
                                                    ring_.size());
    const std::uint64_t first = recorded_ - n;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (i)
            os << ",";
        writeEventJson(os, ring_[(first + i) % ring_.size()]);
    }
    os << "],\"inflight\":[";
    bool sep = false;
    for (const auto &[key, txn] : inflight_) {
        const std::uint8_t cls = key & 1;
        const auto node = static_cast<NodeId>((key >> 1) & 0xFF);
        const Addr line = static_cast<Addr>(key >> 9);
        const FlightEventKind kind = cls == 0
            ? FlightEventKind::MshrAlloc : FlightEventKind::DirTxnStart;
        os << (sep ? "," : "") << "{\"kind\":\""
           << (cls == 0 ? "mshr" : "dir_txn") << "\",\"node\":" << node
           << ",\"line\":" << line << ",\"since\":" << txn.since
           << ",\"age\":" << (now >= txn.since ? now - txn.since : 0)
           << ",\"detail\":" << static_cast<unsigned>(txn.detail);
        if (namer_) {
            if (const char *name = namer_(kind, txn.detail))
                os << ",\"detail_name\":\"" << jsonEscape(name) << "\"";
        }
        os << "}";
        sep = true;
    }
    os << "],\"context\":{";
    if (context_)
        context_(os);
    os << "}}";
}

void
FlightRecorder::dumpAllOnCrash(const char *path, const char *reason)
{
    std::lock_guard<std::mutex> lock(registryMu);
    if (liveRecorders.empty())
        return;
    std::ofstream os(path);
    if (!os) {
        warn("flight recorder: cannot write '%s'", path);
        return;
    }
    for (const FlightRecorder *rec : liveRecorders) {
        rec->dumpJson(os, reason, rec->lastCycle_);
        os << "\n";
    }
    inform("flight recorder: wrote %zu dump(s) to %s",
           liveRecorders.size(), path);
}

} // namespace fsoi::obs
