#include "obs/flight_recorder.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace fsoi::obs {

namespace {

/**
 * Guards the live-recorder list and every append to a dump file, so
 * documents from different worker threads never interleave. Recursive:
 * a crash signal landing while a thread holds it re-enters through the
 * crash hooks on that same thread.
 */
std::recursive_mutex dumpMu;
std::vector<FlightRecorder *> liveRecorders;

void
unregisterRecorder(FlightRecorder *rec)
{
    std::lock_guard<std::recursive_mutex> lock(dumpMu);
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

std::string
flightDumpPath()
{
    const char *env = std::getenv("FSOI_FLIGHT_FILE");
    return env && env[0] ? env : "fsoi_flight.json";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
{
    if (capacity) {
        std::size_t rounded = 1;
        while (rounded < capacity)
            rounded *= 2;
        ring_.resize(rounded);
        mask_ = rounded - 1;
    }
    std::lock_guard<std::recursive_mutex> lock(dumpMu);
    liveRecorders.push_back(this);
}

FlightRecorder::~FlightRecorder()
{
    unregisterRecorder(this);
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
    os << "{\"schema\":\"fsoi-flight-2\",\"reason\":\""
       << jsonEscape(reason ? reason : "unknown") << "\",\"cycle\":"
       << now << ",\"capacity\":" << ring_.size()
       << ",\"recorded\":" << recorded_ << ",\"events\":[";
    const std::uint64_t n =
        std::min<std::uint64_t>(recorded_, ring_.size());
    for (std::uint64_t i = 0; i < n; ++i) {
        if (i)
            os << ",";
        writeEventJson(os, ring_[(recorded_ - n + i) & mask_]);
    }
    os << "],\"context\":{";
    if (context_)
        context_(os);
    os << "}}";
}

bool
FlightRecorder::appendDump(const std::string &path, const char *reason,
                           Cycle now)
{
    unregisterRecorder(this);
    // Render outside the lock: the context writer reads only this
    // recorder's System.
    std::ostringstream doc;
    dumpJson(doc, reason, now);
    doc << "\n";
    std::lock_guard<std::recursive_mutex> lock(dumpMu);
    std::ofstream os(path, std::ios::app);
    os << doc.str() << std::flush;
    if (!os)
        warn("flight recorder: cannot write '%s'", path.c_str());
    return static_cast<bool>(os);
}

void
FlightRecorder::dumpAllOnCrash(const char *reason)
{
    std::lock_guard<std::recursive_mutex> lock(dumpMu);
    if (liveRecorders.empty())
        return;
    const std::string path = flightDumpPath();
    std::ofstream os(path, std::ios::app);
    if (!os) {
        warn("flight recorder: cannot write '%s'", path.c_str());
        return;
    }
    for (const FlightRecorder *rec : liveRecorders) {
        rec->dumpJson(os, reason, rec->lastCycle_);
        os << "\n" << std::flush;
    }
    inform("flight recorder: appended %zu dump(s) to %s",
           liveRecorders.size(), path.c_str());
}

} // namespace fsoi::obs
