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
        slots_.resize(1024);
        registerRecorder(this);
    }
}

FlightRecorder::~FlightRecorder()
{
    if (enabled())
        unregisterRecorder(this);
}

void
FlightRecorder::tableInsert(Key key, Inflight info)
{
    if ((inflightCount_ + 1) * 2 > slots_.size())
        tableGrow();
    std::size_t i = slotOf(key);
    while (slots_[i].used) {
        if (slots_[i].key == key) {
            slots_[i].info = info; // protocol retry refreshes the entry
            return;
        }
        i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = TableSlot{key, info, true};
    ++inflightCount_;
}

void
FlightRecorder::tableErase(Key key)
{
    const std::size_t smask = slots_.size() - 1;
    std::size_t i = slotOf(key);
    while (true) {
        if (!slots_[i].used)
            return; // unmatched end (e.g. recorder attached mid-run)
        if (slots_[i].key == key)
            break;
        i = (i + 1) & smask;
    }
    --inflightCount_;
    // Backward-shift deletion keeps probe chains tombstone-free: pull
    // each displaced successor back over the hole until a gap or a
    // slot already at its home position ends the chain.
    std::size_t j = i;
    while (true) {
        slots_[i].used = false;
        std::size_t home;
        do {
            j = (j + 1) & smask;
            if (!slots_[j].used)
                return;
            home = slotOf(slots_[j].key);
        } while (i <= j ? (i < home && home <= j)
                        : (i < home || home <= j));
        slots_[i] = slots_[j];
        i = j;
    }
}

void
FlightRecorder::tableGrow()
{
    std::vector<TableSlot> old = std::move(slots_);
    slots_.assign(old.size() * 2, TableSlot{});
    inflightCount_ = 0;
    for (const TableSlot &slot : old) {
        if (slot.used)
            tableInsert(slot.key, slot.info);
    }
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
    tableInsert(packKey(keyClass(kind), node, line),
                Inflight{cycle, detail});
}

void
FlightRecorder::endTransaction(FlightEventKind kind, Cycle cycle,
                               NodeId node, Addr line,
                               std::uint8_t detail)
{
    if (!enabled())
        return;
    record(kind, cycle, node, kInvalidNode, line, detail);
    tableErase(packKey(keyClass(kind), node, line));
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
    for (const TableSlot &slot : slots_) {
        if (!slot.used)
            continue;
        const Key key = slot.key;
        const Inflight &txn = slot.info;
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
