#include "obs/tracer.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/logging.hh"
#include "obs/cli.hh"
#include "obs/stat_registry.hh"

namespace fsoi::obs {

namespace {

constexpr std::size_t kDefaultCapacity = 65536;
constexpr int kMaxLevel = 3;

const char *const kCatNames[kNumTraceCats] = {
    "coherence", "fsoi", "noc", "mem", "sim",
};

int
catIndex(const std::string &name)
{
    for (int i = 0; i < kNumTraceCats; ++i)
        if (name == kCatNames[i])
            return i;
    return -1;
}

} // namespace

const char *
traceCatName(TraceCat cat)
{
    return kCatNames[static_cast<int>(cat)];
}

Tracer::Tracer()
{
    if (const char *buf = std::getenv("FSOI_TRACE_BUF"))
        setCapacity(parseFlagInt("FSOI_TRACE_BUF", buf, 1));
    if (const char *file = std::getenv("FSOI_TRACE_FILE"))
        path_ = file;
    else
        path_ = "fsoi_trace.json";
    if (const char *spec = std::getenv("FSOI_TRACE"))
        configure(spec);
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    static const bool flush_registered = [] {
        std::atexit([] { Tracer::instance().flush(); });
        return true;
    }();
    (void)flush_registered;
    return tracer;
}

void
Tracer::configure(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        std::string token = spec.substr(start, end - start);
        start = end + 1;
        if (token.empty())
            continue;

        int level = 1;
        const std::size_t colon = token.find(':');
        if (colon != std::string::npos) {
            const std::string digits = token.substr(colon + 1);
            token.resize(colon);
            if (digits.empty()
                || digits.find_first_not_of("0123456789")
                    != std::string::npos) {
                warn("FSOI_TRACE: level '%s' of '%s' is not a whole "
                     "number; skipped", digits.c_str(), token.c_str());
                continue;
            }
            // Saturating: levels above kMaxLevel clamp to it.
            level = 0;
            for (const char c : digits)
                level = std::min(level * 10 + (c - '0'), kMaxLevel);
        }

        if (token == "all" || token == "1" || token == "true") {
            for (auto &l : levels_)
                l = static_cast<std::int8_t>(std::max<int>(l, level));
        } else {
            const int idx = catIndex(token);
            if (idx < 0) {
                warn("FSOI_TRACE: unknown category '%s' (have "
                     "coherence, fsoi, noc, mem, sim, all)",
                     token.c_str());
                continue;
            }
            levels_[idx] = static_cast<std::int8_t>(
                std::max<int>(levels_[idx], level));
        }
    }
    any_ = false;
    for (const auto l : levels_)
        any_ |= l > 0;
    if (any_ && ring_.empty())
        ring_.resize(kDefaultCapacity);
}

void
Tracer::setCapacity(std::size_t events)
{
    FSOI_ASSERT(events > 0);
    std::lock_guard<std::mutex> lock(mu_);
    ring_.assign(events, TraceEvent{});
    recorded_ = 0;
}

void
Tracer::record(TraceCat cat, const char *name, char phase, Cycle ts,
               Cycle dur, std::uint32_t tid,
               std::initializer_list<TraceArg> args)
{
    // The macros pre-filter on (cat, level); this guards direct
    // instant()/complete() calls on a disabled category.
    if (levels_[static_cast<int>(cat)] <= 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.empty())
        ring_.resize(kDefaultCapacity);
    TraceEvent &slot = ring_[recorded_ % ring_.size()];
    slot.ts = ts;
    slot.dur = dur;
    slot.name = name;
    slot.tid = tid;
    slot.cat = cat;
    slot.phase = phase;
    slot.num_args = static_cast<std::uint8_t>(
        std::min<std::size_t>(args.size(), 3));
    std::size_t i = 0;
    for (const auto &arg : args) {
        if (i >= slot.num_args)
            break;
        slot.args[i++] = arg;
    }
    ++recorded_;
}

void
Tracer::instant(TraceCat cat, const char *name, Cycle ts,
                std::uint32_t tid, std::initializer_list<TraceArg> args)
{
    record(cat, name, 'i', ts, 0, tid, args);
}

void
Tracer::complete(TraceCat cat, const char *name, Cycle ts, Cycle dur,
                 std::uint32_t tid, std::initializer_list<TraceArg> args)
{
    record(cat, name, 'X', ts, dur, tid, args);
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TraceEvent> out;
    if (ring_.empty() || recorded_ == 0)
        return out;
    const std::uint64_t n =
        std::min<std::uint64_t>(recorded_, ring_.size());
    out.reserve(n);
    const std::uint64_t first = recorded_ - n;
    for (std::uint64_t i = 0; i < n; ++i)
        out.push_back(ring_[(first + i) % ring_.size()]);
    return out;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    writeChromeTraceLocked(os);
}

void
Tracer::writeChromeTraceLocked(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ms\","
       << "\"otherData\":{\"clock\":\"1 cycle = 1 us\","
       << "\"dropped_events\":" << dropped() << "},"
       << "\"traceEvents\":[";
    bool first = true;
    const std::uint64_t n =
        ring_.empty() ? 0 : std::min<std::uint64_t>(recorded_,
                                                    ring_.size());
    const std::uint64_t start = recorded_ - n;
    for (std::uint64_t i = 0; i < n; ++i) {
        const TraceEvent &e = ring_[(start + i) % ring_.size()];
        os << (first ? "" : ",") << "{\"name\":\""
           << jsonEscape(e.name ? e.name : "?") << "\",\"cat\":\""
           << traceCatName(e.cat) << "\",\"ph\":\"" << e.phase
           << "\",\"ts\":" << e.ts;
        if (e.phase == 'X')
            os << ",\"dur\":" << std::max<Cycle>(e.dur, 1);
        else
            os << ",\"s\":\"t\"";
        os << ",\"pid\":0,\"tid\":" << e.tid;
        if (e.num_args > 0) {
            os << ",\"args\":{";
            for (int a = 0; a < e.num_args; ++a) {
                os << (a ? "," : "") << "\""
                   << jsonEscape(e.args[a].key) << "\":"
                   << e.args[a].value;
            }
            os << "}";
        }
        os << "}";
        first = false;
    }
    os << "]}\n";
}

void
Tracer::flush() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!any_ || path_.empty())
        return;
    std::ofstream os(path_);
    if (!os) {
        warn("FSOI_TRACE: cannot write trace file '%s'", path_.c_str());
        return;
    }
    writeChromeTraceLocked(os);
    inform("trace: wrote %llu events to %s (%llu dropped)",
           static_cast<unsigned long long>(
               std::min<std::uint64_t>(recorded_, ring_.size())),
           path_.c_str(),
           static_cast<unsigned long long>(dropped()));
}

void
Tracer::crashFlush() const
{
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    // A signal may have interrupted a thread mid-record() while it
    // held mu_; writing a possibly-torn ring beats deadlocking the
    // dying process.
    if (!any_ || path_.empty())
        return;
    std::ofstream os(path_);
    if (!os)
        return;
    writeChromeTraceLocked(os);
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &l : levels_)
        l = 0;
    any_ = false;
    recorded_ = 0;
    path_.clear();
}

} // namespace fsoi::obs
