#include "sim/campaign.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace fsoi::sim {

namespace {

/**
 * The RunResult fields a campaign journals and reports, as (name,
 * member) pairs in report order -- the one list both the journal codec
 * and writeJson() walk. The diagnosis is last: it is the only string,
 * and a done record truncated by a crash then always fails to parse
 * (see Journal::load). @p R is RunResult, const or not.
 */
template <class R, class Fn>
void
forEachField(R &r, Fn &&fn)
{
    fn("completed", r.completed);
    fn("cycles", r.cycles);
    fn("instructions", r.instructions);
    fn("ipc", r.ipc);
    fn("avg_packet_latency", r.avg_packet_latency);
    fn("l1_miss_rate", r.l1_miss_rate);
    fn("packets_delivered", r.packets_delivered);
    fn("invalidations", r.invalidations);
    fn("sync_packets", r.sync_packets);
    fn("retransmissions", r.retransmissions);
    fn("fault_bit_errors", r.fault_bit_errors);
    fn("blacklisted_channels", r.blacklisted_channels);
    fn("unroutable_drops", r.unroutable_drops);
    fn("avg_power_w", r.avg_power_w);
    fn("fault_diagnosis", r.fault_diagnosis);
}

template <class T, class U>
constexpr bool kIs = std::is_same_v<std::remove_cvref_t<T>, U>;

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/**
 * Is @p s made only of the POSIX portable filename characters
 * [A-Za-z0-9._-]? Point names and warm families become file names and
 * journal keys, and such a name is a safe path component that JSON
 * escaping leaves unchanged.
 */
bool
portableName(std::string_view s)
{
    return std::all_of(s.begin(), s.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    });
}

/**
 * Minimal field extraction for the journal's own rigid JSONL output.
 * Returns false when @p key is absent — which also covers a final
 * line truncated by the crash that the resume is recovering from.
 */
bool
findRaw(const std::string &line, const char *key, std::string &out)
{
    const std::string pat = std::string("\"") + key + "\":";
    const std::size_t at = line.find(pat);
    if (at == std::string::npos)
        return false;
    std::size_t i = at + pat.size();
    if (i < line.size() && line[i] == '"') {
        // Quoted string; undo obs::jsonEscape's backslash escapes.
        // Names are portable and diagnoses printable, so none of its
        // control-character escapes can reach the journal.
        std::string s;
        for (++i; i < line.size() && line[i] != '"'; ++i) {
            if (line[i] == '\\' && i + 1 < line.size())
                ++i;
            s.push_back(line[i]);
        }
        if (i >= line.size())
            return false; // truncated mid-string
        out = std::move(s);
        return true;
    }
    std::size_t end = i;
    while (end < line.size() && line[end] != ',' && line[end] != '}')
        ++end;
    if (end == line.size())
        return false; // truncated mid-number
    out = line.substr(i, end - i);
    return true;
}

bool
findU64(const std::string &line, const char *key, std::uint64_t &out)
{
    std::string raw;
    if (!findRaw(line, key, raw) || raw.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(raw.c_str(), &end, 10);
    return end && *end == '\0';
}

} // namespace

/**
 * The append-only JSONL journal. Every record is one line, flushed as
 * soon as it is written, so the journal survives kill -9 with at worst
 * one truncated trailing line (which the loader ignores).
 */
struct CampaignRunner::Journal
{
    struct PointState
    {
        int attempts = 0;
        bool done = false;
        RunResult result;
    };

    std::FILE *fp = nullptr;
    std::mutex mu;      //!< serializes appends across pool workers
    std::mutex warm_mu; //!< one warmup generation per family at a time
    std::map<std::string, PointState> state;

    ~Journal()
    {
        if (fp)
            std::fclose(fp);
    }

    void load(const std::string &path)
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            std::string event, point;
            if (!findRaw(line, "event", event) ||
                !findRaw(line, "point", point))
                continue;
            PointState &ps = state[point];
            if (event == "start") {
                std::uint64_t attempt = 0;
                if (findU64(line, "attempt", attempt))
                    ps.attempts = std::max(static_cast<int>(attempt),
                                           ps.attempts);
            } else if (event == "done") {
                // A done record is only trusted when it parses whole;
                // the string field is last, so a truncated line fails
                // one of these lookups and the point reruns instead.
                RunResult r;
                bool whole = true;
                forEachField(r, [&](const char *name, auto &v) {
                    using T = std::remove_reference_t<decltype(v)>;
                    std::uint64_t raw = 0;
                    if constexpr (kIs<T, std::string>)
                        whole = whole && findRaw(line, name, v);
                    else if ((whole = whole && findU64(line, name, raw))) {
                        if constexpr (kIs<T, double>)
                            v = bitsDouble(raw);
                        else
                            v = static_cast<T>(raw);
                    }
                });
                if (whole) {
                    ps.done = true;
                    ps.result = std::move(r);
                }
            }
        }
    }

    void appendStart(const std::string &point, int attempt)
    {
        std::lock_guard<std::mutex> lock(mu);
        std::fprintf(fp, "{\"event\":\"start\",\"point\":\"%s\","
                     "\"attempt\":%d}\n", point.c_str(), attempt);
        std::fflush(fp);
    }

    /** Doubles travel as their IEEE-754 bit patterns, so a record
     *  read back reproduces the value exactly -- what makes a resumed
     *  campaign's report byte-identical to an uninterrupted one's. */
    void appendDone(const std::string &point, const RunResult &r)
    {
        std::string rec = "{\"event\":\"done\",\"point\":\"" + point + "\"";
        forEachField(r, [&](const char *name, const auto &v) {
            rec += std::string(",\"") + name + "\":";
            if constexpr (kIs<decltype(v), std::string>)
                rec += "\"" + obs::jsonEscape(v) + "\"";
            else if constexpr (kIs<decltype(v), double>)
                rec += std::to_string(doubleBits(v));
            else
                rec += std::to_string(v);
        });
        rec += "}\n";
        std::lock_guard<std::mutex> lock(mu);
        std::fputs(rec.c_str(), fp);
        std::fflush(fp);
    }
};

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config))
{
    FSOI_ASSERT(!config_.dir.empty(),
                "a campaign needs a directory for its journal");
    FSOI_ASSERT(config_.max_attempts >= 1,
                "max_attempts < 1 would quarantine every point");
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
    if (ec)
        fatal("campaign: cannot create directory '%s': %s",
              config_.dir.c_str(), ec.message().c_str());

    const std::string path = config_.dir + "/campaign.jsonl";
    journal_ = std::make_unique<Journal>();
    journal_->load(path);
    journal_->fp = std::fopen(path.c_str(), "ab");
    if (!journal_->fp)
        fatal("campaign: cannot append to journal '%s'", path.c_str());
}

CampaignRunner::~CampaignRunner() = default;

std::string
CampaignRunner::pointCheckpoint(const std::string &name) const
{
    return config_.dir + "/" + name + ".ckpt";
}

std::string
CampaignRunner::warmCheckpoint(const std::string &family) const
{
    return config_.dir + "/warm_" + family + ".ckpt";
}

std::string
CampaignRunner::ensureWarmState(const CampaignPoint &point)
{
    const std::string path = warmCheckpoint(point.warm_family);
    std::lock_guard<std::mutex> lock(journal_->warm_mu);
    if (std::filesystem::exists(path))
        return path;

    // First family member through: simulate just the warmup window and
    // snapshot the top-of-cycle state at its end. run() stops with
    // now_ == max_cycles when the horizon is hit, which is exactly the
    // top-of-cycle capture point the snapshot format requires.
    SystemConfig cfg = point.job.config;
    cfg.max_cycles = config_.warmup_cycles;
    System sys(cfg);
    sys.loadApp(point.job.app.scaled(point.job.scale));
    const RunResult warm = sys.run();
    if (warm.completed) {
        warn("campaign: family '%s' finished inside the %llu-cycle "
             "warmup; running its points cold",
             point.warm_family.c_str(),
             static_cast<unsigned long long>(config_.warmup_cycles));
        return "";
    }
    sys.saveCheckpoint(path);
    return path;
}

CampaignOutcome
CampaignRunner::runPoint(const CampaignPoint &point, int attempt)
{
    journal_->appendStart(point.name, attempt);

    const std::string ckpt = pointCheckpoint(point.name);
    std::string restore_from;
    if (attempt == 2 && std::filesystem::exists(ckpt)) {
        // One crash so far: trust the in-flight checkpoint and resume.
        // From the third attempt on, the checkpoint itself is suspect
        // (the crash may reproduce from it), so restart cold.
        restore_from = ckpt;
    } else if (config_.warmup_cycles > 0 && !point.warm_family.empty()) {
        restore_from = ensureWarmState(point);
    }

    System sys(point.job.config);
    sys.loadApp(point.job.app.scaled(point.job.scale));
    if (!restore_from.empty())
        sys.restoreCheckpoint(restore_from);
    sys.setCheckpoint(ckpt, config_.checkpoint_every);

    CampaignOutcome out;
    out.name = point.name;
    out.attempts = attempt;
    out.result = sys.run();

    journal_->appendDone(point.name, out.result);
    // Done; the journal is the record. A save cut short by a kill in
    // an earlier attempt leaves its temp file too.
    std::error_code ec;
    std::filesystem::remove(ckpt, ec);
    std::filesystem::remove(ckpt + ".tmp", ec);
    return out;
}

std::vector<CampaignOutcome>
CampaignRunner::run(std::vector<CampaignPoint> points)
{
    // A repeated name would share one journal key and checkpoint file
    // (a resume replays one point's result for both), and a name the
    // journal would have to escape is never replayed.
    std::unordered_set<std::string_view> names;
    for (const CampaignPoint &p : points) {
        FSOI_ASSERT(!p.name.empty(), "campaign points need names");
        FSOI_ASSERT(portableName(p.name),
                    "campaign point '%s': names take only [A-Za-z0-9._-]",
                    p.name.c_str());
        FSOI_ASSERT(portableName(p.warm_family),
                    "campaign point '%s': warm family '%s' takes only "
                    "[A-Za-z0-9._-]", p.name.c_str(),
                    p.warm_family.c_str());
        FSOI_ASSERT(names.insert(p.name).second,
                    "campaign point '%s' is named twice", p.name.c_str());
    }

    // Decide every point's fate from the journal before any new work
    // runs, then post the live runs through a SweepRunner (inline at
    // jobs=1). Outcomes are collected in point order, so the vector
    // (and any report built from it) is independent of the worker
    // count.
    struct Plan
    {
        const CampaignPoint *point;
        int attempt = 0; //!< 0 = replay/quarantine, no run needed
        CampaignOutcome ready;
    };
    std::vector<Plan> plans;
    plans.reserve(points.size());
    for (const CampaignPoint &p : points) {
        Plan plan;
        plan.point = &p;
        const auto it = journal_->state.find(p.name);
        const int attempts =
            it == journal_->state.end() ? 0 : it->second.attempts;
        if (it != journal_->state.end() && it->second.done) {
            plan.ready.name = p.name;
            plan.ready.attempts = std::max(attempts, 1);
            plan.ready.result = it->second.result;
        } else if (attempts >= config_.max_attempts) {
            warn("campaign: quarantining point '%s' after %d failed "
                 "attempts", p.name.c_str(), attempts);
            plan.ready.name = p.name;
            plan.ready.attempts = attempts;
            plan.ready.quarantined = true;
        } else {
            plan.attempt = attempts + 1;
        }
        plans.push_back(std::move(plan));
    }

    std::vector<CampaignOutcome> outcomes(points.size());
    SweepRunner runner(config_.jobs);
    std::vector<std::pair<std::size_t, std::future<CampaignOutcome>>> live;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        Plan &plan = plans[i];
        if (plan.attempt == 0) {
            outcomes[i] = std::move(plan.ready);
            continue;
        }
        live.emplace_back(i, runner.post([this, &plan] {
            return runPoint(*plan.point, plan.attempt);
        }));
    }
    for (auto &[i, fut] : live)
        outcomes[i] = fut.get();
    return outcomes;
}

void
CampaignRunner::writeJson(std::ostream &os,
                          const std::vector<CampaignOutcome> &outcomes)
{
    auto dbl = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return std::string(buf);
    };
    os << "{\n  \"points\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const CampaignOutcome &o = outcomes[i];
        // No attempt counts here: they are resume metadata (kept in
        // the journal), and printing them would break the byte-for-
        // byte equality of resumed vs uninterrupted reports.
        os << "    {\"name\": \"" << obs::jsonEscape(o.name) << "\""
           << ", \"quarantined\": " << (o.quarantined ? "true" : "false");
        forEachField(o.result, [&](const char *name, const auto &v) {
            os << ", \"" << name << "\": ";
            if constexpr (kIs<decltype(v), std::string>)
                os << "\"" << obs::jsonEscape(v) << "\"";
            else if constexpr (kIs<decltype(v), double>)
                os << dbl(v);
            else if constexpr (kIs<decltype(v), bool>)
                os << (v ? "true" : "false");
            else
                os << v;
        });
        os << "}" << (i + 1 < outcomes.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace fsoi::sim
