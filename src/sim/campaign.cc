#include "sim/campaign.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <utility>

#include "common/logging.hh"

namespace fsoi::sim {

namespace {

/**
 * The slice of a RunResult that the campaign journals and reports.
 * Doubles travel as their IEEE-754 bit patterns so a record read back
 * from the journal reproduces the original value exactly — that is
 * what makes a resumed campaign's consolidated JSON byte-identical to
 * an uninterrupted one's.
 */
struct PointRecord
{
    bool completed = false;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t sync_packets = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t fault_bit_errors = 0;
    std::uint64_t blacklisted_channels = 0;
    std::uint64_t unroutable_drops = 0;
    std::uint64_t ipc_bits = 0;
    std::uint64_t latency_bits = 0;
    std::uint64_t miss_bits = 0;
    std::uint64_t power_bits = 0;
    std::string fault_diagnosis;
};

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

PointRecord
toRecord(const RunResult &r)
{
    PointRecord rec;
    rec.completed = r.completed;
    rec.cycles = r.cycles;
    rec.instructions = r.instructions;
    rec.packets_delivered = r.packets_delivered;
    rec.invalidations = r.invalidations;
    rec.sync_packets = r.sync_packets;
    rec.retransmissions = r.retransmissions;
    rec.fault_bit_errors = r.fault_bit_errors;
    rec.blacklisted_channels = r.blacklisted_channels;
    rec.unroutable_drops = r.unroutable_drops;
    rec.ipc_bits = doubleBits(r.ipc);
    rec.latency_bits = doubleBits(r.avg_packet_latency);
    rec.miss_bits = doubleBits(r.l1_miss_rate);
    rec.power_bits = doubleBits(r.avg_power_w);
    rec.fault_diagnosis = r.fault_diagnosis;
    return rec;
}

RunResult
fromRecord(const PointRecord &rec)
{
    RunResult r;
    r.completed = rec.completed;
    r.cycles = rec.cycles;
    r.instructions = rec.instructions;
    r.packets_delivered = rec.packets_delivered;
    r.invalidations = rec.invalidations;
    r.sync_packets = rec.sync_packets;
    r.retransmissions = rec.retransmissions;
    r.fault_bit_errors = rec.fault_bit_errors;
    r.blacklisted_channels = rec.blacklisted_channels;
    r.unroutable_drops = rec.unroutable_drops;
    r.ipc = bitsDouble(rec.ipc_bits);
    r.avg_packet_latency = bitsDouble(rec.latency_bits);
    r.l1_miss_rate = bitsDouble(rec.miss_bits);
    r.avg_power_w = bitsDouble(rec.power_bits);
    r.fault_diagnosis = rec.fault_diagnosis;
    return r;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
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
        // Quoted string; unescape the two characters jsonEscape emits.
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
        PointRecord record;
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
                PointRecord rec;
                std::uint64_t completed = 0;
                // A done record is only trusted when it parses whole;
                // the string field is last, so a truncated line fails
                // one of these lookups and the point reruns instead.
                if (findU64(line, "completed", completed) &&
                    findU64(line, "cycles", rec.cycles) &&
                    findU64(line, "instructions", rec.instructions) &&
                    findU64(line, "packets", rec.packets_delivered) &&
                    findU64(line, "invalidations", rec.invalidations) &&
                    findU64(line, "sync_packets", rec.sync_packets) &&
                    findU64(line, "retransmissions",
                            rec.retransmissions) &&
                    findU64(line, "bit_errors", rec.fault_bit_errors) &&
                    findU64(line, "blacklisted",
                            rec.blacklisted_channels) &&
                    findU64(line, "unroutable", rec.unroutable_drops) &&
                    findU64(line, "ipc_bits", rec.ipc_bits) &&
                    findU64(line, "latency_bits", rec.latency_bits) &&
                    findU64(line, "miss_bits", rec.miss_bits) &&
                    findU64(line, "power_bits", rec.power_bits) &&
                    findRaw(line, "diagnosis", rec.fault_diagnosis)) {
                    rec.completed = completed != 0;
                    ps.done = true;
                    ps.record = std::move(rec);
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

    void appendDone(const std::string &point, const PointRecord &rec)
    {
        std::lock_guard<std::mutex> lock(mu);
        std::fprintf(
            fp,
            "{\"event\":\"done\",\"point\":\"%s\",\"completed\":%d,"
            "\"cycles\":%llu,\"instructions\":%llu,\"packets\":%llu,"
            "\"invalidations\":%llu,\"sync_packets\":%llu,"
            "\"retransmissions\":%llu,\"bit_errors\":%llu,"
            "\"blacklisted\":%llu,\"unroutable\":%llu,"
            "\"ipc_bits\":%llu,\"latency_bits\":%llu,"
            "\"miss_bits\":%llu,\"power_bits\":%llu,"
            "\"diagnosis\":\"%s\"}\n",
            point.c_str(), rec.completed ? 1 : 0,
            static_cast<unsigned long long>(rec.cycles),
            static_cast<unsigned long long>(rec.instructions),
            static_cast<unsigned long long>(rec.packets_delivered),
            static_cast<unsigned long long>(rec.invalidations),
            static_cast<unsigned long long>(rec.sync_packets),
            static_cast<unsigned long long>(rec.retransmissions),
            static_cast<unsigned long long>(rec.fault_bit_errors),
            static_cast<unsigned long long>(rec.blacklisted_channels),
            static_cast<unsigned long long>(rec.unroutable_drops),
            static_cast<unsigned long long>(rec.ipc_bits),
            static_cast<unsigned long long>(rec.latency_bits),
            static_cast<unsigned long long>(rec.miss_bits),
            static_cast<unsigned long long>(rec.power_bits),
            jsonEscape(rec.fault_diagnosis).c_str());
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

    journal_->appendDone(point.name, toRecord(out.result));
    std::error_code ec;
    std::filesystem::remove(ckpt, ec); // done; the journal is the record
    return out;
}

std::vector<CampaignOutcome>
CampaignRunner::run(std::vector<CampaignPoint> points)
{
    for (const CampaignPoint &p : points)
        FSOI_ASSERT(!p.name.empty(), "campaign points need names");

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
            plan.ready.result = fromRecord(it->second.record);
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
        const RunResult &r = o.result;
        // No attempt counts here: they are resume metadata (kept in
        // the journal), and printing them would break the byte-for-
        // byte equality of resumed vs uninterrupted reports.
        os << "    {\"name\": \"" << jsonEscape(o.name) << "\""
           << ", \"quarantined\": " << (o.quarantined ? "true" : "false")
           << ", \"completed\": " << (r.completed ? "true" : "false")
           << ", \"cycles\": " << r.cycles
           << ", \"instructions\": " << r.instructions
           << ", \"ipc\": " << dbl(r.ipc)
           << ", \"avg_packet_latency\": " << dbl(r.avg_packet_latency)
           << ", \"l1_miss_rate\": " << dbl(r.l1_miss_rate)
           << ", \"packets_delivered\": " << r.packets_delivered
           << ", \"invalidations\": " << r.invalidations
           << ", \"sync_packets\": " << r.sync_packets
           << ", \"retransmissions\": " << r.retransmissions
           << ", \"fault_bit_errors\": " << r.fault_bit_errors
           << ", \"blacklisted_channels\": " << r.blacklisted_channels
           << ", \"unroutable_drops\": " << r.unroutable_drops
           << ", \"avg_power_w\": " << dbl(r.avg_power_w)
           << ", \"fault_diagnosis\": \"" << jsonEscape(r.fault_diagnosis)
           << "\"}" << (i + 1 < outcomes.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace fsoi::sim
