/**
 * @file
 * Host-time benchmark of fsoi-sim. One process runs one workload — a
 * paper-figure sweep or a checkpointed horizon campaign — in timed
 * passes through the public library API, and writes the raw samples,
 * a digest of every simulated result and, when traced, per-layer
 * measurements as one JSON document. benchmark/run.py builds and
 * drives it and turns the samples into the metrics BENCHMARK.json
 * names; see benchmark/README.md.
 *
 * Usage:
 *   fsoi_bench --workload=NAME --seed=N --out=FILE --scratch=DIR
 *              [--seconds=S] [--passes=N] [--smoke] [--crosscheck=N]
 *              [--trace=FILE]
 *
 *   --seconds=S     keep starting passes while the next one is expected
 *                   to finish within S seconds of the first (default 0)
 *   --passes=N      but run at least N passes (default 3)
 *   --smoke         tiny sizes, for checking the benchmark itself
 *   --crosscheck=N  re-run N sampled runs through the figure benches'
 *                   path (sim::SweepRunner::runJob) and compare digests
 *   --trace=FILE    traced mode: one untraced and one traced pass, the
 *                   probes, per-layer metrics, and a Chrome trace
 *   --scratch=DIR   campaign journals and snapshot files go here; the
 *                   directory is removed before exit
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "fsoi/fsoi_network.hh"
#include "noc/mesh_network.hh"
#include "sim/campaign.hh"
#include "sim/sweep_runner.hh"
#include "sim/system.hh"
#include "workload/apps.hh"
#include "workload/traffic.hh"

using namespace fsoi;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch()).count();
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent and run id, kept in memory and
// written as a Chrome trace when the process ends.

class SpanLog
{
  public:
    struct Record
    {
        std::string name;
        std::int64_t start = 0;
        std::int64_t end = 0;
        int parent = -1;
        int run = -1;
    };

    int
    open(std::string name, int run, std::int64_t start)
    {
        records_.push_back(Record{std::move(name), start, start, current_,
                                  run});
        current_ = static_cast<int>(records_.size()) - 1;
        return current_;
    }

    void
    close(int id, std::int64_t end)
    {
        records_[id].end = end;
        current_ = records_[id].parent;
    }

    /** Per span name: summed self time (duration minus the direct
     *  children's durations) and call count. */
    std::map<std::string, std::pair<double, int>>
    selfTimes() const
    {
        std::vector<std::int64_t> child(records_.size(), 0);
        for (const Record &r : records_)
            if (r.parent >= 0)
                child[r.parent] += r.end - r.start;
        std::map<std::string, std::pair<double, int>> out;
        for (std::size_t i = 0; i < records_.size(); ++i) {
            auto &[ns, count] = out[records_[i].name];
            ns += static_cast<double>(records_[i].end - records_[i].start
                                      - child[i]);
            ++count;
        }
        return out;
    }

    void
    writeChrome(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            fatal("cannot write trace '%s'", path.c_str());
        const std::int64_t t0 = records_.empty() ? 0 : records_[0].start;
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%d}}"
                          "%s\n",
                          r.name.c_str(), (r.start - t0) / 1e3,
                          (r.end - r.start) / 1e3, i, r.parent, r.run,
                          i + 1 < records_.size() ? "," : "");
            os << buf;
        }
        os << "]}\n";
    }

  private:
    std::vector<Record> records_;
    int current_ = -1;
};

/**
 * Times one interval and, with a log attached, records it as a span.
 * Untraced passes take the same clock reads, so the traced pass differs
 * only by the span bookkeeping.
 */
class Span
{
  public:
    Span(SpanLog *log, const char *name, int run = -1)
        : log_(log), start_(nowNs())
    {
        if (log_)
            id_ = log_->open(name, run, start_);
    }

    ~Span() { close(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (once); returns its duration in seconds. */
    double
    close()
    {
        if (end_ == 0) {
            end_ = nowNs();
            if (log_)
                log_->close(id_, end_);
        }
        return static_cast<double>(end_ - start_) / 1e9;
    }

  private:
    SpanLog *log_;
    int id_ = -1;
    std::int64_t start_;
    std::int64_t end_ = 0;
};

// ---------------------------------------------------------------------
// Result digests: FNV-1a over every RunResult field, doubles by their
// bit patterns, so any change to a simulated output shows.

class Digest
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
digestOf(const sim::RunResult &r)
{
    Digest d;
    d.u64(r.completed);
    d.u64(r.cycles);
    d.u64(r.instructions);
    d.f64(r.ipc);
    d.f64(r.avg_packet_latency);
    d.f64(r.queuing);
    d.f64(r.scheduling);
    d.f64(r.network);
    d.f64(r.collision_resolution);
    d.u64(r.packets_delivered);
    d.f64(r.meta_collision_rate);
    d.f64(r.data_collision_rate);
    d.f64(r.meta_tx_probability);
    for (std::uint64_t c : r.data_collisions_by_cat)
        d.u64(c);
    d.f64(r.data_resolution_delay);
    d.f64(r.l1_miss_rate);
    d.u64(r.invalidations);
    d.u64(r.sync_packets);
    d.u64(r.control_bits);
    d.f64(r.energy.core_j);
    d.f64(r.energy.cache_j);
    d.f64(r.energy.memory_j);
    d.f64(r.energy.network_j);
    d.f64(r.energy.leakage_j);
    d.f64(r.avg_power_w);
    d.u64(r.retransmissions);
    d.u64(r.fault_bit_errors);
    d.u64(r.blacklisted_channels);
    d.u64(r.unroutable_drops);
    d.str(r.fault_diagnosis);
    return d.hex();
}

// ---------------------------------------------------------------------
// Workloads. Sizes put one pass at a few seconds on a 4-CPU x86 host,
// so a run of --seconds holds several passes and reports their median.

struct Run
{
    std::string name;
    sim::SweepJob job;
};

struct Workload
{
    std::string params; //!< recorded beside the blessed digests
    std::vector<Run> runs;
    /** campaign64: the points, run in order through CampaignRunner. */
    std::vector<sim::CampaignPoint> points;
    sim::CampaignConfig campaign;
};

constexpr sim::NetKind kPaperNets[] = {
    sim::NetKind::Mesh, sim::NetKind::Fsoi, sim::NetKind::L0,
    sim::NetKind::Lr1, sim::NetKind::Lr2};

sim::SystemConfig
paperConfig(int cores, sim::NetKind kind, std::uint64_t seed)
{
    auto cfg = sim::SystemConfig::paperConfig(cores, kind);
    cfg.seed = seed;
    return cfg;
}

std::string
runName(const std::string &app, sim::NetKind kind)
{
    return app + "." + sim::netKindName(kind);
}

Workload
paperSweep(int cores, double scale, std::uint64_t seed)
{
    Workload w;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "16 apps x 5 networks, %d cores, scale %g", cores, scale);
    w.params = buf;
    for (const auto &app : workload::paperApps())
        for (sim::NetKind kind : kPaperNets)
            w.runs.push_back(Run{runName(app.name, kind),
                                 {paperConfig(cores, kind, seed), app,
                                  scale}});
    return w;
}

Workload
idleSweep(int seeds, double scale, std::uint64_t seed)
{
    Workload w;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "idle x {mesh, FSOI} x %d seeds, 16 cores, scale %g",
                  seeds, scale);
    w.params = buf;
    const auto idle = workload::idleHeavyProfile();
    for (int i = 0; i < seeds; ++i) {
        // Decorrelated from neighbouring --seed values.
        const std::uint64_t s = seed * 1000 + static_cast<std::uint64_t>(i);
        for (sim::NetKind kind : {sim::NetKind::Mesh, sim::NetKind::Fsoi})
            w.runs.push_back(Run{
                "idle.s" + std::to_string(i) + "." + sim::netKindName(kind),
                {paperConfig(16, kind, s), idle, scale}});
    }
    return w;
}

Workload
horizonCampaign(Cycle warmup, Cycle step, int horizons, Cycle every,
                std::uint64_t seed)
{
    Workload w;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "64-core FSOI, 4 warm families x %d horizons, warmup "
                  "%llu, step %llu, checkpoint_every %llu",
                  horizons, static_cast<unsigned long long>(warmup),
                  static_cast<unsigned long long>(step),
                  static_cast<unsigned long long>(every));
    w.params = buf;
    w.campaign.checkpoint_every = every;
    w.campaign.warmup_cycles = warmup;
    w.campaign.jobs = 1;
    for (const char *app : {"fft", "ocean", "barnes", "radix"}) {
        for (int i = 0; i < horizons; ++i) {
            sim::CampaignPoint p;
            p.name = std::string(app) + ".h" + std::to_string(i);
            p.job = {paperConfig(64, sim::NetKind::Fsoi, seed),
                     workload::appByName(app), 1.0};
            p.job.config.max_cycles =
                warmup + static_cast<Cycle>(i + 1) * step;
            p.warm_family = app;
            w.points.push_back(std::move(p));
        }
    }
    return w;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    if (name == "paper16")
        return paperSweep(16, smoke ? 0.01 : 0.25, seed);
    if (name == "paper64")
        return paperSweep(64, smoke ? 0.002 : 0.008, seed);
    if (name == "idle16")
        return idleSweep(20, smoke ? 0.25 : 4.0, seed);
    if (name == "campaign64")
        return smoke ? horizonCampaign(4'000, 1'000, 2, 2'000, seed)
                     : horizonCampaign(40'000, 10'000, 9, 20'000, seed);
    fatal("unknown workload '%s' (paper16, paper64, idle16, campaign64)",
          name.c_str());
}

// ---------------------------------------------------------------------
// Per-layer accounting. The simulator's host.* stats are read by name:
// one it stops publishing reads as NaN, which turns the metrics built
// on it into nulls (dropped with a warning) instead of breaking the
// build.

/** @p num / @p den, 0 when nothing was counted; NaN propagates. */
double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/** NaN for a host.* stat the simulator does not publish; warns once. */
double
missingStat(const std::string &name)
{
    static std::set<std::string> warned;
    if (warned.insert(name).second)
        std::fprintf(stderr, "warning: stat '%s' not published; metrics "
                             "built on it are dropped\n", name.c_str());
    return std::nan("");
}

double
statByName(const sim::System &sys, const std::string &name)
{
    const auto *e = sys.statRegistry().find(name);
    return e && e->derived ? e->derived() : missingStat(name);
}

enum NetClass { kMeshNet, kIdealNet, kFsoiNet, kNumNetClasses };

NetClass
netClassOf(sim::NetKind kind)
{
    switch (kind) {
      case sim::NetKind::Mesh: return kMeshNet;
      case sim::NetKind::Fsoi: return kFsoiNet;
      default: return kIdealNet;
    }
}

/** Sums over the traced pass (and, for campaign64, its replicas). */
struct LayerTotals
{
    double construct_s = 0, load_s = 0, run_s = 0;
    int systems = 0;
    std::map<std::string, double> host; //!< host.* stats summed by name
    double net_ns[kNumNetClasses] = {};
    double net_sampled[kNumNetClasses] = {};
    std::uint64_t instructions = 0, packets = 0;
    double miss_rate_sum = 0;
    int results = 0;

    void
    addResult(const sim::RunResult &r)
    {
        instructions += r.instructions;
        packets += r.packets_delivered;
        miss_rate_sum += r.l1_miss_rate;
        ++results;
    }

    void
    addRun(const sim::System &sys, double seconds)
    {
        run_s += seconds;
        for (const auto &e : sys.statRegistry().entries())
            if (e.derived && e.name.rfind("host.", 0) == 0)
                host[e.name] += e.derived();
        const NetClass nc = netClassOf(sys.config().network);
        net_ns[nc] += statByName(sys, "host.profile.network.ns");
        net_sampled[nc] += statByName(sys, "host.profile.sampled_cycles");
    }

    double
    sum(const std::string &name) const
    {
        const auto it = host.find(name);
        return it == host.end() ? missingStat(name) : it->second;
    }
};

// ---------------------------------------------------------------------
// Passes.

struct PassResult
{
    double wall_s = 0;
    std::vector<double> run_s;   //!< per run: ctor to run() return
    std::vector<double> setup_s; //!< per System built: ctor + loadApp
    std::vector<Cycle> cycles;   //!< per run: simulated cycles
    std::vector<std::pair<std::string, std::string>> digests;
    std::vector<std::string> failures;
};

/** System ctor + loadApp, timed into @p setup_s (if given) and, when
 *  traced, spanned. */
std::unique_ptr<sim::System>
buildSystem(const sim::SweepJob &job, int run, SpanLog *log,
            LayerTotals *layers, std::vector<double> *setup_s)
{
    Span construct(log, "sim.construct", run);
    auto sys = std::make_unique<sim::System>(job.config);
    const double c = construct.close();
    Span load(log, "workload.load", run);
    sys->loadApp(job.app.scaled(job.scale));
    const double l = load.close();
    if (setup_s)
        setup_s->push_back(c + l);
    if (layers) {
        layers->construct_s += c;
        layers->load_s += l;
        ++layers->systems;
    }
    return sys;
}

PassResult
sweepPass(const Workload &w, SpanLog *log, LayerTotals *layers)
{
    PassResult pass;
    Span whole(log, "pass");
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const Run &run = w.runs[i];
        const int id = static_cast<int>(i);
        Span total(log, "sweep.run", id);
        auto sys = buildSystem(run.job, id, log, layers, &pass.setup_s);
        Span timed(log, "sim.run", id);
        const sim::RunResult r = sys->run();
        const double run_s = timed.close();
        if (layers) {
            layers->addRun(*sys, run_s);
            layers->addResult(r);
        }
        pass.run_s.push_back(total.close());
        pass.cycles.push_back(r.cycles);
        pass.digests.emplace_back(run.name, digestOf(r));
        if (!r.completed)
            pass.failures.push_back(run.name + ": hit max_cycles");
    }
    pass.wall_s = whole.close();
    return pass;
}

/**
 * One campaign pass in a fresh directory. Points go through one
 * CampaignRunner one at a time, which is what run() over the whole
 * list does at jobs=1, so each point's host time can be taken.
 * Horizon points end at max_cycles by design.
 */
PassResult
campaignPass(const Workload &w, const std::string &dir, Cycle every,
             SpanLog *log, LayerTotals *layers)
{
    PassResult pass;
    // The campaign builds its Systems internally (one per family
    // warmup, one per point); set-up time is taken by building the same
    // Systems here, outside the timed pass.
    {
        Span setup(log, "campaign.setup");
        std::set<std::string> warmed;
        int id = 0;
        for (const auto &p : w.points) {
            if (warmed.insert(p.warm_family).second)
                buildSystem(p.job, id, log, layers, &pass.setup_s);
            buildSystem(p.job, id++, log, layers, &pass.setup_s);
        }
    }

    fs::remove_all(dir);
    Span whole(log, "pass");
    sim::CampaignConfig cc = w.campaign;
    cc.dir = dir;
    cc.checkpoint_every = every;
    std::vector<sim::CampaignOutcome> outcomes;
    {
        sim::CampaignRunner runner(cc);
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            Span point(log, "campaign.point", static_cast<int>(i));
            outcomes.push_back(runner.run({w.points[i]}).front());
            pass.run_s.push_back(point.close());
        }
    }
    std::ostringstream report;
    {
        Span write(log, "campaign.write_json");
        sim::CampaignRunner::writeJson(report, outcomes);
    }
    pass.wall_s = whole.close();
    fs::remove_all(dir);

    for (const auto &o : outcomes) {
        pass.cycles.push_back(o.result.cycles);
        pass.digests.emplace_back(o.name, digestOf(o.result));
        if (o.quarantined)
            pass.failures.push_back(o.name + ": quarantined");
        if (layers)
            layers->addResult(o.result);
    }
    Digest d;
    d.str(report.str());
    pass.digests.emplace_back("report", d.hex());
    return pass;
}

PassResult
runPass(const Workload &w, const std::string &scratch, SpanLog *log,
        LayerTotals *layers)
{
    if (w.points.empty())
        return sweepPass(w, log, layers);
    return campaignPass(w, scratch + "/campaign", w.campaign.checkpoint_every,
                        log, layers);
}

/**
 * Traced campaign64 only: the campaign's Systems are out of reach, so
 * the simulator counters come from a direct run of each family's
 * longest point (warmup included), the same simulation cold.
 */
void
campaignReplicas(const Workload &w, SpanLog *log, LayerTotals &layers)
{
    std::map<std::string, const sim::CampaignPoint *> longest;
    for (const auto &p : w.points)
        longest[p.warm_family] = &p;
    int id = 0;
    for (const auto &[family, p] : longest) {
        Span replica(log, "campaign.replica", id);
        auto sys = buildSystem(p->job, id, log, &layers, nullptr);
        Span timed(log, "sim.run", id++);
        sys->run();
        layers.addRun(*sys, timed.close());
    }
}

/** Periodic checkpoints the campaign writes, from its schedule: every
 *  multiple of `every` strictly inside each point's restored span, plus
 *  one warm snapshot per family. */
std::uint64_t
scheduledCheckpoints(const Workload &w)
{
    const Cycle every = w.campaign.checkpoint_every;
    const Cycle start = w.campaign.warmup_cycles;
    std::set<std::string> families;
    std::uint64_t n = 0;
    for (const auto &p : w.points) {
        families.insert(p.warm_family);
        const Cycle end = p.job.config.max_cycles;
        n += (end - 1) / every - start / every;
    }
    return n + families.size();
}

// ---------------------------------------------------------------------
// Probes (traced runs only): single layers driven in isolation.

struct NetProbe
{
    double ns_per_cycle = 0;
    double ns_per_packet = 0;
    double collision_frac = 0;
};

/** Uniform random traffic from the cores at @p rate packets per core
 *  per cycle for @p cycles, then drained; costs are per ticked cycle
 *  and per delivered packet. */
NetProbe
probeNetwork(SpanLog *log, const char *name, sim::NetKind kind, int cores,
             double rate, Cycle cycles, std::uint64_t seed)
{
    const auto cfg = paperConfig(cores, kind, seed);
    const noc::MeshLayout layout(cores, cfg.num_memctls);
    std::unique_ptr<noc::Network> net;
    if (kind == sim::NetKind::Fsoi) {
        auto fcfg = cfg.fsoi;
        fcfg.seed = seed;
        net = std::make_unique<::fsoi::fsoi::FsoiNetwork>(layout, fcfg);
    } else {
        net = std::make_unique<noc::MeshNetwork>(layout, cfg.mesh);
    }
    for (int n = 0; n < layout.numEndpoints(); ++n)
        net->setHandler(static_cast<NodeId>(n), [](noc::Packet &) {});
    workload::TrafficConfig tc;
    tc.injection_rate = rate;
    tc.active_endpoints = cores;
    tc.seed = seed;
    workload::TrafficGenerator gen(*net, tc, layout.side());
    Span span(log, name);
    const workload::TrafficResult res = gen.run(cycles);
    const double ns = span.close() * 1e9;
    const auto &st = net->stats();
    NetProbe out;
    out.ns_per_cycle = ns / static_cast<double>(net->now() + 1);
    out.ns_per_packet = ratio(ns, static_cast<double>(res.delivered));
    out.collision_frac = ratio(
        static_cast<double>(st.collisions(noc::PacketClass::Meta)
                            + st.collisions(noc::PacketClass::Data)),
        static_cast<double>(st.attempts(noc::PacketClass::Meta)
                            + st.attempts(noc::PacketClass::Data)));
    return out;
}

/** ns per InstrStream::next() over @p total generated instructions,
 *  split evenly across @p apps. */
double
probeGenerator(SpanLog *log, const char *name,
               const std::vector<workload::AppProfile> &apps,
               std::uint64_t total, std::uint64_t seed)
{
    const std::uint64_t each = total / apps.size();
    Span span(log, name);
    for (const auto &app : apps) {
        auto profile = app;
        profile.instructions = std::uint64_t{1} << 40; // never reach End
        auto stream = workload::makeAppStream(profile, 0, 16, seed);
        for (std::uint64_t i = 0; i < each; ++i)
            if (stream->next().op == workload::Op::End)
                fatal("generator probe: %s ended early", app.name.c_str());
    }
    return ratio(span.close() * 1e9, static_cast<double>(each * apps.size()));
}

/** Probe sizes; --smoke shrinks them tenfold. */
struct ProbeSize
{
    Cycle net16 = 200'000;
    Cycle net64 = 50'000; //!< an 8x8 mesh cycle costs ~6x a 4x4 one
    std::uint64_t instrs = 2'000'000;
    int snapshots = 20;
    Cycle snapshot_at = 100'000;
};

constexpr ProbeSize kSmokeProbes{20'000, 5'000, 200'000, 2, 10'000};

struct SnapshotProbe
{
    double save_ms = 0, restore_ms = 0, bytes = 0;
};

/** A 64-core FSOI ocean System at cycle snapshot_at: repeated
 *  saveCheckpoint, and restoreCheckpoint into fresh Systems. */
SnapshotProbe
probeSnapshot(SpanLog *log, const std::string &dir, std::uint64_t seed,
              const ProbeSize &size)
{
    sim::SweepJob job{paperConfig(64, sim::NetKind::Fsoi, seed),
                      workload::appByName("ocean"), 1.0};
    job.config.max_cycles = size.snapshot_at;
    fs::create_directories(dir);
    const std::string path = dir + "/probe.ckpt";
    const double reps = size.snapshots;
    Span probe(log, "probe.snapshot");
    SnapshotProbe out;
    {
        auto sys = buildSystem(job, -1, nullptr, nullptr, nullptr);
        sys->run();
        for (int i = 0; i < size.snapshots; ++i) {
            Span save(log, "snapshot.save", i);
            sys->saveCheckpoint(path);
            out.save_ms += save.close() * 1e3 / reps;
        }
    }
    out.bytes = static_cast<double>(fs::file_size(path));
    for (int i = 0; i < size.snapshots; ++i) {
        auto fresh = buildSystem(job, i, nullptr, nullptr, nullptr);
        Span restore(log, "snapshot.restore", i);
        fresh->restoreCheckpoint(path);
        out.restore_ms += restore.close() * 1e3 / reps;
    }
    fs::remove(path);
    return out;
}

// ---------------------------------------------------------------------
// Output.

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    return "\"" + obs::jsonEscape(s) + "\"";
}

/** Metric or field name -> its JSON text. */
using JsonMap = std::map<std::string, std::string>;

void
writeObject(std::ostream &os, const JsonMap &m)
{
    os << "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ",") << quoted(k) << ":" << v;
        first = false;
    }
    os << "}";
}

/** FSOI / L0 / Lr1 / Lr2 geometric-mean speedups over the mesh, per
 *  app, as Fig. 6(b) computes them (paper sweeps only). */
JsonMap
speedups(const Workload &w, const PassResult &pass)
{
    std::map<std::string, std::vector<double>> per;
    std::map<std::string, double> mesh;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const auto &job = w.runs[i].job;
        const double cycles = static_cast<double>(pass.cycles[i]);
        if (job.config.network == sim::NetKind::Mesh)
            mesh[job.app.name] = cycles;
        else
            per[std::string("geomean_")
                + sim::netKindName(job.config.network)]
                .push_back(mesh.at(job.app.name) / cycles);
    }
    JsonMap out;
    for (const auto &[k, v] : per)
        out[k] = num(geometricMean(v));
    return out;
}

/** Metrics on the traced pass's spans, results and host.* stats. */
void
addSystemLayers(const LayerTotals &L, JsonMap &m)
{
    m["sim.construct_ms"] = num(ratio(L.construct_s * 1e3, L.systems));
    m["workload.load_ms"] = num(ratio(L.load_s * 1e3, L.systems));
    m["sim.instructions"] = num(static_cast<double>(L.instructions));
    m["noc.packets_delivered"] = num(static_cast<double>(L.packets));
    m["coherence.l1_miss_rate"] = num(ratio(L.miss_rate_sum, L.results));

    const double executed = L.sum("host.sched.cycles_executed");
    const double sampled = L.sum("host.profile.sampled_cycles");
    const double run_ns = ratio(L.run_s * 1e9, executed);
    auto phase = [&](const char *name) {
        return num(ratio(L.sum(std::string("host.profile.") + name + ".ns"),
                         sampled));
    };
    auto net = [&L](NetClass c) {
        return num(ratio(L.net_ns[c], L.net_sampled[c]));
    };
    m["sim.run_ns_per_exec_cycle"] = num(run_ns);
    m["sim.sched.skip_frac"] = num(ratio(
        L.sum("host.sched.cycles_skipped"),
        executed + L.sum("host.sched.cycles_skipped")));
    m["sim.sched.events_per_exec_cycle"] =
        num(ratio(L.sum("host.sched.events_dispatched"), executed));
    m["sim.sched.ns_per_sampled_cycle"] = phase("sched");
    m["sim.local_route.ns_per_sampled_cycle"] = phase("local_route");
    m["noc.mesh.ns_per_sampled_cycle"] = net(kMeshNet);
    m["noc.ideal.ns_per_sampled_cycle"] = net(kIdealNet);
    m["fsoi.ns_per_sampled_cycle"] = net(kFsoiNet);
    m["coherence.dir.ns_per_sampled_cycle"] = phase("directory");
    m["coherence.l1.ns_per_sampled_cycle"] = phase("l1");
    m["memory.ns_per_sampled_cycle"] = phase("memory");
    m["cpu.ns_per_sampled_cycle"] = phase("core");

    // 1.0 when a sampled cycle costs what the average executed cycle
    // does; the *_per_sampled_cycle rows are only as good as this.
    double all_phases = 0;
    for (const auto &[name, v] : L.host)
        if (name.rfind("host.profile.", 0) == 0 && name.ends_with(".ns"))
            all_phases += v;
    m["obs.profile_coverage"] = num(ratio(ratio(all_phases, sampled), run_ns));
}

void
addProbeLayers(SpanLog &log, const std::string &scratch,
               std::uint64_t seed, const ProbeSize &size, JsonMap &m)
{
    constexpr double lo = 0.02, hi = 0.10;
    const auto probe = [&](const char *name, sim::NetKind kind, int cores,
                           double rate, Cycle cycles) {
        return probeNetwork(&log, name, kind, cores, rate, cycles, seed);
    };
    const auto m16lo = probe("probe.noc.mesh16.lo", sim::NetKind::Mesh, 16,
                             lo, size.net16);
    const auto m16hi = probe("probe.noc.mesh16.hi", sim::NetKind::Mesh, 16,
                             hi, size.net16);
    const auto m64hi = probe("probe.noc.mesh64.hi", sim::NetKind::Mesh, 64,
                             hi, size.net64);
    const auto f16lo = probe("probe.fsoi.lo", sim::NetKind::Fsoi, 16, lo,
                             size.net16);
    const auto f16hi = probe("probe.fsoi.hi", sim::NetKind::Fsoi, 16, hi,
                             size.net16);
    m["noc.mesh16.ns_per_cycle.lo"] = num(m16lo.ns_per_cycle);
    m["noc.mesh16.ns_per_cycle.hi"] = num(m16hi.ns_per_cycle);
    m["noc.mesh64.ns_per_cycle.hi"] = num(m64hi.ns_per_cycle);
    m["noc.mesh16.ns_per_packet.hi"] = num(m16hi.ns_per_packet);
    m["fsoi.ns_per_cycle.lo"] = num(f16lo.ns_per_cycle);
    m["fsoi.ns_per_cycle.hi"] = num(f16hi.ns_per_cycle);
    m["fsoi.ns_per_packet.hi"] = num(f16hi.ns_per_packet);
    m["fsoi.collision_frac.hi"] = num(f16hi.collision_frac);

    m["workload.gen_ns_per_instr.paper"] =
        num(probeGenerator(&log, "probe.workload.gen.paper",
                           workload::paperApps(), size.instrs, seed));
    m["workload.gen_ns_per_instr.idle"] =
        num(probeGenerator(&log, "probe.workload.gen.idle",
                           {workload::idleHeavyProfile()}, size.instrs,
                           seed));

    const auto snap = probeSnapshot(&log, scratch + "/snapshot", seed, size);
    m["snapshot.save_ms"] = num(snap.save_ms);
    m["snapshot.restore_ms"] = num(snap.restore_ms);
    m["snapshot.bytes"] = num(snap.bytes);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0;
    int passes = 3;
    bool smoke = false;
    int crosscheck = 0;
    std::string trace;
    std::string out;
    std::string scratch;
};

const char *
matchValue(const char *arg, const char *name)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *v = matchValue(arg, "--workload"))
            a.workload = v;
        else if (const char *v = matchValue(arg, "--seed"))
            a.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = matchValue(arg, "--seconds"))
            a.seconds = std::atof(v);
        else if (const char *v = matchValue(arg, "--passes"))
            a.passes = std::max(1, std::atoi(v));
        else if (std::strcmp(arg, "--smoke") == 0)
            a.smoke = true;
        else if (const char *v = matchValue(arg, "--crosscheck"))
            a.crosscheck = std::max(0, std::atoi(v));
        else if (const char *v = matchValue(arg, "--trace"))
            a.trace = v;
        else if (const char *v = matchValue(arg, "--out"))
            a.out = v;
        else if (const char *v = matchValue(arg, "--scratch"))
            a.scratch = v;
        else
            fatal("unknown argument '%s' (see the file header for usage)",
                  arg);
    }
    if (a.workload.empty() || a.out.empty() || a.scratch.empty())
        fatal("fsoi_bench needs --workload, --out and --scratch");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload w = makeWorkload(args.workload, args.seed, args.smoke);
    const bool traced = !args.trace.empty();
    fs::create_directories(args.scratch);

    // Discarded warm-up: page in code and allocator arenas before timing.
    sim::SweepRunner::runJob(
        {paperConfig(16, sim::NetKind::Mesh, 1),
         workload::appByName("fft"), 0.05},
        false);

    std::vector<PassResult> passes;
    const std::int64_t t0 = nowNs();
    do {
        passes.push_back(runPass(w, args.scratch, nullptr, nullptr));
    } while (static_cast<int>(passes.size()) < args.passes
             || (nowNs() - t0) / 1e9 + passes.back().wall_s
                    <= args.seconds);
    const std::size_t timed = passes.size();

    SpanLog log;
    JsonMap layer;
    if (traced) {
        LayerTotals totals;
        passes.push_back(runPass(w, args.scratch, &log, &totals));
        // Per run, traced time over the best untraced time; the median
        // over runs ignores host-noise bursts that hit either pass.
        std::vector<double> slowdown;
        const PassResult &tp = passes.back();
        for (std::size_t r = 0; r < tp.run_s.size(); ++r) {
            double best = passes[0].run_s[r];
            for (std::size_t i = 1; i < timed; ++i)
                best = std::min(best, passes[i].run_s[r]);
            slowdown.push_back(tp.run_s[r] / best);
        }
        std::sort(slowdown.begin(), slowdown.end());
        layer["bench.trace_overhead"] =
            num(slowdown[slowdown.size() / 2] - 1.0);

        double share = 0, written = 0;
        if (!w.points.empty()) {
            campaignReplicas(w, &log, totals);
            const Cycle never = w.points.back().job.config.max_cycles + 1;
            const PassResult off = campaignPass(
                w, args.scratch + "/campaign", never, nullptr, nullptr);
            share = 1.0 - off.wall_s / passes[0].wall_s;
            written = static_cast<double>(scheduledCheckpoints(w));
        }
        layer["snapshot.periodic_share"] = num(share);
        layer["snapshot.checkpoints_written"] = num(written);

        addSystemLayers(totals, layer);
        addProbeLayers(log, args.scratch, args.seed,
                       args.smoke ? kSmokeProbes : ProbeSize{}, layer);
        log.writeChrome(args.trace);
    }

    // Every pass must reproduce pass 0's digests, and the sampled runs
    // must match through the figure benches' SweepRunner::runJob.
    const PassResult &first = passes.front();
    std::vector<std::string> failures;
    std::uint64_t attempted = 0, failed = 0;
    for (const PassResult &p : passes) {
        attempted += p.run_s.size();
        failed += p.failures.size();
        failures.insert(failures.end(), p.failures.begin(),
                        p.failures.end());
        for (std::size_t i = 0; i < p.digests.size(); ++i)
            if (p.digests[i] != first.digests[i]) {
                failures.push_back(p.digests[i].first
                                   + ": digest changed between passes");
                ++failed;
            }
    }
    std::vector<sim::SweepJob> jobs;
    for (const auto &r : w.runs)
        jobs.push_back(r.job);
    for (const auto &p : w.points)
        jobs.push_back(p.job);
    const std::size_t n = jobs.size();
    for (int k = 0; k < args.crosscheck; ++k) {
        // Evenly spaced, shifted by k so that matrices alternating
        // network kinds get every kind sampled.
        const std::size_t i =
            ((2 * k + 1) * n / (2 * args.crosscheck) + k) % n;
        const auto r = sim::SweepRunner::runJob(jobs[i], false).result;
        ++attempted;
        const std::string &name = first.digests[i].first;
        if (digestOf(r) == first.digests[i].second) {
            std::fprintf(stderr, "crosscheck ok: %s\n", name.c_str());
        } else {
            failures.push_back(name + ": SweepRunner::runJob digest "
                                      "differs");
            ++failed;
        }
    }
    fs::remove_all(args.scratch);

    std::ofstream os(args.out);
    if (!os)
        fatal("cannot write '%s'", args.out.c_str());
    os << "{\"workload\":" << quoted(args.workload)
       << ",\"seed\":" << args.seed
       << ",\"smoke\":" << (args.smoke ? "true" : "false")
       << ",\"params\":" << quoted(w.params)
       << ",\"passes_run\":" << passes.size() << ",\"passes\":[";
    const auto list = [&os](const std::vector<double> &xs) {
        os << "[";
        for (std::size_t i = 0; i < xs.size(); ++i)
            os << (i ? "," : "") << num(xs[i]);
        os << "]";
    };
    for (std::size_t i = 0; i < timed; ++i) {
        os << (i ? "," : "") << "{\"wall_s\":" << num(passes[i].wall_s)
           << ",\"cycles\":"
           << std::accumulate(passes[i].cycles.begin(),
                              passes[i].cycles.end(), Cycle{0})
           << ",\"run_s\":";
        list(passes[i].run_s);
        os << ",\"setup_s\":";
        list(passes[i].setup_s);
        os << "}";
    }
    os << "]";
    JsonMap digests;
    for (const auto &[name, hex] : first.digests)
        digests[name] = quoted(hex);
    os << ",\"digests\":";
    writeObject(os, digests);
    os << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        os << (i ? "," : "") << quoted(failures[i]);
    os << "],\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"peak_rss_mb\":" << num(peakRssMb()) << ",\"info\":";
    writeObject(os, args.workload.rfind("paper", 0) == 0
                        ? speedups(w, first) : JsonMap{});
    if (traced) {
        JsonMap self;
        for (const auto &[name, v] : log.selfTimes())
            self[name] = "{\"self_ms\":" + num(v.first / 1e6)
                + ",\"count\":" + std::to_string(v.second) + "}";
        os << ",\"layers\":";
        writeObject(os, layer);
        os << ",\"self\":";
        writeObject(os, self);
    }
    os << "}\n";
    return os.good() ? 0 : 1;
}
