/**
 * @file
 * Run-health watchdog and flight-recorder post-mortems.
 *
 * The watchdog classification is pure cycle arithmetic, so it is
 * tested synthetically: a flat instruction feed with a quiet network
 * is a deadlock, a flat instruction feed with a busy network is a
 * livelock, and any retirement progress resets the verdict.
 *
 * The flight-recorder tests build a deliberately wedged protocol
 * fixture -- an L1 whose transport silently drops every message, so
 * its miss can never complete -- and assert the post-mortem dump is
 * valid JSON naming the stuck transaction's owner and line. A full
 * 16-core run then validates the composed dump (events + system
 * context read from the controllers, including per-link network
 * state); a restored run's dump lists the misses its checkpoint held;
 * a watchdog trip inside a parallel sweep appends exactly one
 * document, for the System that wedged; and a trip without faults
 * panics naming the file that holds its one document.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coherence/l1_cache.hh"
#include "common/logging.hh"
#include "noc/mesh_network.hh"
#include "obs/crash.hh"
#include "obs/flight_recorder.hh"
#include "obs/json_reader.hh"
#include "obs/watchdog.hh"
#include "sim/sweep_runner.hh"
#include "sim/system.hh"
#include "workload/apps.hh"

namespace fsoi {
namespace {

using obs::Watchdog;
using obs::WatchdogVerdict;

TEST(Watchdog, OkWhileInstructionsRetire)
{
    Watchdog w({1000});
    EXPECT_EQ(w.check(0, 0, 0).verdict, WatchdogVerdict::Ok);
    // Progress every check: never trips, however far apart the checks.
    for (Cycle now = 500; now <= 10'000; now += 500)
        EXPECT_EQ(w.check(now, now, 0).verdict, WatchdogVerdict::Ok);
}

TEST(Watchdog, QuietNetworkClassifiesAsDeadlock)
{
    Watchdog w({1000});
    EXPECT_EQ(w.check(100, 5, 7).verdict, WatchdogVerdict::Ok);
    // Both feeds flat past the window: nothing is moving anywhere.
    EXPECT_EQ(w.check(900, 5, 7).verdict, WatchdogVerdict::Ok);
    const auto report = w.check(2000, 5, 7);
    EXPECT_EQ(report.verdict, WatchdogVerdict::Deadlock);
    EXPECT_EQ(report.stalled_for, 1900u);
    EXPECT_EQ(report.net_quiet_for, 1900u);
}

TEST(Watchdog, BusyNetworkClassifiesAsLivelock)
{
    Watchdog w({1000});
    EXPECT_EQ(w.check(100, 5, 7).verdict, WatchdogVerdict::Ok);
    // Packets keep moving (retry storm) while no instruction retires.
    const auto report = w.check(2000, 5, 900);
    EXPECT_EQ(report.verdict, WatchdogVerdict::Livelock);
    EXPECT_EQ(report.stalled_for, 1900u);
    EXPECT_EQ(report.net_quiet_for, 0u);
}

TEST(Watchdog, RetryGraceExtendsTripWindow)
{
    // quiet_window 1000 + retry_grace 600: a healthy fault-driven
    // retransmission burst may keep the instruction feed flat past the
    // base window without being misclassified as a livelock.
    Watchdog w({1000, 600});
    EXPECT_EQ(w.check(0, 5, 7).verdict, WatchdogVerdict::Ok);
    // Flat for 1500 cycles: past quiet_window, inside the grace.
    EXPECT_EQ(w.check(1500, 5, 900).verdict, WatchdogVerdict::Ok);
    // Flat past quiet_window + retry_grace: now it trips, and the
    // still-churning network classifies it as a livelock.
    const auto report = w.check(2200, 5, 1800);
    EXPECT_EQ(report.verdict, WatchdogVerdict::Livelock);
    EXPECT_EQ(report.stalled_for, 2200u);
}

TEST(Watchdog, RetryGraceAlsoStretchesDeadlockBoundary)
{
    // Both feeds flat past the stretched window: a genuine deadlock,
    // not a retry burst -- the classification boundary moves with the
    // trip threshold so the two verdicts stay consistent.
    Watchdog w({1000, 600});
    EXPECT_EQ(w.check(0, 5, 7).verdict, WatchdogVerdict::Ok);
    const auto report = w.check(2200, 5, 7);
    EXPECT_EQ(report.verdict, WatchdogVerdict::Deadlock);
    EXPECT_EQ(report.net_quiet_for, 2200u);
}

TEST(Watchdog, VerdictNames)
{
    EXPECT_STREQ(obs::watchdogVerdictName(WatchdogVerdict::Ok), "ok");
    EXPECT_STREQ(obs::watchdogVerdictName(WatchdogVerdict::Deadlock),
                 "deadlock");
    EXPECT_STREQ(obs::watchdogVerdictName(WatchdogVerdict::Livelock),
                 "livelock");
}

/** A transport that claims success and drops everything: any miss
 *  issued through it hangs forever, which is exactly the stuck state
 *  the flight recorder must describe. */
class DropTransport : public coherence::Transport
{
  public:
    bool
    trySend(NodeId, NodeId, const coherence::Message &) override
    {
        ++dropped_;
        return true;
    }

    int dropped() const { return dropped_; }

  private:
    int dropped_ = 0;
};

TEST(FlightRecorder, NamesStuckMshrInDump)
{
    obs::FlightRecorder rec(64);
    DropTransport transport;
    coherence::FunctionalMemory memory;
    bool completed = false;
    coherence::L1Cache l1(/*node=*/3, coherence::L1Config{}, transport,
                          memory, [](Addr) { return NodeId{7}; },
                          [&](std::uint64_t, bool) { completed = true; });
    l1.setFlightRecorder(&rec);
    // The stuck state comes from the L1 itself, as the System's
    // context writer reads it.
    rec.setContextWriter([&](std::ostream &os) {
        os << "\"l1s\":[";
        l1.writeJson(os, 100);
        os << "]";
    });

    const Addr addr = 0x12340;
    ASSERT_TRUE(l1.load(addr));
    for (Cycle now = 0; now < 100; ++now)
        l1.tick(now);

    // The request went into the void: the miss is still outstanding.
    EXPECT_FALSE(completed);
    EXPECT_EQ(l1.outstandingMisses(), 1u);
    EXPECT_GE(transport.dropped(), 1);

    std::ostringstream os;
    rec.dumpJson(os, "test:deadlock", 100);
    const std::string dump = os.str();

    EXPECT_TRUE(obs::json::valid(dump)) << dump;
    EXPECT_NE(dump.find("\"reason\":\"test:deadlock\""),
              std::string::npos);
    // The L1's writer names the stuck transaction: an MSHR owned by
    // node 3, on the line the load missed on.
    EXPECT_NE(dump.find("\"kind\":\"mshr\""), std::string::npos);
    EXPECT_NE(dump.find("\"node\":3"), std::string::npos);
    const std::string line_field =
        "\"line\":" + std::to_string(addr & ~Addr{31});
    EXPECT_NE(dump.find(line_field), std::string::npos) << dump;
    // And the event ring holds the allocation that started it.
    EXPECT_NE(dump.find("\"kind\":\"mshr_alloc\""), std::string::npos);
}

TEST(FlightRecorder, DisabledRecorderCostsNothingAndDumpsEmpty)
{
    obs::FlightRecorder rec(0);
    EXPECT_FALSE(rec.enabled());
    std::ostringstream os;
    rec.dumpJson(os, "noop", 0);
    EXPECT_TRUE(obs::json::valid(os.str())) << os.str();
}

TEST(FlightRecorder, RingKeepsOnlyMostRecentEvents)
{
    obs::FlightRecorder rec(4);
    for (Cycle c = 0; c < 10; ++c)
        rec.record(obs::FlightEventKind::MsgSend, c, 0, 1, 0x40, 0);
    std::ostringstream os;
    rec.dumpJson(os, "wrap", 10);
    const std::string dump = os.str();
    EXPECT_TRUE(obs::json::valid(dump)) << dump;
    // Events 0..5 fell off the ring; 6..9 survive.
    EXPECT_EQ(dump.find("\"cycle\":5,"), std::string::npos);
    EXPECT_NE(dump.find("\"cycle\":6,"), std::string::npos);
    EXPECT_NE(dump.find("\"cycle\":9,"), std::string::npos);
    EXPECT_NE(dump.find("\"recorded\":10"), std::string::npos);
}

TEST(MeshNetwork, LinkStateJsonParses)
{
    const noc::MeshLayout layout(16, 4);
    noc::MeshNetwork mesh(layout, noc::MeshConfig{});
    std::ostringstream os;
    mesh.writeLinkStateJson(os);
    EXPECT_TRUE(obs::json::valid(os.str())) << os.str();
}

TEST(CrashHooks, PanicWritesParsableFlightDump)
{
    const std::string path =
        ::testing::TempDir() + "crash_flight_dump.json";
    ::setenv("FSOI_FLIGHT_FILE", path.c_str(), 1);
    std::remove(path.c_str());

    // The child process takes the real crash path: panic() runs the
    // fatal hook, which dumps every live recorder before aborting.
    EXPECT_DEATH(
        {
            obs::installCrashHooks();
            obs::FlightRecorder rec(16);
            rec.record(obs::FlightEventKind::MshrAlloc, /*cycle=*/5,
                       /*node=*/2, kInvalidNode, /*line=*/128,
                       /*detail=*/0);
            panic("induced failure for flight-dump test");
        },
        "induced failure for flight-dump test");

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no flight dump at " << path;
    std::string line;
    int documents = 0;
    bool found_mshr = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        EXPECT_TRUE(obs::json::valid(line)) << line;
        ++documents;
        if (line.find("\"kind\":\"mshr_alloc\"") != std::string::npos
            && line.find("\"node\":2") != std::string::npos
            && line.find("\"line\":128") != std::string::npos)
            found_mshr = true;
    }
    EXPECT_GE(documents, 1);
    EXPECT_TRUE(found_mshr);
    ::unsetenv("FSOI_FLIGHT_FILE");
}

/** Plays a fixed instruction list, then Op::End forever. */
class ScriptedStream : public workload::InstrStream
{
  public:
    explicit ScriptedStream(std::vector<workload::Instr> instrs)
        : instrs_(std::move(instrs))
    {}

    workload::Instr
    next() override
    {
        return pos_ < instrs_.size() ? instrs_[pos_++] : workload::Instr{};
    }

  private:
    std::vector<workload::Instr> instrs_;
    std::size_t pos_ = 0;
};

/**
 * Without fault injection a wedge is a simulator bug: core 0 takes a
 * lock and ends without releasing it, core 1 spins on it forever, and
 * the watchdog trip panics.
 */
void
runLockNeverReleased()
{
    auto cfg = sim::SystemConfig::paperConfig(4, sim::NetKind::Mesh);
    cfg.progress_stall_limit = 50'000;
    sim::System sys(cfg);
    const workload::Instr lock{workload::Op::Lock, 0x4000, 0, 0};
    for (NodeId n = 0; n < 4; ++n) {
        std::vector<workload::Instr> script;
        if (n < 2)
            script.push_back(lock);
        sys.bindStream(n, std::make_unique<ScriptedStream>(script));
    }
    sys.run();
}

TEST(CrashHooks, PanicAfterTripWritesTheTrippingSystemOnce)
{
    const std::string path =
        ::testing::TempDir() + "trip_panic_flight.json";
    ::setenv("FSOI_FLIGHT_FILE", path.c_str(), 1);
    std::remove(path.c_str());

    // The panic names the dump file the trip appended to.
    EXPECT_DEATH(runLockNeverReleased(),
                 "no instruction retired .*flight dump: " + path);
    ::unsetenv("FSOI_FLIGHT_FILE");

    // The trip wrote the one document; the panic's crash hooks did not
    // write the tripping System again.
    std::ifstream in(path);
    std::vector<std::string> docs;
    for (std::string line; std::getline(in, line);)
        docs.push_back(line);
    std::remove(path.c_str());
    ASSERT_EQ(docs.size(), 1u);
    EXPECT_TRUE(obs::json::valid(docs[0])) << docs[0];
    EXPECT_NE(docs[0].find("\"reason\":\"watchdog:"), std::string::npos)
        << docs[0].substr(0, 200);
}

TEST(FlightRecorder, FullSystemDumpParsesWithContext)
{
    sim::SweepJob job;
    job.config = sim::SystemConfig::paperConfig(16, sim::NetKind::Mesh);
    job.config.seed = 3;
    job.app = workload::appByName("fft");
    job.scale = 0.03;
    const auto outcome = sim::SweepRunner::runJob(job, true);
    ASSERT_TRUE(outcome.result.completed);

    std::ostringstream os;
    outcome.system->flightRecorder().dumpJson(os, "test:post-run",
                                              outcome.result.cycles);
    const std::string dump = os.str();
    EXPECT_TRUE(obs::json::valid(dump)) << dump;
    // A real run records protocol traffic with symbolic names wired in
    // by the System (message types, MSHR wants, directory txn kinds).
    EXPECT_NE(dump.find("\"detail_name\""), std::string::npos);
    // The context writer embeds system state incl. the mesh snapshot.
    EXPECT_NE(dump.find("\"network\":\"mesh\""), std::string::npos);
    EXPECT_NE(dump.find("\"cores\":["), std::string::npos);
}


/** Occurrences of @p needle in @p text. */
std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(FlightRecorder, RestoredRunDumpListsOutstandingMisses)
{
    // A 16-core FSOI fft run stopped at cycle 20000 has misses in
    // flight; checkpoint it there and restore into a fresh System.
    auto config = sim::SystemConfig::paperConfig(16, sim::NetKind::Fsoi);
    config.seed = 1;
    config.max_cycles = 20'000;
    const auto app = workload::appByName("fft").scaled(0.1);
    sim::System live(config);
    live.loadApp(app);
    ASSERT_FALSE(live.run().completed);
    const std::string path =
        ::testing::TempDir() + "flight_restored_run.ckpt";
    live.saveCheckpoint(path);
    sim::System restored(config);
    restored.loadApp(app);
    restored.restoreCheckpoint(path);
    std::remove(path.c_str());

    std::size_t outstanding = 0;
    for (NodeId n = 0; n < 16; ++n)
        outstanding += restored.l1(n).outstandingMisses();
    ASSERT_GT(outstanding, 0u);

    // Both dumps read the L1s, so both list every outstanding miss,
    // each with the cycle its miss started (checkpointed state).
    std::ostringstream live_os, restored_os;
    live.flightRecorder().dumpJson(live_os, "test:live", 20'000);
    restored.flightRecorder().dumpJson(restored_os, "test:restored",
                                       20'000);
    const std::string live_dump = live_os.str();
    const std::string restored_dump = restored_os.str();
    EXPECT_TRUE(obs::json::valid(restored_dump)) << restored_dump;
    EXPECT_EQ(countOf(live_dump, "\"kind\":\"mshr\""), outstanding);
    EXPECT_EQ(countOf(restored_dump, "\"kind\":\"mshr\""), outstanding);
    // Entry by entry the same misses, with the same start cycles (the
    // L1 lists MSHRs in slot order, which a restore may permute).
    const auto mshrs = [](const std::string &dump) {
        std::vector<std::string> entries;
        for (auto at = dump.find("{\"kind\":\"mshr\"");
             at != std::string::npos;
             at = dump.find("{\"kind\":\"mshr\"", at + 1))
            entries.push_back(dump.substr(at, dump.find('}', at) - at));
        std::sort(entries.begin(), entries.end());
        return entries;
    };
    EXPECT_EQ(mshrs(live_dump), mshrs(restored_dump));
}

TEST(FlightRecorder, SweepTripAppendsOneDocumentForItsOwnSystem)
{
    const std::string path =
        ::testing::TempDir() + "sweep_trip_flight.json";
    ::setenv("FSOI_FLIGHT_FILE", path.c_str(), 1);
    std::remove(path.c_str());

    const auto point = [](std::uint64_t seed) {
        sim::SweepJob job;
        job.config = sim::SystemConfig::paperConfig(16, sim::NetKind::Fsoi);
        job.config.seed = seed;
        job.app = workload::appByName("fft");
        job.scale = 0.03;
        return job;
    };
    // Node 0's meta VCSEL array is dead: the run wedges and the
    // watchdog trips after 50000 stalled cycles. The second wedged
    // point records no events, but still writes its trip document.
    auto wedged = point(3);
    wedged.config.fault.killTx(0, 0);
    wedged.config.progress_stall_limit = 50'000;
    auto wedged_quiet = wedged;
    wedged_quiet.config.flight_recorder_events = 0;
    wedged_quiet.config.progress_stall_limit = 70'000; // a later trip

    // Healthy Systems kept alive beside the trips: no trip may read
    // them.
    sim::SweepRunner runner(4);
    std::vector<std::future<sim::SweepOutcome>> healthy;
    for (std::uint64_t seed = 5; seed < 8; ++seed)
        healthy.push_back(runner.submitKeep(point(seed)));
    auto first = runner.submit(wedged);
    auto second = runner.submit(wedged_quiet);
    const sim::RunResult tripped[2] = {first.get(), second.get()};
    for (auto &h : healthy)
        ASSERT_TRUE(h.get().result.completed);
    ::unsetenv("FSOI_FLIGHT_FILE");

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no flight dump at " << path;
    std::vector<std::string> docs;
    for (std::string line; std::getline(in, line);)
        docs.push_back(line);
    std::remove(path.c_str());
    ASSERT_EQ(docs.size(), 2u);
    // Each document is stamped with its own System's trip cycle (the
    // header's "cycle", the first member after the reason).
    std::vector<Cycle> stamped;
    for (const std::string &doc : docs) {
        const auto at = doc.find("\"cycle\":");
        ASSERT_NE(at, std::string::npos) << doc;
        stamped.push_back(std::stoull(doc.substr(at + 8)));
    }
    std::vector<Cycle> trips;
    for (const sim::RunResult &res : tripped) {
        ASSERT_FALSE(res.completed);
        EXPECT_NE(res.fault_diagnosis.find("n0.meta"), std::string::npos)
            << res.fault_diagnosis;
        trips.push_back(res.cycles);
    }
    ASSERT_NE(trips[0], trips[1]);
    std::sort(stamped.begin(), stamped.end());
    std::sort(trips.begin(), trips.end());
    EXPECT_EQ(stamped, trips);
    for (const std::string &doc : docs) {
        EXPECT_TRUE(obs::json::valid(doc)) << doc;
        EXPECT_NE(doc.find("\"reason\":\"fault:"), std::string::npos);
        EXPECT_NE(
            doc.find("\"dead_tx\":[{\"node\":0,\"class\":\"meta\"}]"),
            std::string::npos)
            << doc;
    }
    // The ring-off System's document has an empty event list.
    const bool quiet_first =
        docs[0].find("\"capacity\":0,") != std::string::npos;
    EXPECT_NE(docs[quiet_first ? 0 : 1].find("\"events\":[]"),
              std::string::npos);
    EXPECT_EQ(docs[quiet_first ? 1 : 0].find("\"events\":[]"),
              std::string::npos);
}

} // namespace
} // namespace fsoi
