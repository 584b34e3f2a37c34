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
 * 16-core run then validates the composed dump (events + in-flight
 * table + system context including per-link network state).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "coherence/l1_cache.hh"
#include "common/logging.hh"
#include "noc/mesh_network.hh"
#include "obs/crash.hh"
#include "obs/flight_recorder.hh"
#include "obs/watchdog.hh"
#include "sim/sweep_runner.hh"
#include "sim/system.hh"
#include "workload/apps.hh"

#include "json_validator.hh"

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

    EXPECT_TRUE(testsupport::jsonValid(dump)) << dump;
    EXPECT_NE(dump.find("\"reason\":\"test:deadlock\""),
              std::string::npos);
    // The in-flight table names the stuck transaction: an MSHR owned
    // by node 3, on the line the load missed on.
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
    EXPECT_TRUE(testsupport::jsonValid(os.str())) << os.str();
}

TEST(FlightRecorder, RingKeepsOnlyMostRecentEvents)
{
    obs::FlightRecorder rec(4);
    for (Cycle c = 0; c < 10; ++c)
        rec.record(obs::FlightEventKind::MsgSend, c, 0, 1, 0x40, 0);
    std::ostringstream os;
    rec.dumpJson(os, "wrap", 10);
    const std::string dump = os.str();
    EXPECT_TRUE(testsupport::jsonValid(dump)) << dump;
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
    EXPECT_TRUE(testsupport::jsonValid(os.str())) << os.str();
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
            rec.beginTransaction(obs::FlightEventKind::MshrAlloc,
                                 /*cycle=*/5, /*node=*/2, /*line=*/128,
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
        EXPECT_TRUE(testsupport::jsonValid(line)) << line;
        ++documents;
        if (line.find("\"kind\":\"mshr\"") != std::string::npos
            && line.find("\"node\":2") != std::string::npos
            && line.find("\"line\":128") != std::string::npos)
            found_mshr = true;
    }
    EXPECT_GE(documents, 1);
    EXPECT_TRUE(found_mshr);
    ::unsetenv("FSOI_FLIGHT_FILE");
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
    EXPECT_TRUE(testsupport::jsonValid(dump)) << dump;
    // A real run records protocol traffic with symbolic names wired in
    // by the System (message types, MSHR wants, directory txn kinds).
    EXPECT_NE(dump.find("\"detail_name\""), std::string::npos);
    // The context writer embeds system state incl. the mesh snapshot.
    EXPECT_NE(dump.find("\"network\":\"mesh\""), std::string::npos);
    EXPECT_NE(dump.find("\"cores\":["), std::string::npos);
}

} // namespace
} // namespace fsoi
