/**
 * @file
 * Fault-injection subsystem tests, in three layers:
 *
 *  - FaultInjector unit tests: deterministic schedules, nested dead
 *    sets across fractions, explicit kill lists, misalignment-driven
 *    BER degradation, blacklist/redirect policy, and the bounded
 *    backoff budget the watchdog grace period is derived from.
 *  - Datapath survival: a mesh routes around an explicitly killed
 *    link, BER runs complete through CRC-drop retransmission on both
 *    interconnects, and a dead FSOI receiver is blacklisted with its
 *    traffic redistributed to the survivor.
 *  - Diagnosed failure: a dead FSOI transmit lane wedges its node and
 *    the run ends with a watchdog fault diagnosis (not a panic) that
 *    names the lane, as does the flight-recorder post-mortem; a fully
 *    partitioned mesh is diagnosed before the first cycle runs.
 *
 * Faulted runs must stay exactly as deterministic as healthy ones:
 * the same fault matrix is executed at --jobs=1/4/8 and every
 * RunResult field, fault counters included, must be bit-identical.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytic/backoff_model.hh"
#include "fault/fault_model.hh"
#include "sim/sweep_runner.hh"
#include "sim/system.hh"
#include "workload/apps.hh"

#include "json_validator.hh"
#include "run_result_eq.hh"

namespace fsoi {
namespace {

using fault::FaultConfig;
using fault::FaultInjector;
using fault::FaultTopology;

const FaultTopology kTopo16{20, 2, 4}; // 16 cores + 4 memctls, 4x4 mesh

// --- injector unit tests --------------------------------------------

TEST(FaultInjector, ScheduleIsDeterministic)
{
    FaultConfig fc;
    fc.dead_rx_fraction = 0.2;
    fc.dead_tx_fraction = 0.1;
    fc.dead_link_fraction = 0.15;
    fc.seed = 42;
    FaultInjector a(fc, kTopo16), b(fc, kTopo16);
    EXPECT_EQ(a.deadRxCount(), b.deadRxCount());
    EXPECT_EQ(a.deadTxCount(), b.deadTxCount());
    EXPECT_EQ(a.deadLinkCount(), b.deadLinkCount());
    EXPECT_GT(a.deadRxCount(), 0u);
    for (NodeId n = 0; n < 20; ++n) {
        for (int cls = 0; cls < 2; ++cls) {
            EXPECT_EQ(a.txDead(n, cls), b.txDead(n, cls));
            for (int rx = 0; rx < 2; ++rx)
                EXPECT_EQ(a.rxDead(n, cls, rx), b.rxDead(n, cls, rx));
        }
    }
    for (int router = 0; router < 16; ++router)
        for (int dir = 0; dir < 4; ++dir)
            EXPECT_EQ(a.linkDead(router, dir), b.linkDead(router, dir));
}

TEST(FaultInjector, DeadSetsAreNestedAcrossFractions)
{
    // Victims are a prefix of one permutation: everything dead at a
    // lower fraction stays dead at any higher one (same seed), so
    // degradation sweeps never re-roll their victims.
    double fractions[] = {0.1, 0.2, 0.4};
    std::vector<FaultInjector> injectors;
    for (double f : fractions) {
        FaultConfig fc;
        fc.dead_rx_fraction = f;
        fc.seed = 7;
        injectors.emplace_back(fc, kTopo16);
    }
    EXPECT_LT(injectors[0].deadRxCount(), injectors[1].deadRxCount());
    EXPECT_LT(injectors[1].deadRxCount(), injectors[2].deadRxCount());
    for (std::size_t i = 1; i < injectors.size(); ++i)
        for (NodeId n = 0; n < 20; ++n)
            for (int cls = 0; cls < 2; ++cls)
                for (int rx = 0; rx < 2; ++rx) {
                    if (injectors[i - 1].rxDead(n, cls, rx)) {
                        EXPECT_TRUE(injectors[i].rxDead(n, cls, rx));
                    }
                }
}

TEST(FaultInjector, ExplicitKillListsApply)
{
    FaultConfig fc;
    fc.killRx(3, 1, 0, 2);
    fc.killTx(2, 0);
    fc.killLink(5, 0, 4); // edge east of router 5 (= west of router 6)
    FaultInjector inj(fc, kTopo16);
    EXPECT_TRUE(inj.rxDead(3, 1, 0));
    EXPECT_FALSE(inj.rxDead(3, 1, 1));
    EXPECT_TRUE(inj.txDead(2, 0));
    EXPECT_FALSE(inj.txDead(2, 1));
    // Both directions of the edge die together.
    EXPECT_TRUE(inj.linkDead(5, 0));
    EXPECT_TRUE(inj.linkDead(6, 1));
    EXPECT_FALSE(inj.linkDead(5, 1));
    EXPECT_EQ(inj.deadLinkCount(), 1u);
    const std::string diag = inj.diagnose();
    EXPECT_NE(diag.find("n2.meta"), std::string::npos) << diag;
    EXPECT_NE(diag.find("n3.data.rx0"), std::string::npos) << diag;
    EXPECT_NE(diag.find("r5-east(r6)"), std::string::npos) << diag;
}

TEST(FaultInjector, MisalignmentDegradesBerThroughLinkBudget)
{
    FaultConfig off;
    off.misalignment_m = 2e-6;
    FaultInjector misaligned(off, kTopo16);

    FaultConfig worse;
    worse.misalignment_m = 4e-6;
    FaultInjector very_misaligned(worse, kTopo16);

    // The reference link has plenty of margin: a small offset gives a
    // tiny but nonzero BER, and the degradation grows with the offset.
    EXPECT_GT(misaligned.effectiveBer(), 0.0);
    EXPECT_GT(very_misaligned.effectiveBer(), misaligned.effectiveBer());

    // Independent error sources combine: misalignment on top of an
    // electrical BER floor only raises the effective rate.
    FaultConfig both = off;
    both.ber = 1e-9;
    FaultInjector combined(both, kTopo16);
    EXPECT_GT(combined.effectiveBer(), misaligned.effectiveBer());
    EXPECT_GT(combined.effectiveBer(), 1e-9);
}

TEST(FaultInjector, CorruptsDrawsOnlyWhenBerEnabled)
{
    FaultConfig dead_only;
    dead_only.dead_rx_fraction = 0.5;
    FaultInjector inj(dead_only, kTopo16);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(inj.corrupts(i % 2));
    EXPECT_EQ(inj.bitErrors(), 0u);

    FaultConfig noisy;
    noisy.ber = 1e-3; // data packets corrupt with p ~ 30%
    FaultInjector loud(noisy, kTopo16);
    int hits = 0;
    for (int i = 0; i < 1000; ++i)
        hits += loud.corrupts(1);
    EXPECT_GT(hits, 0);
    EXPECT_EQ(loud.bitErrors(), static_cast<std::uint64_t>(hits));
}

TEST(FaultInjector, BlacklistRedirectsToSurvivingReceiver)
{
    FaultConfig fc;
    fc.max_retx = 4;
    fc.killRx(5, 1, 1, 2); // dst 5, data lane, receiver 1
    FaultInjector inj(fc, kTopo16);

    // Odd senders default to rx 1; until the failure streak exhausts
    // the retry budget the partition stands.
    EXPECT_EQ(inj.redirectRx(1, 5, 1), 1);
    for (int i = 0; i < fc.max_retx; ++i)
        inj.noteChannelFailure(5, 1, 1);
    EXPECT_TRUE(inj.blacklisted(5, 1, 1));
    EXPECT_EQ(inj.blacklists(), 1u);
    // Traffic redistributes to the surviving receiver...
    EXPECT_EQ(inj.redirectRx(1, 5, 1), 0);
    // ...and a success on a live channel resets nothing fatal: the
    // default partition still applies for senders already on rx 0.
    EXPECT_EQ(inj.redirectRx(2, 5, 1), 0);

    // Kill the survivor too: redirect falls back to the default so the
    // sender keeps failing visibly and the watchdog can diagnose it.
    for (int i = 0; i < fc.max_retx; ++i)
        inj.noteChannelFailure(5, 1, 0);
    EXPECT_EQ(inj.redirectRx(1, 5, 1), 1);
}

TEST(FaultInjector, SuccessResetsFailureStreak)
{
    FaultConfig fc;
    fc.max_retx = 4;
    fc.ber = 1e-6; // enabled() without any permanent faults
    FaultInjector inj(fc, kTopo16);
    for (int round = 0; round < 8; ++round) {
        // max_retx - 1 failures, then a clean delivery: never
        // blacklists, however often the pattern repeats.
        for (int i = 0; i < fc.max_retx - 1; ++i)
            inj.noteChannelFailure(2, 0, 0);
        inj.noteChannelSuccess(2, 0, 0);
    }
    EXPECT_FALSE(inj.blacklisted(2, 0, 0));
    EXPECT_EQ(inj.blacklists(), 0u);
}

TEST(FaultInjector, FaultContextJsonIsValid)
{
    FaultConfig fc;
    fc.killTx(0, 0);
    fc.killRx(3, 1, 1, 2);
    fc.killLink(1, 0, 4);
    fc.ber = 1e-6;
    FaultInjector inj(fc, kTopo16);
    std::ostringstream os;
    inj.writeJson(os);
    const std::string json = os.str();
    EXPECT_TRUE(testsupport::jsonValid(json)) << json;
    EXPECT_NE(json.find("\"dead_tx\":[{\"node\":0,\"class\":\"meta\"}]"),
              std::string::npos)
        << json;
}

TEST(BackoffModel, BoundedResolutionBudgetGrowsWithRetryBudget)
{
    const analytic::BackoffParams params;
    const Cycle one = analytic::boundedResolutionBudget(params, 1);
    const Cycle four = analytic::boundedResolutionBudget(params, 4);
    const Cycle sixteen = analytic::boundedResolutionBudget(params, 16);
    EXPECT_GT(one, 0u);
    EXPECT_LT(one, four);
    EXPECT_LT(four, sixteen);
    // The budget bounds every per-retry window below the cap, so it
    // grows slower than linearly in nothing -- sanity: 16 retries cost
    // less than 16x the worst single window but more than 16 minimal
    // slots.
    EXPECT_GE(sixteen, 16u * one / 4u);
}

// --- system-level fault runs ----------------------------------------

sim::SweepJob
faultPoint(sim::NetKind kind, const char *app, std::uint64_t seed)
{
    sim::SweepJob job;
    job.config = sim::SystemConfig::paperConfig(16, kind);
    job.config.seed = seed;
    job.app = workload::appByName(app);
    job.scale = 0.03;
    return job;
}

TEST(FaultSystem, HealthyConfigConstructsNoInjector)
{
    sim::SystemConfig cfg = sim::SystemConfig::paperConfig(16,
                                                  sim::NetKind::Fsoi);
    EXPECT_FALSE(cfg.fault.enabled());
    sim::System system(cfg);
    EXPECT_EQ(system.faultInjector(), nullptr);
}

TEST(FaultSystem, FaultedRunsBitIdenticalAcrossJobs)
{
    std::vector<sim::SweepJob> jobs;
    auto fsoi_dead = faultPoint(sim::NetKind::Fsoi, "fft", 5);
    fsoi_dead.config.fault.dead_rx_fraction = 0.1;
    jobs.push_back(fsoi_dead);
    auto fsoi_ber = faultPoint(sim::NetKind::Fsoi, "barnes", 5);
    fsoi_ber.config.fault.ber = 1e-4;
    jobs.push_back(fsoi_ber);
    auto mesh_faulty = faultPoint(sim::NetKind::Mesh, "fft", 5);
    mesh_faulty.config.fault.ber = 1e-4;
    mesh_faulty.config.fault.killLink(5, 0, 4);
    jobs.push_back(mesh_faulty);

    auto runAll = [&](int n) {
        sim::SweepRunner runner(n);
        std::vector<std::future<sim::RunResult>> futs;
        for (const auto &job : jobs)
            futs.push_back(runner.submit(job));
        std::vector<sim::RunResult> out;
        for (auto &f : futs)
            out.push_back(f.get());
        return out;
    };
    const auto serial = runAll(1);
    for (int n : {4, 8}) {
        const auto parallel = runAll(n);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            testsupport::expectSameResult(serial[i], parallel[i]);
    }
}

TEST(FaultSystem, MeshRoutesAroundExplicitDeadLink)
{
    auto job = faultPoint(sim::NetKind::Mesh, "fft", 3);
    job.config.fault.killLink(5, 0, 4); // r5 <-> r6
    const auto outcome = sim::SweepRunner::runJob(job, true);
    EXPECT_TRUE(outcome.result.completed)
        << outcome.result.fault_diagnosis;
    EXPECT_EQ(outcome.result.unroutable_drops, 0u);
    auto *mesh = outcome.system->meshNetwork();
    ASSERT_NE(mesh, nullptr);
    EXPECT_TRUE(mesh->fullyConnected());
    EXPECT_TRUE(mesh->reachable(5, 6));
}

TEST(FaultSystem, FsoiBerRunCompletesWithRetransmissions)
{
    const auto healthy =
        sim::SweepRunner::runJob(faultPoint(sim::NetKind::Fsoi, "fft", 3),
                                 false).result;
    auto job = faultPoint(sim::NetKind::Fsoi, "fft", 3);
    job.config.fault.ber = 1e-4;
    const auto res = sim::SweepRunner::runJob(job, false).result;
    EXPECT_TRUE(res.completed) << res.fault_diagnosis;
    EXPECT_GT(res.fault_bit_errors, 0u);
    EXPECT_GT(res.retransmissions, healthy.retransmissions);
}

TEST(FaultSystem, MeshBerRunCompletesWithRetransmissions)
{
    auto job = faultPoint(sim::NetKind::Mesh, "fft", 3);
    job.config.fault.ber = 1e-3;
    const auto res = sim::SweepRunner::runJob(job, false).result;
    EXPECT_TRUE(res.completed) << res.fault_diagnosis;
    EXPECT_GT(res.fault_bit_errors, 0u);
    EXPECT_GT(res.retransmissions, 0u);
}

TEST(FaultSystem, DeadReceiverIsBlacklistedAndRunCompletes)
{
    auto job = faultPoint(sim::NetKind::Fsoi, "fft", 3);
    // Kill receiver 0 of node 2's data lane: even senders fail onto it
    // until the blacklist steers them to the surviving receiver 1.
    job.config.fault.killRx(2, 1, 0, 2);
    const auto res = sim::SweepRunner::runJob(job, false).result;
    EXPECT_TRUE(res.completed) << res.fault_diagnosis;
    EXPECT_GE(res.blacklisted_channels, 1u);
}

TEST(FaultSystem, WedgedTxLaneDiagnosedAndNamedInFlightDump)
{
    auto job = faultPoint(sim::NetKind::Fsoi, "fft", 3);
    job.config.fault.killTx(0, 0); // node 0's meta VCSEL array
    // Tight stall budget: the wedge is structural, no need to wait out
    // the default two million cycles to prove it.
    job.config.progress_stall_limit = 50'000;
    const auto outcome = sim::SweepRunner::runJob(job, true);

    // The run ends with a diagnosis, not a panic, and the diagnosis
    // names the dead lane.
    EXPECT_FALSE(outcome.result.completed);
    const auto &diag = outcome.result.fault_diagnosis;
    ASSERT_FALSE(diag.empty());
    EXPECT_NE(diag.find("dead fsoi tx lanes"), std::string::npos)
        << diag;
    EXPECT_NE(diag.find("n0.meta"), std::string::npos) << diag;

    // The flight-recorder post-mortem carries the same fault context.
    std::ostringstream os;
    outcome.system->flightRecorder().dumpJson(os, "test:wedged-tx",
                                              outcome.result.cycles);
    const std::string dump = os.str();
    EXPECT_TRUE(testsupport::jsonValid(dump)) << dump;
    EXPECT_NE(
        dump.find("\"dead_tx\":[{\"node\":0,\"class\":\"meta\"}]"),
        std::string::npos)
        << dump;
}

TEST(FaultSystem, FullyPartitionedMeshDiagnosedWithoutRunning)
{
    auto job = faultPoint(sim::NetKind::Mesh, "fft", 3);
    job.config.fault.dead_link_fraction = 1.0;
    const auto res = sim::SweepRunner::runJob(job, false).result;
    EXPECT_FALSE(res.completed);
    // Diagnosed before simulating (cycles clamps to 1, never 0).
    EXPECT_EQ(res.cycles, 1u);
    EXPECT_NE(res.fault_diagnosis.find("partitioned mesh"),
              std::string::npos)
        << res.fault_diagnosis;
}

TEST(FaultSystem, FaultStatsPublishedInRegistry)
{
    auto job = faultPoint(sim::NetKind::Fsoi, "fft", 3);
    job.config.fault.ber = 1e-4;
    const auto outcome = sim::SweepRunner::runJob(job, true);
    std::ostringstream os;
    outcome.system->writeStatsJson(os);
    const std::string json = os.str();
    EXPECT_TRUE(testsupport::jsonValid(json)) << json.substr(0, 400);
    EXPECT_NE(json.find("\"fault\""), std::string::npos);
    EXPECT_NE(json.find("\"bit_errors\""), std::string::npos);
    EXPECT_NE(json.find("\"retx\""), std::string::npos);
}

} // namespace
} // namespace fsoi
