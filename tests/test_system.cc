/**
 * @file
 * End-to-end system tests: every interconnect completes real
 * workloads, the performance ordering of Section 7.1 holds, runs are
 * deterministic, and the energy model behaves sanely.
 */

#include <string>

#include <gtest/gtest.h>

#include "sim/energy_model.hh"
#include "sim/system.hh"

namespace fsoi {
namespace {

sim::RunResult
runApp(int cores, sim::NetKind kind, const char *app, double scale,
       std::uint64_t seed = 1)
{
    sim::SystemConfig cfg = sim::SystemConfig::paperConfig(cores, kind);
    cfg.seed = seed;
    sim::System sys(cfg);
    sys.loadApp(workload::appByName(app).scaled(scale));
    return sys.run();
}

class AllNetworksComplete
    : public ::testing::TestWithParam<sim::NetKind>
{};

TEST_P(AllNetworksComplete, SmallRunFinishes)
{
    const auto res = runApp(16, GetParam(), "cholesky", 0.05);
    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.instructions, 16u * 1000u);
    EXPECT_GT(res.packets_delivered, 100u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllNetworksComplete,
                         ::testing::Values(sim::NetKind::Mesh,
                                           sim::NetKind::L0,
                                           sim::NetKind::Lr1,
                                           sim::NetKind::Lr2,
                                           sim::NetKind::Fsoi));

TEST(System, Deterministic)
{
    const auto a = runApp(16, sim::NetKind::Fsoi, "barnes", 0.05, 3);
    const auto b = runApp(16, sim::NetKind::Fsoi, "barnes", 0.05, 3);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
}

TEST(System, SeedChangesSchedule)
{
    const auto a = runApp(16, sim::NetKind::Fsoi, "barnes", 0.05, 3);
    const auto b = runApp(16, sim::NetKind::Fsoi, "barnes", 0.05, 4);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(System, PerformanceOrderingOfSection71)
{
    // L0 <= FSOI (close); FSOI < Lr2-and-mesh; Lr1 <= Lr2 <= mesh.
    const char *app = "fft";
    const double scale = 0.15;
    const auto l0 = runApp(16, sim::NetKind::L0, app, scale);
    const auto fso = runApp(16, sim::NetKind::Fsoi, app, scale);
    const auto lr1 = runApp(16, sim::NetKind::Lr1, app, scale);
    const auto lr2 = runApp(16, sim::NetKind::Lr2, app, scale);
    const auto mesh = runApp(16, sim::NetKind::Mesh, app, scale);

    EXPECT_LE(l0.cycles, fso.cycles * 1.05);  // FSOI tracks ideal
    EXPECT_LT(fso.cycles, lr2.cycles);
    EXPECT_LT(fso.cycles, mesh.cycles);
    EXPECT_LE(lr1.cycles, lr2.cycles * 1.02);
    EXPECT_LT(lr2.cycles, mesh.cycles);
}

TEST(System, FsoiLatencyNearPaper)
{
    const auto res = runApp(16, sim::NetKind::Fsoi, "ocean", 0.15);
    // Paper: overall average packet latency ~7.5 cycles at 16 nodes.
    EXPECT_GT(res.avg_packet_latency, 4.0);
    EXPECT_LT(res.avg_packet_latency, 11.0);
    // Breakdown components add up.
    EXPECT_NEAR(res.queuing + res.scheduling + res.network
                    + res.collision_resolution,
                res.avg_packet_latency, 1e-6);
}

TEST(System, MeshLatencyWellAboveFsoi)
{
    const auto mesh = runApp(16, sim::NetKind::Mesh, "ocean", 0.1);
    const auto fso = runApp(16, sim::NetKind::Fsoi, "ocean", 0.1);
    EXPECT_GT(mesh.avg_packet_latency, 2.0 * fso.avg_packet_latency);
}

TEST(System, CollisionRatesAreSmall)
{
    const auto res = runApp(16, sim::NetKind::Fsoi, "mp3d", 0.1);
    // Collisions are occasional (order 1e-2), not rampant.
    EXPECT_GT(res.meta_collision_rate, 0.0);
    EXPECT_LT(res.meta_collision_rate, 0.2);
    EXPECT_LT(res.data_collision_rate, 0.25);
}

TEST(System, SixtyFourNodePhaseArrayCompletes)
{
    const auto res = runApp(64, sim::NetKind::Fsoi, "jacobi", 0.05);
    EXPECT_TRUE(res.completed);
    EXPECT_GT(res.packets_delivered, 1000u);
}

TEST(System, MemoryBandwidthMatters)
{
    sim::SystemConfig slow = sim::SystemConfig::paperConfig(
        16, sim::NetKind::Fsoi);
    sim::SystemConfig fast = slow;
    slow.mem_gbytes_per_sec = 8.8;
    fast.mem_gbytes_per_sec = 52.8;
    sim::System s1(slow), s2(fast);
    s1.loadApp(workload::appByName("mp3d").scaled(0.1));
    s2.loadApp(workload::appByName("mp3d").scaled(0.1));
    const auto r1 = s1.run();
    const auto r2 = s2.run();
    EXPECT_LT(r2.cycles, r1.cycles); // more bandwidth, faster
}

TEST(System, OptimizationsReduceMetaCollisions)
{
    sim::SystemConfig base = sim::SystemConfig::paperConfig(
        16, sim::NetKind::Fsoi);
    base.opt_confirmation_ack = false;
    base.opt_sync_subscription = false;
    base.opt_data_collision = false;
    sim::SystemConfig opt = sim::SystemConfig::paperConfig(
        16, sim::NetKind::Fsoi);

    sim::System s1(base), s2(opt);
    s1.loadApp(workload::appByName("ws").scaled(0.15));
    s2.loadApp(workload::appByName("ws").scaled(0.15));
    const auto r1 = s1.run();
    const auto r2 = s2.run();
    ASSERT_TRUE(r1.completed && r2.completed);
    // Fewer packets and no slower with the Section 5 optimizations.
    EXPECT_LT(r2.packets_delivered, r1.packets_delivered);
    EXPECT_LE(r2.cycles, r1.cycles * 1.10);
    EXPECT_GT(r2.control_bits, 0u);
}

TEST(System, RejectsOptimizationsOffFsoi)
{
    sim::SystemConfig cfg = sim::SystemConfig::paperConfig(
        16, sim::NetKind::Mesh);
    cfg.opt_confirmation_ack = true;
    EXPECT_DEATH({ sim::System sys(cfg); }, "");
}

TEST(System, PaperConfigRejectsUnbuildableCoreCounts)
{
    // The mesh is square and the directory's sharer masks are 64 bits
    // wide: anything but 4, 9, ..., 64 cores stops before a run.
    for (const int cores : {0, 1, 5, 12, 81, 100}) {
        EXPECT_DEATH(sim::SystemConfig::paperConfig(cores,
                                                    sim::NetKind::Fsoi),
                     "fatal: cores wants a perfect square from 4 to 64, "
                     "got " + std::to_string(cores))
            << cores;
    }
    for (const int cores : {4, 9, 36})
        EXPECT_EQ(sim::SystemConfig::paperConfig(cores, sim::NetKind::Mesh)
                      .num_cores,
                  cores);
}

TEST(System, HandBuiltConfigAssertsCoreBound)
{
    sim::SystemConfig cfg = sim::SystemConfig::paperConfig(
        64, sim::NetKind::Mesh);
    cfg.num_cores = 81; // square, but past the 64-bit sharer masks
    EXPECT_DEATH({ sim::System sys(cfg); },
                 "cores wants a perfect square from 4 to 64, got 81");
}

TEST(EnergyModel, LeakageOnlyBaseline)
{
    sim::EnergyParams params;
    sim::ActivitySummary activity;
    activity.cycles = 3'300'000; // 1 ms
    activity.nodes = 16;
    const auto report = computeEnergy(params, activity);
    EXPECT_NEAR(report.leakage_j,
                16 * params.leakage_w_per_node * 1e-3, 1e-6);
    EXPECT_EQ(report.network_j, 0.0);
}

TEST(EnergyModel, FsoiNetworkEnergyFarBelowMesh)
{
    // Same run length, representative event counts: mesh spends far
    // more in the interconnect (paper: ~20x).
    sim::EnergyParams params;
    sim::ActivitySummary mesh_run, fsoi_run;
    mesh_run.cycles = fsoi_run.cycles = 1'000'000;
    mesh_run.nodes = fsoi_run.nodes = 16;
    mesh_run.routers = 16;

    noc::MeshActivity mesh_act;
    // ~1 flit/cycle entering, ~4.7 hops.
    mesh_act.buffer_writes += 4'700'000;
    mesh_act.buffer_reads += 4'700'000;
    mesh_act.crossbar_traversals += 4'700'000;
    mesh_act.arbitrations += 4'700'000;
    mesh_act.link_traversals += 3'700'000;
    mesh_run.mesh = &mesh_act;

    fsoi::FsoiActivity fsoi_act;
    fsoi_act.vcsel_slot_cycles += 6'000'000; // comparable bit volume
    fsoi_run.fsoi = &fsoi_act;

    const auto mesh_report = computeEnergy(params, mesh_run);
    const auto fsoi_report = computeEnergy(params, fsoi_run);
    EXPECT_GT(mesh_report.network_j, 5.0 * fsoi_report.network_j);
}

TEST(EnergyModel, AveragePower)
{
    sim::EnergyParams params;
    sim::ActivitySummary activity;
    activity.cycles = 3'300'000;
    activity.nodes = 16;
    const auto report = computeEnergy(params, activity);
    EXPECT_NEAR(report.averagePower(activity.cycles, params.freq_hz),
                16 * params.leakage_w_per_node, 0.5);
}

} // namespace
} // namespace fsoi
