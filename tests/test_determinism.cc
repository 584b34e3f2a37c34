/**
 * @file
 * Determinism guarantees of the sweep runner and checkpoint/restore: a
 * (config, workload, seed) point produces field-identical RunResults
 * whether it is run inline, repeatedly, fanned across worker threads
 * at any --jobs level, or interrupted and resumed from a checkpoint.
 * Every System is constructed, run, and read out entirely on one
 * thread with its own RNGs, stat registry, and allocation pools, so
 * nothing about the worker count may leak into the results.
 */

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sweep_runner.hh"
#include "workload/apps.hh"

namespace fsoi {
namespace {

sim::SweepJob
point(sim::NetKind kind, const char *app, std::uint64_t seed)
{
    sim::SweepJob job;
    job.config = sim::SystemConfig::paperConfig(16, kind);
    job.config.seed = seed;
    job.app = workload::appByName(app);
    job.scale = 0.03;
    return job;
}

/** Every scalar field of the result, including the energy report. */
void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
    EXPECT_EQ(a.queuing, b.queuing);
    EXPECT_EQ(a.scheduling, b.scheduling);
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.collision_resolution, b.collision_resolution);
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
    EXPECT_EQ(a.meta_collision_rate, b.meta_collision_rate);
    EXPECT_EQ(a.data_collision_rate, b.data_collision_rate);
    EXPECT_EQ(a.meta_tx_probability, b.meta_tx_probability);
    for (int c = 0; c < 5; ++c)
        EXPECT_EQ(a.data_collisions_by_cat[c],
                  b.data_collisions_by_cat[c]);
    EXPECT_EQ(a.data_resolution_delay, b.data_resolution_delay);
    EXPECT_EQ(a.l1_miss_rate, b.l1_miss_rate);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.sync_packets, b.sync_packets);
    EXPECT_EQ(a.control_bits, b.control_bits);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.energy.total(), b.energy.total());
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.fault_bit_errors, b.fault_bit_errors);
    EXPECT_EQ(a.blacklisted_channels, b.blacklisted_channels);
    EXPECT_EQ(a.unroutable_drops, b.unroutable_drops);
    EXPECT_EQ(a.fault_diagnosis, b.fault_diagnosis);
}

std::vector<sim::SweepJob>
matrix()
{
    // Two faulted points ride along: the fault schedule, the transient
    // bit-error stream, and every recovery action must be exactly as
    // deterministic as the healthy simulation.
    auto fsoi_ber = point(sim::NetKind::Fsoi, "fft", 7);
    fsoi_ber.config.fault.ber = 1e-4;
    auto mesh_dead = point(sim::NetKind::Mesh, "fft", 7);
    mesh_dead.config.fault.dead_link_fraction = 1.0 / 24.0;
    return {
        point(sim::NetKind::Fsoi, "fft", 3),
        point(sim::NetKind::Mesh, "fft", 3),
        point(sim::NetKind::Fsoi, "barnes", 9),
        point(sim::NetKind::Mesh, "barnes", 9),
        point(sim::NetKind::Fsoi, "fft", 4),
        fsoi_ber,
        mesh_dead,
    };
}

std::vector<sim::RunResult>
runMatrix(int jobs)
{
    sim::SweepRunner runner(jobs);
    std::vector<std::future<sim::RunResult>> futs;
    for (const auto &job : matrix())
        futs.push_back(runner.submit(job));
    std::vector<sim::RunResult> out;
    for (auto &f : futs)
        out.push_back(f.get());
    return out;
}

/** Checkpoint @p job at cycle @p at (a horizon-limited copy). */
void
checkpointAt(sim::SweepJob job, Cycle at, const std::string &path)
{
    job.config.max_cycles = at;
    sim::System sys(job.config);
    sys.loadApp(job.app.scaled(job.scale));
    ASSERT_FALSE(sys.run().completed)
        << "checkpoint cycle must fall inside the run";
    sys.saveCheckpoint(path);
}

/** Full stat-registry snapshot (flattened scalars), minus the host.*
 *  wall-clock and scheduler stats that legitimately vary run to run. */
std::vector<std::pair<std::string, double>>
statSnapshot(const sim::System &sys)
{
    const obs::StatRegistry &reg = sys.statRegistry();
    const auto names = reg.scalarNames();
    std::vector<double> values;
    reg.scalarValues(values);
    std::vector<std::pair<std::string, double>> out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i].rfind("host.", 0) == 0)
            continue;
        out.emplace_back(names[i], values[i]);
    }
    return out;
}

TEST(Determinism, RepeatedSerialRunsIdentical)
{
    const auto a = runMatrix(1);
    const auto b = runMatrix(1);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i]);
}

TEST(Determinism, ParallelMatchesSerial)
{
    const auto serial = runMatrix(1);
    for (int jobs : {4, 8}) {
        const auto parallel = runMatrix(jobs);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectIdentical(serial[i], parallel[i]);
    }
}

TEST(Determinism, RestoredRunMatchesUninterrupted)
{
    // A run interrupted at an arbitrary cycle and resumed from its
    // snapshot reports exactly what the uninterrupted run reports. The
    // matrix includes the faulted points, so fault schedules and
    // recovery state round-trip too.
    const auto serial = runMatrix(1);
    const auto jobs = matrix();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string ckpt = testing::TempDir() + "fsoi_det_"
            + std::to_string(i) + ".ckpt";
        checkpointAt(jobs[i], 4000, ckpt);
        sim::System sys(jobs[i].config);
        sys.loadApp(jobs[i].app.scaled(jobs[i].scale));
        sys.restoreCheckpoint(ckpt);
        expectIdentical(serial[i], sys.run());
        std::filesystem::remove(ckpt);
    }
}

TEST(Determinism, RestoredRunIdenticalStats)
{
    // Stronger than RunResult equality: every registered stat (all
    // counters, accumulator and histogram moments) of a run resumed
    // from a cycle-4000 checkpoint must match the uninterrupted run
    // exactly, on healthy and faulted configs.
    auto fsoi_ber = point(sim::NetKind::Fsoi, "fft", 7);
    fsoi_ber.config.fault.ber = 1e-4;
    auto mesh_dead = point(sim::NetKind::Mesh, "fft", 7);
    mesh_dead.config.fault.dead_link_fraction = 1.0 / 24.0;
    const std::vector<sim::SweepJob> jobs{
        point(sim::NetKind::Fsoi, "fft", 3),
        point(sim::NetKind::Mesh, "fft", 3),
        point(sim::NetKind::Fsoi, "barnes", 9),
        fsoi_ber,
        mesh_dead,
    };
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const auto &job = jobs[j];
        const auto full = sim::SweepRunner::runJob(job, true);
        const auto ref = statSnapshot(*full.system);
        ASSERT_FALSE(ref.empty());

        const std::string ckpt = testing::TempDir() + "fsoi_det_stats_"
            + std::to_string(j) + ".ckpt";
        checkpointAt(job, 4000, ckpt);
        sim::System sys(job.config);
        sys.loadApp(job.app.scaled(job.scale));
        sys.restoreCheckpoint(ckpt);
        (void)sys.run();
        std::filesystem::remove(ckpt);

        const auto got = statSnapshot(sys);
        ASSERT_EQ(ref.size(), got.size()) << "config " << j;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(ref[i].first, got[i].first);
            const double a = ref[i].second, b = got[i].second;
            EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b)))
                << ref[i].first << ": " << a << " vs " << b
                << " (config " << j << ")";
        }
    }
}

TEST(Determinism, KeepSystemMatchesPlainRun)
{
    sim::SweepRunner runner(2);
    auto plain = runner.submit(point(sim::NetKind::Fsoi, "fft", 3));
    auto kept = runner.submitKeep(point(sim::NetKind::Fsoi, "fft", 3));
    const auto a = plain.get();
    const auto outcome = kept.get();
    ASSERT_NE(outcome.system, nullptr);
    expectIdentical(a, outcome.result);
}

TEST(Determinism, ResolveJobsNeverZero)
{
    EXPECT_GE(common::resolveJobs(0), 1);
    EXPECT_EQ(common::resolveJobs(1), 1);
    EXPECT_EQ(common::resolveJobs(6), 6);
    EXPECT_GE(common::resolveJobs(-3), 1);
}

} // namespace
} // namespace fsoi
