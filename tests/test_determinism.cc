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

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sweep_runner.hh"
#include "workload/apps.hh"

#include "run_result_eq.hh"

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
        testsupport::expectSameResult(a[i], b[i]);
}

TEST(Determinism, ParallelMatchesSerial)
{
    const auto serial = runMatrix(1);
    for (int jobs : {4, 8}) {
        const auto parallel = runMatrix(jobs);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            testsupport::expectSameResult(serial[i], parallel[i]);
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
        testsupport::expectSameResult(serial[i], sys.run());
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
    testsupport::expectSameResult(a, outcome.result);
}

TEST(Determinism, PerfMatrixCycleCounts)
{
    // Exact cycle counts of a fixed 16-core matrix at a quarter of the
    // paper's scale: busy mesh and FSOI points plus an idle-heavy FSOI
    // point, where the event calendar skips most cycles. A change to
    // any nextEventCycle() contract or to the timing model moves them.
    struct Expect
    {
        sim::NetKind kind;
        const char *app;
        Cycle cycles;
    };
    const Expect expected[] = {
        {sim::NetKind::Mesh, "fft", 141632},
        {sim::NetKind::Mesh, "radix", 138656},
        {sim::NetKind::Fsoi, "fft", 119168},
        {sim::NetKind::Fsoi, "radix", 116928},
        {sim::NetKind::Fsoi, "idle", 114688},
    };
    for (const auto &e : expected) {
        auto job = point(e.kind, e.app, 7);
        job.scale = 0.25;
        const auto r = sim::SweepRunner::runJob(job, false).result;
        EXPECT_TRUE(r.completed) << e.app;
        EXPECT_EQ(r.cycles, e.cycles)
            << e.app << " on " << sim::netKindName(e.kind);
    }
}

/** FNV-1a over every sim::forEachField entry: its name, then its value
 *  (integers and bools as 8 little-endian bytes, doubles by bit
 *  pattern, strings as length then bytes). */
std::uint64_t
resultDigest(const sim::RunResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto bytes = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001b3ULL;
    };
    auto word = [&bytes](std::uint64_t v) {
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(b, 8);
    };
    sim::forEachField(
        [&](const char *name, const auto &v) {
            bytes(name, std::strlen(name) + 1);
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::string>) {
                word(v.size());
                bytes(v.data(), v.size());
            } else if constexpr (std::is_floating_point_v<T>) {
                word(std::bit_cast<std::uint64_t>(v));
            } else {
                word(static_cast<std::uint64_t>(v));
            }
        },
        r);
    return h;
}

void
printFields(const sim::RunResult &r)
{
    sim::forEachField(
        [](const char *name, const auto &v) {
            std::cout << "    " << name << " = " << v << "\n";
        },
        r);
}

TEST(Determinism, PaperMatrixDigests)
{
    // Fig. 6's and Fig. 7's matrices (16 apps x 5 networks, 16 and 64
    // cores, seed 1) at a few seconds' scale, each run's whole result
    // pinned by digest. Cycle skipping is exact only while every
    // nextEventCycle() contract agrees with its tick(); a contract that
    // wakes a component late moves these on some app and network.
    // The constants are results of the simulator, not of this test:
    // regenerate them only for an intended change of results.
    static constexpr sim::NetKind kNets[] = {
        sim::NetKind::Mesh, sim::NetKind::Fsoi, sim::NetKind::L0,
        sim::NetKind::Lr1, sim::NetKind::Lr2};
    struct AppDigests
    {
        const char *app;
        std::uint64_t digest[5]; //!< in kNets order
    };
    struct Figure
    {
        int cores;
        double scale;
        std::vector<AppDigests> expected;
    };
    const Figure figures[] = {
        {16, 0.02, {
            {"barnes", {0x2f02f8f4de4e91c1, 0x287e5fbcf7839170,
                0xab1dcd153c515970, 0x7f6cf4735da3e97e, 0x73b4ff50cab2ebce}},
            {"cholesky", {0x8534a51d3c392770, 0x6faeda94eaee9104,
                0x93e645fd4e83b15a, 0xd8ebd9342ee6d3c2, 0xe920037696d2a4fd}},
            {"fmm", {0x7eb731372e93c5, 0x42b29821d1cc54df,
                0xba11be388d6a7f9d, 0x64d8da2b46676cd9, 0x444ed96c226abd6c}},
            {"fft", {0x7763c579b0ead5f7, 0xf9c22df122c6b7e8,
                0xcaa86b66b2c479f1, 0xe826c6f8c30d2a0c, 0x52cff930fe6848b6}},
            {"lu", {0x7e5635fd5b22efc7, 0xbe35e08e34493771,
                0xfc9f390903426beb, 0xa2264c936f4a9c95, 0xf6df7034b8653b60}},
            {"ocean", {0xabbdcec2f9f7f2f3, 0x398d9721992d5a37,
                0xaeeaaf7fb6403675, 0x9d0dfbf887d5b373, 0xa042f2df856ccdd0}},
            {"radiosity", {0x2b2c8f3a54a471d1, 0xe0cd678b3cb2f1ae,
                0x8cd9f0f616a1ec44, 0xc10931226bc0d8aa, 0x757ca2d1777c3f92}},
            {"radix", {0x81a34aa4a2a28f1c, 0x6fea8281c3771d16,
                0x5edb20ffe657893, 0x9fdd66734ab30f9c, 0xb5624d375affc2d3}},
            {"raytrace", {0xc8b5e80549566e4b, 0x8d38e0ee9a85287,
                0x56979fa4d70d5b0b, 0x7aec7a3b43e1c015, 0x82b3ff9ddd1e5d11}},
            {"ws", {0xf6456f9f342dde97, 0x537788e2f6f624df,
                0xac162da03375c265, 0x62810a484af72748, 0x8c41e490c1ea07cf}},
            {"em3d", {0x304068cbc769f54d, 0xb838255854c2590f,
                0xad32a15e69867df6, 0x4f25daf611c9b0bf, 0x10f1e317895cff73}},
            {"ilink", {0x5f6d443b821093f9, 0xe576a74ee4cbaa8,
                0x14534fc4a0fd9884, 0x20de907dfb758592, 0x2b2d5150c5c5e93}},
            {"jacobi", {0x1e6ecb861908b3be, 0x456e0f70b621ac7b,
                0x32ba90c3fcb86600, 0x27d5c0863f409012, 0xde13349b4fd2c601}},
            {"mp3d", {0x6d6c67bf56762fd7, 0xe84dfb794d1c52d1,
                0xb1041bfca3be4e97, 0xa49c210d3726ee6e, 0x4d71afd71182c781}},
            {"shallow", {0xd1d3495e99f252e6, 0xe992bbc5a5562589,
                0x9032553d4dce539f, 0xabae904d044a57b1, 0xced0c6ae4898e2c}},
            {"tsp", {0xfa7aa0e06b9c3cdf, 0x88eccd1396f05725,
                0xaef4ffcb731bc6e0, 0x277e24c3e54eb62a, 0xef079d3c26410ef8}},
        }},
        {64, 0.002, {
            {"barnes", {0x79b940f33c51b51b, 0xf627a5a80ce01cd4,
                0x1304193572929de, 0x521722416dc97ede, 0x59bdce6ab9f63ecc}},
            {"cholesky", {0x4a237bdc3e56b99c, 0x8f04cefd4b2e35c2,
                0xb07d217ad4ad0139, 0x16a2e7569589bd65, 0xa18e7b2fe9394d79}},
            {"fmm", {0x9502d7a2a9b6fb17, 0xf9fc125bc73be474,
                0xad21265e82e4d97b, 0x785c4444a6bfb4df, 0xf897b512eb3b4543}},
            {"fft", {0xbbaf0813872b6954, 0x91b3c226a207f178,
                0x82525e017c64c790, 0xdace99ba4b269f25, 0x267019c9a1520b39}},
            {"lu", {0x86af77401e81c589, 0x82bd61ff03ec42f5,
                0xe17517b18034f782, 0x6033aa0504bba5a9, 0x505141c5dd67f0ef}},
            {"ocean", {0xec7a1a6b9c5ad113, 0xbde90d43df12c6e1,
                0x302ea737357a22fb, 0xc3f79b1b1e0c9bbe, 0x99ce04fd15c1103c}},
            {"radiosity", {0x4ef296f70d825fde, 0xb37f11e18f27077c,
                0xf7c44fab018a8e3a, 0x81c47a16e2f7bbd6, 0xf03d247bcf545739}},
            {"radix", {0xbdc762fad8bdda03, 0xe861a7e40d814668,
                0xf52150d6be9acbbf, 0x1d8adbde00c583ec, 0x5f49053436f8c9a2}},
            {"raytrace", {0x9330e8cb706d5bdf, 0x15385057d0eeed69,
                0x9b1fe042a81978e2, 0x87bc7f9a421a4c72, 0x601c2a06da5d14b0}},
            {"ws", {0xf39c766e01d0ddaa, 0xed243239f4aa7747,
                0x6d16775c6e154da7, 0x23ac94125589a0ab, 0x2f05a9d2b1c1318e}},
            {"em3d", {0x2f66d25c2cb3f073, 0x940ba1dd4696b8cd,
                0xe0d306e079162d57, 0x8880c328b9a9cc85, 0x74f6d323805e5627}},
            {"ilink", {0x16bd4a637a3d4bc0, 0xb7022de0af1f8da8,
                0x317497b5fbb7b9bb, 0x41e122009b061b1b, 0xc1f4cd4b8577155b}},
            {"jacobi", {0xcb165b13bcd61265, 0x1a44b84ed7c6006f,
                0xe9b5ec69906a4527, 0x50539fe57f25926f, 0xd5bc2eb6f0400a52}},
            {"mp3d", {0x86a3a5cfeb34210c, 0x2e5d3f3c3c175415,
                0x8e8b6bb5e5da6110, 0x5417feba64eb6ba2, 0x9526b14ecf6eb31a}},
            {"shallow", {0xb36e7d63c12d5af5, 0xc26a502f24ac7b8d,
                0xcb476736451434e4, 0xc11ae06ffd2f09a4, 0x8fdc91cb3e7c83a7}},
            {"tsp", {0xe8557bc2986b4343, 0x61947167ea444b01,
                0xb12ada5a452f4872, 0x4397dab5fb399252, 0xdf2a3f25ef47baee}},
        }},
    };
    const auto apps = workload::paperApps();
    for (const Figure &fig : figures) {
        ASSERT_EQ(fig.expected.size(), apps.size());
        for (std::size_t a = 0; a < apps.size(); ++a) {
            ASSERT_EQ(apps[a].name, fig.expected[a].app);
            for (int n = 0; n < 5; ++n) {
                sim::SweepJob job;
                job.config = sim::SystemConfig::paperConfig(fig.cores,
                                                            kNets[n]);
                job.config.seed = 1;
                job.app = apps[a];
                job.scale = fig.scale;
                const auto r = sim::SweepRunner::runJob(job, false).result;
                const std::uint64_t got = resultDigest(r);
                const std::uint64_t want = fig.expected[a].digest[n];
                if (got == want)
                    continue;
                ADD_FAILURE() << apps[a].name << "."
                              << sim::netKindName(kNets[n]) << "@"
                              << fig.cores << ": digest 0x" << std::hex
                              << got << " != 0x" << want << std::dec;
                printFields(r);
            }
        }
    }
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
