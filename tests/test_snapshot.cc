/**
 * @file
 * Checkpoint/restore guarantees: a restored run is bit-identical to
 * the uninterrupted run (including faulted configs), a restored
 * System saves back the exact bytes it was restored from, corrupted or
 * truncated snapshots are rejected with a named-section diagnosis, and
 * the campaign layer resumes crashed sweeps without changing a single
 * output byte.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/campaign.hh"
#include "sim/sweep_runner.hh"
#include "snapshot/archive.hh"
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

std::string
tmpPath(const std::string &leaf)
{
    return testing::TempDir() + "fsoi_snapshot_" + leaf;
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

/** Checkpoint @p job at @p at cycles (run a horizon-limited copy). */
void
checkpointAt(sim::SweepJob job, Cycle at, const std::string &path)
{
    job.config.max_cycles = at;
    sim::System sys(job.config);
    sys.loadApp(job.app.scaled(job.scale));
    const auto r = sys.run();
    ASSERT_FALSE(r.completed)
        << "checkpoint cycle must fall inside the run";
    sys.saveCheckpoint(path);
}

sim::RunResult
resumeFrom(const std::string &path, const sim::SweepJob &job)
{
    sim::System sys(job.config);
    sys.loadApp(job.app.scaled(job.scale));
    sys.restoreCheckpoint(path);
    return sys.run();
}

/** Field-identical results (same checks as the determinism suite). */
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

TEST(Snapshot, RestoredRunBitIdentical)
{
    // Checkpoint mid-run and resume: the resumed run must reproduce
    // the uninterrupted run exactly.
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const auto full = sim::SweepRunner::runJob(job, false).result;
    ASSERT_TRUE(full.completed);
    const std::string path = tmpPath("rt.ckpt");
    checkpointAt(job, 4000, path);
    expectIdentical(full, resumeFrom(path, job));
    std::filesystem::remove(path);
}

TEST(Snapshot, RestoredFaultedRunBitIdentical)
{
    // Fault injection state (schedules, retransmission queues, RNG
    // position) rides in the snapshot too.
    auto job = point(sim::NetKind::Fsoi, "fft", 7);
    job.config.fault.ber = 1e-4;
    const auto full = sim::SweepRunner::runJob(job, false).result;
    ASSERT_TRUE(full.completed);
    EXPECT_GT(full.fault_bit_errors, 0u);
    const std::string path = tmpPath("fault.ckpt");
    checkpointAt(job, 4000, path);
    expectIdentical(full, resumeFrom(path, job));
    std::filesystem::remove(path);

    // Mesh with dead links exercises the reroute/retx machinery.
    auto mesh = point(sim::NetKind::Mesh, "fft", 7);
    mesh.config.fault.dead_link_fraction = 1.0 / 24.0;
    const auto mesh_full = sim::SweepRunner::runJob(mesh, false).result;
    ASSERT_TRUE(mesh_full.completed);
    const std::string mpath = tmpPath("fault_mesh.ckpt");
    checkpointAt(mesh, 4000, mpath);
    expectIdentical(mesh_full, resumeFrom(mpath, mesh));
    std::filesystem::remove(mpath);
}

TEST(Snapshot, RestoreThenSaveIsByteIdentical)
{
    // The snapshot is a canonical encoding of simulator state: a
    // System restored from a checkpoint saves back the same bytes, and
    // then runs on exactly as the uninterrupted run. The capture
    // cycles are chosen so the "sched" section holds queued local-hop
    // messages, whose order the round trip must preserve.
    const struct
    {
        sim::NetKind kind;
        Cycle at;
    } cases[] = {{sim::NetKind::Fsoi, 21916},
                 {sim::NetKind::Mesh, 43242}};
    for (const auto &c : cases) {
        const auto job = point(c.kind, "fft", 42);
        const auto full = sim::SweepRunner::runJob(job, false).result;
        ASSERT_TRUE(full.completed);
        const std::string first = tmpPath("resave_a.ckpt");
        const std::string second = tmpPath("resave_b.ckpt");
        checkpointAt(job, c.at, first);
        const auto bytes = readBytes(first);

        const snapshot::SnapshotReader snap{
            std::vector<std::uint8_t>(bytes)};
        EXPECT_GE(snap.open("sched").u64(), 2u) << "at cycle " << c.at;

        sim::System sys(job.config);
        sys.loadApp(job.app.scaled(job.scale));
        sys.restoreCheckpoint(first);
        sys.saveCheckpoint(second);
        EXPECT_EQ(bytes, readBytes(second)) << "at cycle " << c.at;
        expectIdentical(full, sys.run());
        std::filesystem::remove(first);
        std::filesystem::remove(second);
    }
}

TEST(Snapshot, PeriodicCheckpointMatchesDirectSave)
{
    // setCheckpoint()'s in-run snapshots capture the same canonical
    // top-of-cycle state as an explicit horizon-limited save.
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string direct = tmpPath("direct.ckpt");
    checkpointAt(job, 4000, direct);

    auto periodic_job = job;
    periodic_job.config.max_cycles = 4001;
    sim::System sys(periodic_job.config);
    sys.loadApp(periodic_job.app.scaled(periodic_job.scale));
    const std::string periodic = tmpPath("periodic.ckpt");
    sys.setCheckpoint(periodic, 4000);
    (void)sys.run();
    EXPECT_EQ(readBytes(direct), readBytes(periodic));
    std::filesystem::remove(direct);
    std::filesystem::remove(periodic);
}

TEST(Snapshot, TruncatedFileNamesTheSection)
{
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string path = tmpPath("trunc.ckpt");
    checkpointAt(job, 4000, path);
    const auto bytes = readBytes(path);
    std::filesystem::remove(path);
    ASSERT_GT(bytes.size(), 1000u);

    // Cutting the file mid-payload must be diagnosed as truncation of
    // a *named* section, never a crash or a silent short read.
    auto cut = bytes;
    cut.resize(bytes.size() / 2);
    try {
        snapshot::SnapshotReader snap(std::move(cut));
        FAIL() << "truncated snapshot parsed";
    } catch (const snapshot::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("snapshot.truncated: "),
                  std::string::npos)
            << e.what();
    }

    // Cutting inside the header is a malformed container.
    auto header_cut = bytes;
    header_cut.resize(12);
    EXPECT_THROW(snapshot::SnapshotReader snap2(std::move(header_cut)),
                 snapshot::SnapshotError);
}

TEST(Snapshot, BitFlipNamesTheSection)
{
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string path = tmpPath("flip.ckpt");
    checkpointAt(job, 4000, path);
    const auto bytes = readBytes(path);
    std::filesystem::remove(path);

    // Locate a known section's payload via an intact reader, flip one
    // bit inside it, and expect the diagnosis to name that section.
    const snapshot::SnapshotReader intact{std::vector<std::uint8_t>(
        bytes)};
    for (const auto &sec : intact.sections()) {
        if (sec.name != "core5" && sec.name != "memory")
            continue;
        auto mutated = bytes;
        mutated[sec.offset + sec.size / 2] ^= 0x01;
        try {
            snapshot::SnapshotReader snap(std::move(mutated));
            FAIL() << "corrupt section " << sec.name << " parsed";
        } catch (const snapshot::SnapshotError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "snapshot.corrupt: " + sec.name);
        }
    }

    // Tampering with the section table itself is caught by the root
    // hash before any payload is trusted.
    auto table = bytes;
    table[8 + 4 + 4 + 8 + 2] ^= 0x01; // first byte of first entry name
    try {
        snapshot::SnapshotReader snap(std::move(table));
        FAIL() << "tampered section table parsed";
    } catch (const snapshot::SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_TRUE(what == "snapshot.corrupt: section table"
                    || what.rfind("snapshot.corrupt:", 0) == 0)
            << what;
    }
}

TEST(Snapshot, ConfigMismatchRejected)
{
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const std::string path = tmpPath("mismatch.ckpt");
    checkpointAt(job, 4000, path);

    const auto other = point(sim::NetKind::Fsoi, "fft", 4); // new seed
    sim::System sys(other.config);
    sys.loadApp(other.app.scaled(other.scale));
    try {
        sys.restoreCheckpoint(path);
        FAIL() << "restored into a mismatching config";
    } catch (const snapshot::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("snapshot.config_mismatch"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove(path);
}

// --- campaign layer -------------------------------------------------

sim::CampaignPoint
campaignPoint(const std::string &name, std::uint64_t seed)
{
    sim::CampaignPoint p;
    p.name = name;
    p.job = point(sim::NetKind::Fsoi, "fft", seed);
    return p;
}

std::string
reportOf(const std::vector<sim::CampaignOutcome> &outcomes)
{
    std::ostringstream os;
    sim::CampaignRunner::writeJson(os, outcomes);
    return os.str();
}

TEST(Campaign, ResumeReplaysDonePointsByteIdentically)
{
    const std::string dir = tmpPath("camp_resume");
    std::filesystem::remove_all(dir);
    sim::CampaignConfig cc;
    cc.dir = dir;
    cc.checkpoint_every = 2000;
    const std::vector<sim::CampaignPoint> points{
        campaignPoint("p0", 3), campaignPoint("p1", 5)};

    std::string first;
    {
        sim::CampaignRunner runner(cc);
        const auto outcomes = runner.run(points);
        ASSERT_EQ(outcomes.size(), 2u);
        EXPECT_EQ(outcomes[0].attempts, 1);
        first = reportOf(outcomes);
    }
    {
        // Same command line again: everything replays from the journal
        // (attempts stay 1 — nothing is re-run) and the report bytes
        // are unchanged.
        sim::CampaignRunner runner(cc);
        const auto outcomes = runner.run(points);
        EXPECT_EQ(outcomes[0].attempts, 1);
        EXPECT_EQ(outcomes[1].attempts, 1);
        EXPECT_EQ(reportOf(outcomes), first);
    }
    std::filesystem::remove_all(dir);
}

TEST(Campaign, RepeatedlyCrashingPointIsQuarantined)
{
    const std::string dir = tmpPath("camp_quarantine");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    // A journal recording three attempts that never finished is what a
    // point that keeps crashing the process leaves behind.
    {
        std::ofstream j(dir + "/campaign.jsonl");
        for (int a = 1; a <= 3; ++a)
            j << "{\"event\":\"start\",\"point\":\"p0\",\"attempt\":"
              << a << "}\n";
    }
    sim::CampaignConfig cc;
    cc.dir = dir;
    cc.max_attempts = 3;
    sim::CampaignRunner runner(cc);
    const auto outcomes =
        runner.run({campaignPoint("p0", 3), campaignPoint("p1", 5)});
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].quarantined);
    EXPECT_EQ(outcomes[0].attempts, 3);
    EXPECT_FALSE(outcomes[1].quarantined);
    EXPECT_TRUE(outcomes[1].result.completed);
    std::filesystem::remove_all(dir);
}

TEST(Campaign, WarmStartMatchesColdResults)
{
    // Horizon sweep off one shared warm snapshot: forking the family
    // members from the post-warmup checkpoint must not change any
    // result relative to simulating each point from cycle zero.
    auto base = point(sim::NetKind::Fsoi, "fft", 3);
    const Cycle warmup = 3000;
    auto makePoints = [&](bool warm) {
        std::vector<sim::CampaignPoint> pts;
        for (int i = 0; i < 3; ++i) {
            sim::CampaignPoint p;
            p.name = "h" + std::to_string(i);
            p.job = base;
            p.job.config.max_cycles =
                warmup + static_cast<Cycle>(i + 1) * 1000;
            if (warm)
                p.warm_family = "f0";
            pts.push_back(std::move(p));
        }
        return pts;
    };

    const std::string warm_dir = tmpPath("camp_warm");
    const std::string cold_dir = tmpPath("camp_cold");
    std::filesystem::remove_all(warm_dir);
    std::filesystem::remove_all(cold_dir);

    sim::CampaignConfig warm_cc;
    warm_cc.dir = warm_dir;
    warm_cc.warmup_cycles = warmup;
    sim::CampaignRunner warm_runner(warm_cc);
    const auto warm = warm_runner.run(makePoints(true));
    EXPECT_TRUE(std::filesystem::exists(warm_dir + "/warm_f0.ckpt"));

    sim::CampaignConfig cold_cc;
    cold_cc.dir = cold_dir;
    sim::CampaignRunner cold_runner(cold_cc);
    const auto cold = cold_runner.run(makePoints(false));

    EXPECT_EQ(reportOf(warm), reportOf(cold));
    std::filesystem::remove_all(warm_dir);
    std::filesystem::remove_all(cold_dir);
}

TEST(Campaign, ParallelJobsMatchSerial)
{
    auto runWith = [&](int jobs, const std::string &dir) {
        std::filesystem::remove_all(dir);
        sim::CampaignConfig cc;
        cc.dir = dir;
        cc.jobs = jobs;
        sim::CampaignRunner runner(cc);
        const auto out = runner.run({campaignPoint("p0", 3),
                                     campaignPoint("p1", 5),
                                     campaignPoint("p2", 9)});
        const std::string report = reportOf(out);
        std::filesystem::remove_all(dir);
        return report;
    };
    const auto serial = runWith(1, tmpPath("camp_j1"));
    EXPECT_EQ(serial, runWith(4, tmpPath("camp_j4")));
}

} // namespace
} // namespace fsoi
