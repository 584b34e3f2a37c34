/**
 * @file
 * Checkpoint/restore guarantees: a restored run is bit-identical to
 * the uninterrupted run (including faulted configs), a restored
 * System saves back the exact bytes it was restored from, corrupted or
 * truncated snapshots are rejected with a named-section diagnosis, and
 * the campaign layer resumes crashed sweeps without changing a single
 * output byte.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/campaign.hh"
#include "sim/sweep_runner.hh"
#include "snapshot/archive.hh"
#include "workload/apps.hh"

#include "run_result_eq.hh"

namespace fsoi {
namespace {

sim::SweepJob
point(sim::NetKind kind, const char *app, std::uint64_t seed,
      int cores = 16, double scale = 0.03)
{
    sim::SweepJob job;
    job.config = sim::SystemConfig::paperConfig(cores, kind);
    job.config.seed = seed;
    job.app = workload::appByName(app);
    job.scale = scale;
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

TEST(Snapshot, RestoredRunBitIdentical)
{
    // Checkpoint mid-run and resume: the resumed run must reproduce
    // the uninterrupted run exactly.
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    const auto full = sim::SweepRunner::runJob(job, false).result;
    ASSERT_TRUE(full.completed);
    const std::string path = tmpPath("rt.ckpt");
    checkpointAt(job, 4000, path);
    testsupport::expectSameResult(full, resumeFrom(path, job));
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
    testsupport::expectSameResult(full, resumeFrom(path, job));
    std::filesystem::remove(path);

    // Mesh with dead links exercises the reroute/retx machinery.
    auto mesh = point(sim::NetKind::Mesh, "fft", 7);
    mesh.config.fault.dead_link_fraction = 1.0 / 24.0;
    const auto mesh_full = sim::SweepRunner::runJob(mesh, false).result;
    ASSERT_TRUE(mesh_full.completed);
    const std::string mpath = tmpPath("fault_mesh.ckpt");
    checkpointAt(mesh, 4000, mpath);
    testsupport::expectSameResult(mesh_full, resumeFrom(mpath, mesh));
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
        // Misses issued before the capture complete in the restored
        // run through the L1s' construction-time completion wiring.
        std::size_t misses = 0;
        for (int n = 0; n < job.config.num_cores; ++n)
            misses += sys.l1(static_cast<NodeId>(n)).outstandingMisses();
        EXPECT_GE(misses, 1u) << "at cycle " << c.at;
        sys.saveCheckpoint(second);
        EXPECT_EQ(bytes, readBytes(second)) << "at cycle " << c.at;
        testsupport::expectSameResult(full, sys.run());
        std::filesystem::remove(first);
        std::filesystem::remove(second);
    }
}

/** The "name size hash" manifest stats_report --snapshot --manifest
 *  prints, so a mismatch below can be diffed against a reference. */
std::string
manifestOf(const snapshot::SnapshotReader &snap)
{
    std::ostringstream os;
    char line[512];
    std::snprintf(line, sizeof(line), "snapshot v%u root %016llx\n",
                  snap.version(),
                  static_cast<unsigned long long>(snap.rootHash()));
    os << line;
    for (const auto &s : snap.sections()) {
        std::snprintf(line, sizeof(line), "%s %llu %016llx\n",
                      s.name.c_str(),
                      static_cast<unsigned long long>(s.size),
                      static_cast<unsigned long long>(s.hash));
        os << line;
    }
    return os.str();
}

TEST(Snapshot, GoldenRootHashes)
{
    // Pins the checkpoint bytes of every network kind's serializer,
    // the fault state included: the root hash covers each section's
    // name, size and FNV-1a, so any change to a field's width, order
    // or presence moves it (RestoreThenSaveIsByteIdentical only checks
    // self-consistency). A mismatch is a format change: never
    // regenerate these constants to make a serializer edit pass. On a
    // mismatch the manifest below diffs against
    // `stats_report --snapshot F --manifest` of a reference build. The
    // 64-core cases are ~4.5 MB checkpoints, 90% directory ways: the
    // shape of a 64-core campaign's periodic saves.
    struct Case
    {
        const char *label;
        sim::NetKind kind;
        std::uint64_t seed;
        Cycle at;
        double ber;
        double dead_link_fraction;
        std::uint64_t root;
        int cores = 16;
        const char *app = "fft";
        double scale = 0.03;
    };
    const Case cases[] = {
        {"fsoi", sim::NetKind::Fsoi, 42, 21916, 0.0, 0.0,
         0x047980469c232470ULL},
        {"mesh", sim::NetKind::Mesh, 42, 43242, 0.0, 0.0,
         0x695bfca35b456fb7ULL},
        {"l0", sim::NetKind::L0, 42, 21916, 0.0, 0.0,
         0xe7cab6082e608a1fULL},
        {"fsoi_ber", sim::NetKind::Fsoi, 7, 4000, 1e-4, 0.0,
         0x5b46dceb78fbe219ULL},
        {"mesh_dead_links", sim::NetKind::Mesh, 7, 4000, 0.0, 1.0 / 24.0,
         0xaca2182189223272ULL},
        {"fsoi64_ocean", sim::NetKind::Fsoi, 42, 20000, 0.0, 0.0,
         0x47329c0fa38cac81ULL, 64, "ocean", 1.0},
        {"mesh64_ocean", sim::NetKind::Mesh, 42, 20000, 0.0, 0.0,
         0x9e01138cb8beec33ULL, 64, "ocean", 1.0},
    };
    for (const Case &c : cases) {
        auto job = point(c.kind, c.app, c.seed, c.cores, c.scale);
        job.config.fault.ber = c.ber;
        job.config.fault.dead_link_fraction = c.dead_link_fraction;
        const std::string path = tmpPath(std::string("golden_") + c.label
                                         + ".ckpt");
        checkpointAt(job, c.at, path);
        const auto snap = snapshot::SnapshotReader::fromFile(path);
        EXPECT_EQ(snap.rootHash(), c.root)
            << c.label << " at cycle " << c.at << ", manifest:\n"
            << manifestOf(snap);
        std::filesystem::remove(path);
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

    // A file that ends inside the fixed header or inside a section
    // table entry is truncation too, diagnosed as such.
    const auto diagnosis = [&](std::size_t keep) {
        try {
            snapshot::SnapshotReader snap(std::vector<std::uint8_t>(
                bytes.begin(), bytes.begin() + keep));
        } catch (const snapshot::SnapshotError &e) {
            return std::string(e.what());
        }
        return std::string("parsed");
    };
    EXPECT_EQ(diagnosis(0), "snapshot.truncated: header");
    EXPECT_EQ(diagnosis(12), "snapshot.truncated: header");
    EXPECT_EQ(diagnosis(24 + 1), "snapshot.truncated: section table");
    EXPECT_EQ(diagnosis(24 + 2 + 3), "snapshot.truncated: section table");
}

TEST(Snapshot, UnreadablePathIsAnIoError)
{
    // A read error is not a malformed snapshot: fromFile() names the
    // path instead of blaming the header.
    const std::string dir = tmpPath("a_directory");
    std::filesystem::create_directories(dir);
    try {
        (void)snapshot::SnapshotReader::fromFile(dir);
        FAIL() << "read a directory as a snapshot";
    } catch (const snapshot::SnapshotError &e) {
        EXPECT_EQ(std::string(e.what()), "snapshot.io: cannot read " + dir);
    }
    std::filesystem::remove_all(dir);
}

TEST(Snapshot, UnwritablePathIsAnIoError)
{
    // The save streams into <path>.tmp from the start, so a missing
    // directory fails before any section is written, naming that file.
    const std::string path = tmpPath("no_such_dir") + "/x.ckpt";
    const auto job = point(sim::NetKind::Fsoi, "fft", 3);
    sim::System sys(job.config);
    sys.loadApp(job.app.scaled(job.scale));
    try {
        sys.saveCheckpoint(path);
        FAIL() << "saved into a missing directory";
    } catch (const snapshot::SnapshotError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "snapshot.io: cannot write " + path + ".tmp");
    }
}

TEST(Snapshot, UncommittedWriterLeavesNoFile)
{
    // A save abandoned part-way (an exception out of a serializer)
    // leaves neither the snapshot nor its temp file.
    const std::string path = tmpPath("uncommitted.ckpt");
    {
        snapshot::SnapshotWriter out(path);
        out.section("meta").u64(42);
        (void)out.section("more");
        EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
    }
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Snapshot, BatchedHashMatchesSerial)
{
    // fnv1aEach() hashes four ranges per loop, grouped by size; each
    // hash must equal fnv1a() of its range, whatever the count of
    // ranges (fewer than four included) and whatever their lengths:
    // empty, random, and several equal odd ones (1001 bytes).
    std::mt19937_64 rng(7);
    std::vector<std::uint8_t> pool(1 << 16);
    for (auto &b : pool)
        b = static_cast<std::uint8_t>(rng());
    for (std::size_t count = 0; count <= 13; ++count) {
        std::vector<std::span<const std::uint8_t>> ranges;
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t len = i % 5 == 0   ? 0
                                    : i % 3 == 0 ? 1001
                                                 : rng() % 3001;
            const std::size_t at = rng() % (pool.size() - len);
            ranges.emplace_back(pool.data() + at, len);
        }
        const std::vector<std::uint64_t> hashes = snapshot::fnv1aEach(ranges);
        ASSERT_EQ(hashes.size(), count);
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hashes[i],
                      snapshot::fnv1a(ranges[i].data(), ranges[i].size()))
                << "range " << i << " of " << count << ", "
                << ranges[i].size() << " bytes";
    }
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

    // With two sections corrupt, the first in file order is named,
    // though the larger, later one is hashed in an earlier batch.
    auto twice = bytes;
    for (const char *name : {"core5", "dir9"}) {
        const auto &sec = *std::find_if(
            intact.sections().begin(), intact.sections().end(),
            [&](const auto &s) { return s.name == name; });
        twice[sec.offset + sec.size / 2] ^= 0x01;
    }
    try {
        snapshot::SnapshotReader snap(std::move(twice));
        FAIL() << "two corrupt sections parsed";
    } catch (const snapshot::SnapshotError &e) {
        EXPECT_EQ(std::string(e.what()), "snapshot.corrupt: core5");
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

TEST(Campaign, FinishedPointsLeaveOnlyTheJournal)
{
    // A kill during a point's periodic save leaves <point>.ckpt.tmp.
    // Here the rerun finishes before its first periodic save, so no
    // later save replaces that file; once the point is done, neither
    // checkpoint file may stay.
    const std::string dir = tmpPath("camp_stale_tmp");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/p0.ckpt.tmp") << "half a snapshot";
    sim::CampaignConfig cc;
    cc.dir = dir;
    sim::CampaignRunner runner(cc);
    const auto outcomes = runner.run({campaignPoint("p0", 3)});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].result.completed);
    std::vector<std::string> left;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        left.push_back(entry.path().filename().string());
    EXPECT_EQ(left, std::vector<std::string>{"campaign.jsonl"});
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

TEST(Campaign, DuplicatePointNamesDie)
{
    // Two horizons under one name would share a journal key: a resumed
    // campaign would replay the second point's result for both.
    const std::string dir = tmpPath("camp_dup");
    std::filesystem::remove_all(dir);
    std::vector<sim::CampaignPoint> points{campaignPoint("p", 3),
                                           campaignPoint("p", 3)};
    points[0].job.config.max_cycles = 2000;
    points[1].job.config.max_cycles = 4000;
    sim::CampaignConfig cc;
    cc.dir = dir;
    EXPECT_DEATH(sim::CampaignRunner(cc).run(points),
                 "campaign point 'p' is named twice");
    std::filesystem::remove_all(dir);
}

TEST(Campaign, UnsafePointNamesDie)
{
    // A quote would be escaped in the journal and never replayed; a
    // slash or space does not belong in a checkpoint file name.
    const std::string dir = tmpPath("camp_unsafe");
    std::filesystem::remove_all(dir);
    sim::CampaignConfig cc;
    cc.dir = dir;
    for (const char *name : {"a\"b", "x/y", "a b", "p\\0"})
        EXPECT_DEATH(sim::CampaignRunner(cc).run({campaignPoint(name, 3)}),
                     "names take only")
            << name;
    auto family = campaignPoint("p0", 3);
    family.warm_family = "f/0";
    EXPECT_DEATH(sim::CampaignRunner(cc).run({family}),
                 "warm family 'f/0' takes only");
    // The whole portable set is accepted.
    cc.warmup_cycles = 1000;
    auto ok = campaignPoint("Az09._-", 3);
    ok.warm_family = "f-0.A_z";
    const auto outcomes = sim::CampaignRunner(cc).run({ok});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].result.completed);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace fsoi
