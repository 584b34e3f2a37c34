/**
 * @file
 * Simulator-performance harness: times a fixed 16-core matrix
 * (mesh + FSOI interconnects x fft + radix workloads, seed 7, plus an
 * idle-heavy FSOI point that stresses the event calendar's skip path)
 * and reports simulated cycles per second of host time, wall time,
 * and peak RSS. The same matrix is then re-run through the parallel
 * SweepRunner to time the multi-job path.
 *
 * Usage:
 *   perf_harness [--quick] [--jobs=N] [--reps=N]
 *                [--json=FILE] [--check=FILE] [--tolerance=F]
 *
 *   --quick        scale the workloads down (the configuration the
 *                  committed BENCH_perf.json and tools/ci.sh use)
 *   --reps=N       time each run N times and keep the fastest
 *                  (default 3; cycle counts must agree across reps)
 *   --json=FILE    write the measurements as JSON (schema below)
 *   --check=FILE   compare against a previously written JSON file:
 *                  per-run cycle counts must match exactly (stat
 *                  drift) and cycles/sec must be within the tolerance
 *                  (default 0.10 = +/-10%); exit non-zero on failure.
 *                  The sweep speedup is also compared, informationally
 *                  on a single-CPU host (no parallelism to measure).
 *
 * JSON schema:
 *   {"schema":"fsoi-perf-1","quick":true,"jobs":4,"host_cpus":8,
 *    "runs":[{"name":"mesh.fft","cycles":123,"wall_s":1.5,
 *             "cycles_per_sec":82.0},...],
 *    "profile":[{"name":"mesh.fft","sampled_cycles":123,
 *                "total_ns":456,"phases":{"network":0.31,...}},...],
 *    "total":{"cycles":...,"wall_s":...,"cycles_per_sec":...},
 *    "sweep":{"jobs":4,"wall_s":...,"speedup_vs_serial":...},
 *    "peak_rss_mb":123.4}
 *
 * The cycles/sec gate is a same-machine regression guard: host speed
 * varies across machines, so regenerate the committed baseline
 * (`perf_harness --quick --json=BENCH_perf.json`) when moving CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench_util.hh"

using namespace fsoi;

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch()).count();
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct RunSpec
{
    const char *name;
    sim::NetKind kind;
    const char *app;
};

struct RunMeasurement
{
    std::string name;
    std::uint64_t cycles = 0;
    double wall_s = 0;
    double cps = 0;
};

/** Pull the number following `"key":` after position @p from. */
bool
extractNumber(const std::string &doc, const std::string &key,
              std::size_t from, double &out, std::size_t *at = nullptr)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = doc.find(needle, from);
    if (pos == std::string::npos)
        return false;
    out = std::atof(doc.c_str() + pos + needle.size());
    if (at)
        *at = pos;
    return true;
}

int
checkAgainst(const std::string &path, double tolerance,
             const std::vector<RunMeasurement> &runs, double speedup,
             unsigned host_cpus)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "perf_harness: cannot read baseline '%s'\n",
                     path.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string doc = ss.str();

    int failures = 0;
    for (const auto &run : runs) {
        const std::size_t at = doc.find("\"name\":\"" + run.name + "\"");
        if (at == std::string::npos) {
            std::fprintf(stderr, "CHECK FAIL %-12s missing from %s\n",
                         run.name.c_str(), path.c_str());
            ++failures;
            continue;
        }
        double base_cycles = 0, base_cps = 0;
        if (!extractNumber(doc, "cycles", at, base_cycles)
            || !extractNumber(doc, "cycles_per_sec", at, base_cps)) {
            std::fprintf(stderr, "CHECK FAIL %-12s malformed entry\n",
                         run.name.c_str());
            ++failures;
            continue;
        }
        if (static_cast<std::uint64_t>(base_cycles) != run.cycles) {
            std::fprintf(stderr,
                         "CHECK FAIL %-12s cycle drift: baseline %llu, "
                         "now %llu\n", run.name.c_str(),
                         (unsigned long long)base_cycles,
                         (unsigned long long)run.cycles);
            ++failures;
            continue;
        }
        const double rel = run.cps / base_cps - 1.0;
        if (rel < -tolerance) {
            std::fprintf(stderr,
                         "CHECK FAIL %-12s cycles/sec %.0f vs baseline "
                         "%.0f (%.1f%%, tolerance -%.0f%%)\n",
                         run.name.c_str(), run.cps, base_cps, 100 * rel,
                         100 * tolerance);
            ++failures;
            continue;
        }
        std::printf("check ok   %-12s cycles match, cycles/sec %+.1f%%\n",
                    run.name.c_str(), 100 * rel);
    }

    // Sweep speedup: only meaningful with real parallel hardware. On
    // a single-CPU host the sweep measures pool overhead, so report
    // the comparison without letting it gate.
    double base_speedup = 0;
    std::size_t sweep_at = doc.find("\"sweep\":");
    if (sweep_at != std::string::npos
        && extractNumber(doc, "speedup_vs_serial", sweep_at,
                         base_speedup)
        && base_speedup > 0) {
        const double rel = speedup / base_speedup - 1.0;
        if (host_cpus <= 1) {
            std::printf("check info sweep speedup %.2fx vs baseline "
                        "%.2fx (single-CPU host, informational)\n",
                        speedup, base_speedup);
        } else if (rel < -tolerance) {
            std::fprintf(stderr,
                         "CHECK FAIL sweep speedup %.2fx vs baseline "
                         "%.2fx (%.1f%%, tolerance -%.0f%%)\n",
                         speedup, base_speedup, 100 * rel,
                         100 * tolerance);
            ++failures;
        } else {
            std::printf("check ok   sweep speedup %.2fx vs baseline "
                        "%.2fx (%+.1f%%)\n", speedup, base_speedup,
                        100 * rel);
        }
    }
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int jobs = 0; // 0 = hardware concurrency
    int reps = 3;
    std::string json_path, check_path;
    double tolerance = 0.10;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg.rfind("--jobs=", 0) == 0)
            jobs = std::atoi(arg.data() + 7);
        else if (arg.rfind("--reps=", 0) == 0)
            reps = std::max(1, std::atoi(arg.data() + 7));
        else if (arg.rfind("--json=", 0) == 0)
            json_path = std::string(arg.substr(7));
        else if (arg.rfind("--check=", 0) == 0)
            check_path = std::string(arg.substr(8));
        else if (arg.rfind("--tolerance=", 0) == 0)
            tolerance = std::atof(arg.data() + 12);
        else {
            std::fprintf(stderr,
                         "usage: perf_harness [--quick] [--jobs=N] "
                         "[--reps=N] [--json=FILE] [--check=FILE] "
                         "[--tolerance=F]\n");
            return 2;
        }
    }
    const double scale = quick ? 0.25 : 1.0;
    const int sweep_jobs = common::resolveJobs(jobs);
    const unsigned host_cpus =
        std::max(1u, std::thread::hardware_concurrency());

    const auto timedConfig = [](sim::NetKind kind) {
        return bench::paperConfig(16, kind, 7);
    };

    // The first four points are the busy-matrix cycles/sec gate; the
    // idle-heavy point stresses the event calendar's skip path (long
    // compute bursts, near-quiescent memory system) and is gated
    // separately in tools/ci.sh.
    const RunSpec specs[] = {
        {"mesh.fft", sim::NetKind::Mesh, "fft"},
        {"mesh.radix", sim::NetKind::Mesh, "radix"},
        {"fsoi.fft", sim::NetKind::Fsoi, "fft"},
        {"fsoi.radix", sim::NetKind::Fsoi, "radix"},
        {"fsoi.idle", sim::NetKind::Fsoi, "idle"},
    };

    bench::banner("perf harness",
                  quick ? "16-core matrix, quick scale"
                        : "16-core matrix, full scale");

    // Serial section: each run timed individually on this thread,
    // best-of-reps to shrug off transient host load. Reps are
    // interleaved round-robin across the matrix (rep 0 of every run,
    // then rep 1, ...) so a throttled window on a shared host cannot
    // poison all samples of one run. This is the single-thread
    // hot-path number the CI gate tracks.
    std::vector<RunMeasurement> runs;
    for (const auto &spec : specs) {
        RunMeasurement m;
        m.name = spec.name;
        runs.push_back(std::move(m));
    }
    for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const auto cfg = timedConfig(specs[i].kind);
            const auto app = workload::appByName(specs[i].app);
            const double t0 = nowSeconds();
            const auto res = bench::runConfig(cfg, app, scale);
            const double wall = nowSeconds() - t0;
            if (rep == 0) {
                runs[i].cycles = res.cycles;
                runs[i].wall_s = wall;
            } else if (res.cycles != runs[i].cycles) {
                std::fprintf(stderr,
                             "perf_harness: nondeterministic cycle "
                             "count on %s\n", specs[i].name);
                return 1;
            }
            runs[i].wall_s = std::min(runs[i].wall_s, wall);
        }
    }
    std::uint64_t total_cycles = 0;
    double total_wall = 0;
    for (auto &m : runs) {
        m.cps = m.wall_s > 0
                    ? static_cast<double>(m.cycles) / m.wall_s : 0;
        std::printf("%-12s %9llu cycles  %7.3f s  %10.0f cyc/s\n",
                    m.name.c_str(), (unsigned long long)m.cycles,
                    m.wall_s, m.cps);
        total_cycles += m.cycles;
        total_wall += m.wall_s;
    }
    const double total_cps =
        total_wall > 0 ? static_cast<double>(total_cycles) / total_wall
                       : 0;
    std::printf("%-12s %9llu cycles  %7.3f s  %10.0f cyc/s\n", "total",
                (unsigned long long)total_cycles, total_wall, total_cps);

    // Parallel section: the same matrix fanned across the sweep
    // runner. On a multi-core host the wall time approaches
    // total_wall / min(jobs, 4); with one hardware thread it only
    // measures pool overhead.
    double sweep_wall = 0;
    {
        sim::SweepRunner runner(sweep_jobs);
        std::vector<std::future<sim::RunResult>> futs;
        const double t0 = nowSeconds();
        for (const auto &spec : specs)
            futs.push_back(runner.submit(sim::SweepJob{
                timedConfig(spec.kind),
                workload::appByName(spec.app), scale}));
        for (std::size_t i = 0; i < futs.size(); ++i) {
            const auto res = futs[i].get();
            if (res.cycles != runs[i].cycles) {
                std::fprintf(stderr,
                             "perf_harness: parallel run diverged on "
                             "%s\n", specs[i].name);
                return 1;
            }
        }
        sweep_wall = nowSeconds() - t0;
    }
    const double speedup = sweep_wall > 0 ? total_wall / sweep_wall : 0;
    std::printf("sweep        --jobs=%-2d          %7.3f s  "
                "(%.2fx vs serial)\n", sweep_jobs, sweep_wall, speedup);
    std::printf("peak RSS     %.1f MiB\n", peakRssMb());

    // Self-profile section: re-run the matrix untimed, keeping each
    // System so its phase profiler can attribute host time across the
    // tick phases. Separate from the timed loops above so the report
    // never perturbs the cycles/sec gate.
    struct ProfileRow
    {
        std::string name;
        std::uint64_t sampled_cycles = 0;
        double total_ns = 0;
        double frac[obs::kNumTickPhases] = {};
        // host.sched.* scheduler counters: how many cycles the event
        // calendar executed vs skipped outright.
        double executed = 0;
        double skipped = 0;
        double dispatched = 0;
    };
    std::vector<ProfileRow> profiles;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto outcome = sim::SweepRunner::runJob(
            sim::SweepJob{timedConfig(specs[i].kind),
                          workload::appByName(specs[i].app), scale},
            true);
        const obs::PhaseProfiler &prof = outcome.system->profiler();
        ProfileRow row;
        row.name = runs[i].name;
        row.sampled_cycles = prof.sampledCycles();
        row.total_ns = static_cast<double>(prof.totalNs());
        for (int p = 0; p < obs::kNumTickPhases; ++p)
            row.frac[p] = prof.fraction(static_cast<obs::TickPhase>(p));
        const auto &reg = outcome.system->statRegistry();
        const auto sched = [&reg](const char *name) {
            const auto *e = reg.find(name);
            return e && e->derived ? e->derived() : 0.0;
        };
        row.executed = sched("host.sched.cycles_executed");
        row.skipped = sched("host.sched.cycles_skipped");
        row.dispatched = sched("host.sched.events_dispatched");
        profiles.push_back(std::move(row));
    }
    std::printf("\nphase profile (fraction of sampled tick time)\n");
    std::printf("%-12s", "");
    for (int p = 0; p < obs::kNumTickPhases; ++p)
        std::printf(" %11s",
                    obs::tickPhaseName(static_cast<obs::TickPhase>(p)));
    std::printf("\n");
    for (const auto &row : profiles) {
        std::printf("%-12s", row.name.c_str());
        for (int p = 0; p < obs::kNumTickPhases; ++p)
            std::printf(" %10.1f%%", 100.0 * row.frac[p]);
        std::printf("\n");
    }

    std::printf("\nevent calendar (host.sched.*)\n");
    std::printf("%-12s %12s %12s %9s %14s\n", "", "executed", "skipped",
                "skip%", "dispatched");
    for (const auto &row : profiles) {
        const double total = row.executed + row.skipped;
        std::printf("%-12s %12.0f %12.0f %8.1f%% %14.0f\n",
                    row.name.c_str(), row.executed, row.skipped,
                    total > 0 ? 100.0 * row.skipped / total : 0.0,
                    row.dispatched);
    }

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::fprintf(stderr, "cannot open '%s'\n", json_path.c_str());
            return 1;
        }
        os << "{\"schema\":\"fsoi-perf-1\",\"quick\":"
           << (quick ? "true" : "false") << ",\"jobs\":" << sweep_jobs
           << ",\"host_cpus\":" << host_cpus << ",\"runs\":[";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"cycles\":%llu,"
                          "\"wall_s\":%.4f,\"cycles_per_sec\":%.0f}",
                          i ? "," : "", runs[i].name.c_str(),
                          (unsigned long long)runs[i].cycles,
                          runs[i].wall_s, runs[i].cps);
            os << buf;
        }
        os << "],\"profile\":[";
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            const auto &row = profiles[i];
            os << (i ? "," : "") << "{\"name\":\"" << row.name
               << "\",\"sampled_cycles\":" << row.sampled_cycles
               << ",\"total_ns\":" << row.total_ns << ",\"phases\":{";
            for (int p = 0; p < obs::kNumTickPhases; ++p) {
                char cell[64];
                std::snprintf(cell, sizeof(cell), "%s\"%s\":%.4f",
                              p ? "," : "",
                              obs::tickPhaseName(
                                  static_cast<obs::TickPhase>(p)),
                              row.frac[p]);
                os << cell;
            }
            os << "}}";
        }
        char tail[256];
        std::snprintf(tail, sizeof(tail),
                      "],\"total\":{\"cycles\":%llu,\"wall_s\":%.4f,"
                      "\"cycles_per_sec\":%.0f},"
                      "\"sweep\":{\"jobs\":%d,\"wall_s\":%.4f,"
                      "\"speedup_vs_serial\":%.3f},"
                      "\"peak_rss_mb\":%.1f}\n",
                      (unsigned long long)total_cycles, total_wall,
                      total_cps, sweep_jobs, sweep_wall, speedup,
                      peakRssMb());
        os << tail;
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (!check_path.empty()) {
        const int failures = checkAgainst(check_path, tolerance, runs,
                                          speedup, host_cpus);
        if (failures) {
            std::fprintf(stderr, "perf_harness: %d check failure(s)\n",
                         failures);
            return 1;
        }
        std::printf("all checks passed (tolerance %.0f%%)\n",
                    100 * tolerance);
    }
    return 0;
}
