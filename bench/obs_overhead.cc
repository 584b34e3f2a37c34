/**
 * @file
 * Observability overhead gate: runs the same FSOI workload with the
 * telemetry layer at its defaults (flight recorder ring + sampled
 * self-profiler + link counters) and with the tunable parts disabled,
 * then compares their wall-clock times. CI asserts the overhead stays
 * under a budget (default 3%).
 *
 * The two configs must also produce bit-identical simulated cycle
 * counts -- telemetry never touches simulation state -- and the bench
 * fails loudly if they diverge.
 *
 * Runs are timed in pairs: telemetry on and off back to back, the
 * order reversed from one pair to the next, so host drift (throttling,
 * another process's load) falls on both halves of a pair alike and an
 * order effect cancels over the pairs. The gate reads the median of
 * the per-pair on/off time ratios and prints their quartiles. A round
 * over budget may still have caught a throttling spike, so the gate
 * re-measures up to --rounds times and fails only if every round
 * exceeds the budget.
 *
 * Usage: obs_overhead [--max=PCT] [--reps=PAIRS] [--rounds=N] [scale]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.hh"

using namespace fsoi;
using Clock = std::chrono::steady_clock;

namespace {

struct Variant
{
    const char *label;
    sim::SystemConfig config;
    sim::RunResult result;
    std::vector<double> seconds;
    std::vector<double> ratios; //!< per-pair time over telemetry off
};

/** Quantile @p q of @p v (linear between order statistics). */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
pct(double ratio)
{
    return (ratio - 1.0) * 100.0;
}

} // namespace

int
main(int argc, char **argv)
{
    double max_pct = 3.0;
    int pairs = 9;
    int rounds = 3;
    int keep = 1;
    constexpr auto kIntMax =
        static_cast<std::uint64_t>(std::numeric_limits<int>::max());
    for (int i = 1; i < argc; ++i) {
        if (const char *v = obs::flagValue(argv[i], "--max"))
            max_pct = obs::parseFlagReal("--max", v);
        else if (const char *v = obs::flagValue(argv[i], "--reps"))
            pairs = static_cast<int>(
                obs::parseFlagInt("--reps", v, 1, kIntMax));
        else if (const char *v = obs::flagValue(argv[i], "--rounds"))
            rounds = static_cast<int>(
                obs::parseFlagInt("--rounds", v, 1, kIntMax));
        else
            argv[keep++] = argv[i];
    }
    argv[keep] = nullptr;
    argc = keep;
    const double scale = bench::scaleArg(argc, argv, 0.25);

    bench::banner("obs_overhead",
                  "telemetry cost: defaults vs telemetry off");

    const auto app = workload::appByName("fft");
    auto telemetry = bench::paperConfig(16, sim::NetKind::Fsoi);
    auto bare = telemetry;
    bare.flight_recorder_events = 0;
    bare.profile_stride = 0;
    auto recorder_only = bare;
    recorder_only.flight_recorder_events =
        telemetry.flight_recorder_events;
    auto profiler_only = bare;
    profiler_only.profile_stride = telemetry.profile_stride;

    // variants[0] is the baseline every ratio divides by. The
    // single-feature runs are informational: they attribute the
    // overhead, the gate compares only all-on against all-off.
    Variant variants[] = {{"telemetry off", bare, {}, {}, {}},
                          {"telemetry on", telemetry, {}, {}, {}},
                          {"flight recorder only", recorder_only, {}, {},
                           {}},
                          {"profiler only", profiler_only, {}, {}, {}}};
    Variant &off = variants[0];
    Variant &on = variants[1];
    // Even pairs run on, off, then the attributions; odd pairs the
    // reverse. On and off stay adjacent either way.
    constexpr int kOrder[2][4] = {{1, 0, 2, 3}, {3, 2, 0, 1}};

    double overhead_pct = 0.0;
    bool within_budget = false;
    for (int round = 0; round < rounds && !within_budget; ++round) {
        for (Variant &v : variants) {
            v.seconds.clear();
            v.ratios.clear();
        }
        for (int p = 0; p < pairs; ++p) {
            for (const int i : kOrder[p % 2]) {
                Variant &v = variants[i];
                const auto t0 = Clock::now();
                v.result = bench::runConfig(v.config, app, scale);
                v.seconds.push_back(
                    std::chrono::duration<double>(Clock::now() - t0)
                        .count());
            }
            for (Variant &v : variants) {
                if (v.result.cycles != off.result.cycles
                    || v.result.instructions != off.result.instructions) {
                    std::fprintf(
                        stderr,
                        "FAIL: telemetry changed simulation results: %s "
                        "ran %llu cycles, %llu instructions; telemetry "
                        "off %llu, %llu\n",
                        v.label,
                        static_cast<unsigned long long>(v.result.cycles),
                        static_cast<unsigned long long>(
                            v.result.instructions),
                        static_cast<unsigned long long>(off.result.cycles),
                        static_cast<unsigned long long>(
                            off.result.instructions));
                    return 1;
                }
                v.ratios.push_back(v.seconds.back() / off.seconds.back());
            }
        }

        overhead_pct = pct(quantile(on.ratios, 0.5));
        within_budget = overhead_pct <= max_pct;
        if (!within_budget && round + 1 < rounds)
            std::fprintf(stderr,
                         "note: round %d measured %.2f%% (> %.2f%% "
                         "budget), re-measuring\n",
                         round + 1, overhead_pct, max_pct);
    }

    // One keep-run for context: how many events the recorder actually
    // absorbed over the run (the per-event cost drives the overhead).
    const auto kept = sim::SweepRunner::runJob(
        sim::SweepJob{telemetry, app, scale}, true);
    const double events =
        static_cast<double>(kept.system->flightRecorder().recorded());
    const double cycles = static_cast<double>(off.result.cycles);

    std::printf("cycles simulated     : %llu (identical both ways)\n",
                static_cast<unsigned long long>(off.result.cycles));
    std::printf("events recorded      : %.0f (%.2f per cycle)\n", events,
                events / cycles);
    std::printf("pairs timed          : %d, order alternating\n", pairs);
    std::printf("%-21s: %.2f Mcycles/s (median %.3f s)\n", off.label,
                cycles / quantile(off.seconds, 0.5) / 1e6,
                quantile(off.seconds, 0.5));
    for (const Variant &v : variants) {
        if (&v == &off)
            continue;
        std::printf("%-21s: %.2f Mcycles/s (median %.3f s), per-pair "
                    "time vs off %+.2f%% [quartiles %+.2f%%, %+.2f%%]\n",
                    v.label, cycles / quantile(v.seconds, 0.5) / 1e6,
                    quantile(v.seconds, 0.5), pct(quantile(v.ratios, 0.5)),
                    pct(quantile(v.ratios, 0.25)),
                    pct(quantile(v.ratios, 0.75)));
    }
    std::printf("overhead             : %.2f%% median per-pair time "
                "ratio (budget %.2f%%)\n",
                overhead_pct, max_pct);

    if (!within_budget) {
        std::fprintf(stderr,
                     "FAIL: telemetry overhead %.2f%% exceeds budget "
                     "%.2f%% in all %d rounds\n",
                     overhead_pct, max_pct, rounds);
        return 1;
    }
    std::printf("\nPASS\n");
    return 0;
}
