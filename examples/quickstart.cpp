/**
 * @file
 * Quickstart: build a 16-core CMP with the free-space optical
 * interconnect, run one application, and compare against the
 * conventional mesh baseline.
 *
 *   ./quickstart [app] [cores]
 *
 * cores is a plain decimal integer (obs::parseFlagInt) that
 * SystemConfig::paperConfig accepts: a perfect square from 4 to 64;
 * anything else stops with a fatal error naming cores.
 *
 * Also takes the shared observability knobs (see obs/cli.hh): e.g.
 * `--stats-json=run.jsonl --stats-interval=10000` emits a per-epoch
 * time series for the FSOI run, and `FSOI_TRACE=fsoi:2` in the
 * environment writes a Chrome-trace event log.
 *
 * The checkpoint knobs also apply to the FSOI run (the instrumented
 * run of interest): `--checkpoint=FILE --checkpoint-every=N` writes a
 * periodic hash-verified snapshot, `--restore=FILE` resumes from one
 * and finishes bit-identically to the uninterrupted run.
 */

#include <cstdio>
#include <limits>
#include <string>

#include "obs/cli.hh"
#include "sim/stats_io.hh"
#include "sim/system.hh"

using namespace fsoi;

namespace {

sim::RunResult
runOnce(int cores, sim::NetKind kind, const workload::AppProfile &app,
        std::uint64_t seed, const obs::CliOptions *opts = nullptr)
{
    sim::SystemConfig cfg = sim::SystemConfig::paperConfig(cores, kind);
    if (seed != 0)
        cfg.seed = seed;
    sim::System system(cfg);
    system.loadApp(app);
    if (!opts)
        return system.run();
    if (!opts->restore.empty())
        system.restoreCheckpoint(opts->restore);
    if (!opts->checkpoint.empty())
        system.setCheckpoint(opts->checkpoint, opts->checkpoint_every);
    sim::StatsIo stats(system, *opts);
    auto res = system.run();
    stats.finish();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    const obs::CliOptions obs_opts = obs::parseCliOptions(argc, argv);
    const std::string app_name = argc > 1 ? argv[1] : "fft";
    const int cores = argc > 2
        ? static_cast<int>(obs::parseFlagInt(
              "cores", argv[2], 4, std::numeric_limits<int>::max()))
        : 16;

    workload::AppProfile app = workload::appByName(app_name);
    app = app.scaled(0.5); // quick demo run

    std::printf("fsoi-sim quickstart: %d cores, app '%s'\n\n", cores,
                app.name.c_str());

    const auto mesh = runOnce(cores, sim::NetKind::Mesh, app,
                              obs_opts.seed);
    // The stats knobs instrument the run of interest: the FSOI one.
    const auto fsoi_run = runOnce(cores, sim::NetKind::Fsoi, app,
                                  obs_opts.seed, &obs_opts);

    std::printf("%-28s %12s %12s\n", "", "mesh", "FSOI");
    std::printf("%-28s %12llu %12llu\n", "execution cycles",
                (unsigned long long)mesh.cycles,
                (unsigned long long)fsoi_run.cycles);
    std::printf("%-28s %12.2f %12.2f\n", "avg packet latency (cyc)",
                mesh.avg_packet_latency, fsoi_run.avg_packet_latency);
    std::printf("%-28s %12.2f %12.2f\n", "IPC (aggregate)", mesh.ipc,
                fsoi_run.ipc);
    std::printf("%-28s %12.1f %12.1f\n", "avg power (W)",
                mesh.avg_power_w, fsoi_run.avg_power_w);
    std::printf("%-28s %12.3f %12.3f\n", "network energy (J)",
                mesh.energy.network_j, fsoi_run.energy.network_j);
    std::printf("%-28s %12s %12.1f%%\n", "L1 miss rate", "",
                100.0 * fsoi_run.l1_miss_rate);
    std::printf("\nspeedup (mesh -> FSOI): %.2fx\n",
                (double)mesh.cycles / (double)fsoi_run.cycles);
    std::printf("FSOI meta collision rate: %.2f%%, data: %.2f%%\n",
                100.0 * fsoi_run.meta_collision_rate,
                100.0 * fsoi_run.data_collision_rate);
    return 0;
}
