/**
 * @file
 * Ablation study of the FSOI design choices called out in DESIGN.md:
 *
 *  - receivers per node (R = 1, 2, 3): Section 4.3.1 predicts
 *    diminishing returns past R = 2;
 *  - backoff base B (1.1 vs 2.0): Figure 4's over-correction argument
 *    at the system level;
 *  - Section 5 optimizations one at a time (confirmation-as-ack,
 *    ll/sc subscription, data-collision measures).
 *
 * Each row runs a sync- and sharing-heavy subset of the workloads on
 * the 16-node system and reports execution cycles (normalized to the
 * full paper configuration), packet latency and collision rates.
 */

#include <cstdio>

#include <iostream>

#include "bench_util.hh"

using namespace fsoi;

namespace {

struct Variant
{
    const char *name;
    std::function<void(sim::SystemConfig &)> tweak;
};

struct Row
{
    double cycles = 0;
    double latency = 0;
    double meta_coll = 0;
    double data_coll = 0;
};

std::vector<std::future<sim::RunResult>>
enqueueVariant(bench::Sweep &sweep, const Variant &variant, double scale)
{
    const char *subset[] = {"ws", "mp3d", "tsp", "fft", "barnes"};
    std::vector<std::future<sim::RunResult>> runs;
    for (const char *name : subset) {
        auto cfg = bench::paperConfig(16, sim::NetKind::Fsoi, 3);
        variant.tweak(cfg);
        runs.push_back(sweep.run(cfg, workload::appByName(name), scale));
    }
    return runs;
}

Row
collectVariant(std::vector<std::future<sim::RunResult>> &runs)
{
    Row row;
    int n = 0;
    for (auto &run : runs) {
        const auto res = run.get();
        row.cycles += static_cast<double>(res.cycles);
        row.latency += res.avg_packet_latency;
        row.meta_coll += res.meta_collision_rate;
        row.data_coll += res.data_collision_rate;
        ++n;
    }
    row.latency /= n;
    row.meta_coll /= n;
    row.data_coll /= n;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FigureJson json(argc, argv, "ablation");
    bench::Sweep sweep(argc, argv);
    const double scale = bench::scaleArg(argc, argv, 0.2);
    bench::banner("Ablation", "FSOI design choices (16 nodes)");

    const Variant variants[] = {
        {"paper config (R=2, B=1.1, all opts)",
         [](sim::SystemConfig &) {}},
        {"R=1 receiver per lane",
         [](sim::SystemConfig &cfg) {
             cfg.fsoi.receivers_per_lane = 1;
         }},
        {"R=3 receivers per lane",
         [](sim::SystemConfig &cfg) {
             cfg.fsoi.receivers_per_lane = 3;
         }},
        {"backoff B=2.0 (over-correction)",
         [](sim::SystemConfig &cfg) { cfg.fsoi.backoff_base = 2.0; }},
        {"backoff W=1 B=1.1 (window too small)",
         [](sim::SystemConfig &cfg) { cfg.fsoi.backoff_window = 1.0; }},
        {"no confirmation-as-ack",
         [](sim::SystemConfig &cfg) {
             cfg.opt_confirmation_ack = false;
         }},
        {"no ll/sc subscription",
         [](sim::SystemConfig &cfg) {
             cfg.opt_sync_subscription = false;
         }},
        {"no data-collision measures",
         [](sim::SystemConfig &cfg) { cfg.opt_data_collision = false; }},
        {"no optimizations at all",
         [](sim::SystemConfig &cfg) {
             cfg.opt_confirmation_ack = false;
             cfg.opt_sync_subscription = false;
             cfg.opt_data_collision = false;
         }},
    };

    TextTable table({"variant", "rel. time", "pkt lat", "meta coll",
                     "data coll"});
    std::vector<std::vector<std::future<sim::RunResult>>> queued;
    for (const auto &variant : variants)
        queued.push_back(enqueueVariant(sweep, variant, scale));

    double base_cycles = 0;
    for (std::size_t v = 0; v < queued.size(); ++v) {
        const auto &variant = variants[v];
        const Row row = collectVariant(queued[v]);
        if (base_cycles == 0)
            base_cycles = row.cycles;
        table.addRow({variant.name,
                      TextTable::num(row.cycles / base_cycles, 3),
                      TextTable::num(row.latency, 2),
                      TextTable::pct(row.meta_coll, 2),
                      TextTable::pct(row.data_coll, 2)});
    }
    json.table(table);
    table.print(std::cout);
    std::printf("\n(rel. time: summed cycles over a sync-heavy subset, "
                "normalized to the paper configuration; R=2 should sit "
                "near the knee, B=2 and the no-opt variants should "
                "lose ground)\n");
    return 0;
}
