/**
 * @file
 * The one program body of Figures 6 and 7 (16- and 64-node system
 * performance): for every application, the mesh, FSOI and the L0 /
 * Lr1 / Lr2 ideal networks at one core count, printing
 *
 *  (a) the FSOI packet latency broken into queuing / scheduling /
 *      network / collision-resolution components, against the mesh;
 *  (b) the speedups of FSOI, L0, Lr1 and Lr2 over the mesh, with their
 *      geometric means beside the paper's.
 */

#ifndef FSOI_BENCH_PERF_FIGURE_HH
#define FSOI_BENCH_PERF_FIGURE_HH

#include <array>
#include <cstdio>
#include <iostream>

#include "bench_util.hh"

namespace fsoi::bench {

struct PerfFigure
{
    const char *id;     //!< figure JSON id ("fig6")
    const char *title;  //!< banner id ("Figure 6")
    const char *what;   //!< banner text
    int cores;
    double default_scale;
    std::array<double, 4> paper; //!< geomeans: FSOI, L0, Lr1, Lr2
};

inline int
perfFigure(int argc, char **argv, const PerfFigure &fig)
{
    FigureJson json(argc, argv, fig.id);
    Sweep sweep(argc, argv);
    const double scale = scaleArg(argc, argv, fig.default_scale);
    banner(fig.title, fig.what);

    // Mesh first: it is every speedup's baseline.
    static constexpr sim::NetKind kNets[] = {
        sim::NetKind::Mesh, sim::NetKind::Fsoi, sim::NetKind::L0,
        sim::NetKind::Lr1, sim::NetKind::Lr2};
    static constexpr const char *kGeomeans[] = {
        "geomean_fsoi", "geomean_l0", "geomean_lr1", "geomean_lr2"};

    const auto apps = bench::apps();
    std::vector<std::array<std::future<sim::RunResult>, 5>> queued;
    for (const auto &app : apps) {
        auto &runs = queued.emplace_back();
        for (int n = 0; n < 5; ++n)
            runs[n] = sweep.run(paperConfig(fig.cores, kNets[n]), app,
                                scale);
    }

    TextTable lat({"app", "queue", "sched", "net", "coll", "total",
                   "mesh"});
    TextTable spd({"app", "FSOI", "L0", "Lr1", "Lr2"});
    std::array<std::vector<double>, 4> speedups;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        std::array<sim::RunResult, 5> r;
        for (int n = 0; n < 5; ++n)
            r[n] = queued[i][n].get();
        const sim::RunResult &mesh = r[0];
        const sim::RunResult &fso = r[1];

        lat.addRow({apps[i].name, TextTable::num(fso.queuing, 1),
                    TextTable::num(fso.scheduling, 1),
                    TextTable::num(fso.network, 1),
                    TextTable::num(fso.collision_resolution, 1),
                    TextTable::num(fso.avg_packet_latency, 1),
                    TextTable::num(mesh.avg_packet_latency, 1)});

        std::vector<std::string> row{apps[i].name};
        for (int s = 0; s < 4; ++s) {
            speedups[s].push_back(static_cast<double>(mesh.cycles)
                                  / r[s + 1].cycles);
            row.push_back(TextTable::num(speedups[s].back(), 2));
        }
        spd.addRow(row);
    }

    std::array<double, 4> geomean;
    for (int s = 0; s < 4; ++s)
        geomean[s] = geometricMean(speedups[s]);
    std::printf("(a) FSOI packet latency breakdown vs mesh (cycles):\n\n");
    lat.print(std::cout);
    std::printf("\n(b) speedup over the mesh baseline:\n\n");
    spd.print(std::cout);
    std::printf("\ngeometric means:  FSOI %.2f   L0 %.2f   Lr1 %.2f   "
                "Lr2 %.2f\n",
                geomean[0], geomean[1], geomean[2], geomean[3]);
    std::printf("(paper:           FSOI %.2f   L0 %.2f   Lr1 %.2f   "
                "Lr2 %.2f)\n",
                fig.paper[0], fig.paper[1], fig.paper[2], fig.paper[3]);
    json.table(lat);
    json.table(spd);
    for (int s = 0; s < 4; ++s)
        json.scalar(kGeomeans[s], geomean[s]);
    return 0;
}

} // namespace fsoi::bench

#endif // FSOI_BENCH_PERF_FIGURE_HH
