/**
 * @file
 * Regenerates Figure 6: 16-node system performance.
 *
 *  (a) total packet latency of the FSOI interconnect broken into
 *      queuing / scheduling / network / collision-resolution
 *      components, against the conventional mesh;
 *  (b) speedups of FSOI and the L0 / Lr1 / Lr2 ideal configurations
 *      relative to the mesh baseline
 *      (paper geometric means: FSOI 1.36, L0 1.43, Lr1 1.32, Lr2 1.22).
 */

#include "perf_figure.hh"

int
main(int argc, char **argv)
{
    return fsoi::bench::perfFigure(
        argc, argv,
        {"fig6", "Figure 6", "16-node latency breakdown and speedups", 16,
         0.25, {1.36, 1.43, 1.32, 1.22}});
}
