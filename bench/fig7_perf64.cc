/**
 * @file
 * Regenerates Figure 7: 64-node system performance with the
 * phase-array-based FSOI transmitters (1-cycle re-steer delay).
 * Paper geometric means: FSOI 1.75, L0 1.91, Lr1 1.55, Lr2 1.29, and
 * FSOI latency rising to ~12.6 cycles mostly through queuing.
 */

#include "perf_figure.hh"

int
main(int argc, char **argv)
{
    return fsoi::bench::perfFigure(
        argc, argv,
        {"fig7", "Figure 7",
         "64-node latency breakdown and speedups (phase array)", 64, 0.08,
         {1.75, 1.91, 1.55, 1.29}});
}
