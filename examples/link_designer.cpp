/**
 * @file
 * Link designer: explore the free-space optical design space with the
 * photonics library the way Section 3 and 4.2 of the paper do --
 * sweep distance, apertures, drive current and lane widths, and report
 * which configurations close the link budget (BER target) and what
 * they cost in energy and slot cycles.
 *
 *   ./link_designer [target_ber]
 */

#include <cstdio>
#include <initializer_list>

#include "analytic/bandwidth_alloc.hh"
#include "obs/cli.hh"
#include "photonics/link_budget.hh"
#include "photonics/units.hh"

using namespace fsoi;
using namespace ::fsoi::photonics;

namespace {

void
sweepDistance(double target_ber)
{
    std::printf("1) Path-loss / BER vs free-space distance "
                "(90/190 um lenses, 0.48 mA drive)\n\n");
    std::printf("   %-10s %-10s %-8s %-10s %s\n", "distance", "loss(dB)",
                "Q", "BER", "closes?");
    for (double cm : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0}) {
        PathParams path;
        path.distance_m = cm / 100.0;
        OpticalLink link(VcselParams{}, path);
        const auto r = link.evaluate();
        std::printf("   %5.1f cm   %6.2f     %5.2f   %-9.1e %s\n", cm,
                    r.path_loss_db, r.q_factor, r.bit_error_rate,
                    r.bit_error_rate <= target_ber ? "yes" : "NO");
    }
}

void
sweepReceiverAperture(double target_ber)
{
    std::printf("\n2) Receiver micro-lens aperture at the full 2 cm "
                "diagonal\n\n");
    std::printf("   %-12s %-10s %-10s %s\n", "rx aperture", "loss(dB)",
                "BER", "closes?");
    for (double um : {100.0, 140.0, 190.0, 250.0, 320.0}) {
        PathParams path;
        path.rx_aperture_m = um * 1e-6;
        OpticalLink link(VcselParams{}, path);
        const auto r = link.evaluate();
        std::printf("   %6.0f um    %6.2f     %-9.1e %s\n", um,
                    r.path_loss_db, r.bit_error_rate,
                    r.bit_error_rate <= target_ber ? "yes" : "NO");
    }
}

void
sweepDriveCurrent(double target_ber)
{
    std::printf("\n3) Drive current vs link margin and energy/bit\n");
    std::printf("   (Section 4.3.1: accepting collisions lets the BER\n"
                "   relax from 1e-10 to ~1e-5, buying energy headroom)\n\n");
    std::printf("   %-9s %-10s %-10s %-12s %-12s\n", "I_avg", "BER",
                "pJ/bit", "ok @1e-10", "ok @1e-5");
    for (double ma : {0.25, 0.32, 0.40, 0.48, 0.60, 0.80}) {
        LinkParams lp;
        lp.average_current_a = ma * 1e-3;
        // Driver power scales roughly with drive current.
        lp.laser_driver_power_w = 6.3e-3 * ma / 0.48;
        OpticalLink link(VcselParams{}, PathParams{},
                         PhotodetectorParams{}, TiaParams{}, lp);
        const auto r = link.evaluate();
        std::printf("   %.2f mA   %-9.1e %6.2f     %-12s %s\n", ma,
                    r.bit_error_rate, r.energy_per_bit_j * 1e12,
                    r.bit_error_rate <= 1e-10 ? "yes" : "NO",
                    r.bit_error_rate <= 1e-5 ? "yes" : "NO");
    }
    (void)target_ber;
}

void
laneSplit()
{
    std::printf("\n4) Lane-width allocation (Section 4.3.1): 9 VCSELs "
                "split between meta and data\n\n");
    std::printf("   %-8s %-8s %-10s %-10s %-10s\n", "meta", "data",
                "B_M", "slots m/d", "latency (a.u.)");
    const auto constants = analytic::paperConstants();
    for (int meta = 1; meta <= 5; ++meta) {
        const int data = 9 - meta;
        const double bm = static_cast<double>(meta) / 9.0;
        const int mslot = (72 + meta * 12 - 1) / (meta * 12);
        const int dslot = (360 + data * 12 - 1) / (data * 12);
        std::printf("   %-8d %-8d %-10.3f %d / %-6d %.2f%s\n", meta, data,
                    bm, mslot, dslot,
                    analytic::expectedLatency(constants, bm),
                    meta == 3 ? "   <- paper's choice" : "");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const double target_ber =
        argc > 1 ? obs::parseFlagReal("target_ber", argv[1]) : 1e-10;
    std::printf("fsoi-sim link designer (target BER %.0e)\n\n",
                target_ber);
    sweepDistance(target_ber);
    sweepReceiverAperture(target_ber);
    sweepDriveCurrent(target_ber);
    laneSplit();
    return 0;
}
