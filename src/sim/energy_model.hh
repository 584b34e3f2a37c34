/**
 * @file
 * Activity-based energy model (Wattch/Orion-style, Section 6 "Power").
 *
 * Dynamic energy is per-event (instructions, cache accesses, router
 * micro-operations, laser slot-cycles); leakage and always-on analog
 * power accrue per cycle. Constants are representative 45 nm values
 * calibrated so the 16-node mesh baseline lands near the paper's
 * reported operating point (~156 W total, mesh interconnect tens of
 * watts, FSOI interconnect ~1.8 W).
 */

#ifndef FSOI_SIM_ENERGY_MODEL_HH
#define FSOI_SIM_ENERGY_MODEL_HH

#include <cstdint>

#include "fsoi/fsoi_network.hh"
#include "noc/mesh_network.hh"

namespace fsoi::sim {

/** Per-event energies and static powers. */
struct EnergyParams
{
    double freq_hz = 3.3e9; //!< the system clock (System derives GHz)

    // Core + cache dynamic energy.
    double core_active_pj = 3600.0; //!< per busy core cycle (4-wide OoO)
    double core_idle_pj = 900.0;    //!< per stalled core cycle (clocking)
    double l1_access_pj = 20.0;
    double l2_access_pj = 150.0;
    double mem_access_nj = 10.0;    //!< per DRAM line transfer

    // Leakage (temperature dependence folded into the average).
    double leakage_w_per_node = 2.8; //!< core + caches + controller

    // Mesh router events (Orion-flavoured, 72-bit flits).
    double buffer_write_pj = 1.1;
    double buffer_read_pj = 0.9;
    double crossbar_pj = 1.9;
    double arbitration_pj = 0.1;
    double link_pj = 4.5;           //!< per flit per hop (5 mm wire)
    /**
     * Per-router static + clock power. Canonical 4-stage VC routers
     * carry hundreds of flit buffers and a full crossbar (the Alpha
     * 21364 router matched 20% of the core + 128 KB cache area); at
     * 45 nm / 3.3 GHz this burns watts whether or not flits flow --
     * the dominant term behind the paper's ~20x interconnect-energy
     * gap versus the always-off optical chain.
     */
    double router_static_w = 2.0;

    // FSOI optical chain (Table 1).
    double vcsel_drive_mw = 7.26;   //!< laser driver 6.3 + VCSEL 0.96
    double rx_mw_per_bit = 4.2;     //!< TIA chain, always on
    double tx_standby_mw = 0.43;    //!< per VCSEL when not lasing
    double control_bit_pj = 2.0;    //!< confirmation-lane mini-slot
};

/** Energy totals in joules plus the derived average power. */
struct EnergyReport
{
    double core_j = 0.0;     //!< core pipeline dynamic
    double cache_j = 0.0;    //!< L1 + L2 dynamic
    double memory_j = 0.0;   //!< DRAM access
    double network_j = 0.0;  //!< interconnect (dynamic + its static)
    double leakage_j = 0.0;  //!< node leakage

    double
    total() const
    {
        return core_j + cache_j + memory_j + network_j + leakage_j;
    }

    /** Average power in watts given the run length. */
    double averagePower(std::uint64_t cycles, double freq_hz) const;
};

/** Aggregated activity of a finished run. */
struct ActivitySummary
{
    std::uint64_t cycles = 0;
    int nodes = 0;              //!< core tiles (leakage, receivers)
    int routers = 0;            //!< mesh routers (0 for FSOI)
    std::uint64_t active_cycles = 0; //!< summed over cores
    std::uint64_t stall_cycles = 0;
    std::uint64_t l1_accesses = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t mem_accesses = 0;
    const noc::MeshActivity *mesh = nullptr;   //!< when mesh-based
    const fsoi::FsoiActivity *fsoi = nullptr;  //!< when FSOI-based
    int fsoi_rx_bits_per_node = 19; //!< 2x6 data + 2x3 meta + 1 confirm
    int fsoi_vcsels_per_node = 10;  //!< 6 + 3 + 1
};

/** Evaluate the model over a run's activity. */
EnergyReport computeEnergy(const EnergyParams &params,
                           const ActivitySummary &activity);

} // namespace fsoi::sim

#endif // FSOI_SIM_ENERGY_MODEL_HH
