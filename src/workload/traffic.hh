/**
 * @file
 * Network-only synthetic traffic: drive an interconnect directly with
 * classic NoC patterns, without the coherence stack. Used by the
 * benchmark's per-network probes (benchmark/fsoi_bench.cc) and anywhere
 * a controlled offered load is needed (e.g. saturation studies).
 */

#ifndef FSOI_WORKLOAD_TRAFFIC_HH
#define FSOI_WORKLOAD_TRAFFIC_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "noc/network.hh"

namespace fsoi::workload {

/** Spatial traffic patterns. */
enum class TrafficPattern : std::uint8_t
{
    UniformRandom, //!< every other endpoint equally likely
    Hotspot,       //!< a fraction of traffic converges on one node
    Transpose,     //!< node (x, y) talks to node (y, x)
    Neighbor,      //!< node i talks to node (i + 1) mod N
};

const char *trafficPatternName(TrafficPattern pattern);

/** Configuration of a synthetic injector. */
struct TrafficConfig
{
    TrafficPattern pattern = TrafficPattern::UniformRandom;
    /** Per-node per-cycle injection probability. */
    double injection_rate = 0.01;
    /** Fraction of packets that are data-class (long). */
    double data_fraction = 0.3;
    /** Hotspot: the favoured destination and its traffic share. */
    NodeId hotspot = 0;
    double hotspot_fraction = 0.5;
    /** Only the first this-many endpoints inject (cores, typically). */
    int active_endpoints = 0; // 0 = all
    std::uint64_t seed = 1;
};

/** Results of a driven run. */
struct TrafficResult
{
    std::uint64_t offered = 0;   //!< packets handed to the network
    std::uint64_t refused = 0;   //!< send() rejections (backpressure)
    std::uint64_t delivered = 0;
    double avg_latency = 0.0;
    double meta_collision_rate = 0.0; //!< 0 for non-FSOI networks
    double data_collision_rate = 0.0;
};

/**
 * Synthetic traffic driver: owns the injection process for every
 * endpoint of a network. The caller still ticks the network; call
 * inject() once per cycle while load should be offered.
 */
class TrafficGenerator
{
  public:
    TrafficGenerator(noc::Network &network, const TrafficConfig &config,
                     int mesh_side);

    /** Offer one cycle's worth of load at cycle @p now. */
    void inject(Cycle now);

    /** Drive for @p warm + @p measure cycles and drain; collect stats. */
    TrafficResult run(Cycle measure_cycles, Cycle max_drain = 200000);

    std::uint64_t offered() const { return offered_; }
    std::uint64_t refused() const { return refused_; }

  private:
    NodeId pickDestination(NodeId src);

    noc::Network &network_;
    TrafficConfig config_;
    int side_;
    int active_;
    Rng rng_;
    std::uint64_t offered_ = 0;
    std::uint64_t refused_ = 0;
};

} // namespace fsoi::workload

#endif // FSOI_WORKLOAD_TRAFFIC_HH
