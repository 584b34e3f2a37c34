/**
 * @file
 * Deterministic, config-driven fault injection for the interconnects.
 *
 * Three fault classes, all scheduled up front from a dedicated RNG
 * stream so a (config, seed) pair always produces the same fault set:
 *
 *   Permanent   — dead FSOI transmit lanes (failed VCSEL arrays), dead
 *                 FSOI receiver channels (failed photodetectors), and
 *                 failed mesh links (both directions of an edge die
 *                 together, the booksim InsertRandomFaults idiom).
 *   Degradation — a beam-misalignment offset mapped through the
 *                 photonics link budget: the received power fraction
 *                 exp(-2 d^2 / w^2) of a Gaussian beam displaced by d
 *                 at spot radius w scales the reference link's Q
 *                 factor, and the degraded Q yields a per-bit error
 *                 rate via the standard OOK BER(Q) expression.
 *   Transient   — per-packet bit errors drawn from the combined BER on
 *                 a second dedicated RNG stream (so the fault schedule
 *                 is identical whether or not transient errors are
 *                 enabled).
 *
 * Fractional fault rates select victims as a prefix of one deterministic
 * permutation per fault class, so the dead set at fraction f1 < f2 is a
 * subset of the dead set at f2 ("nested" schedules): degradation sweeps
 * are monotone by construction, never confounded by re-rolled victims.
 *
 * The injector also owns the runtime fault state the datapaths consult:
 * per-channel consecutive-failure counts, the blacklist of FSOI
 * receiver channels that exhausted their retry budget, and the fault.*
 * counters published to the stat registry. It never touches the
 * simulation unless the config enables at least one fault, and a System
 * without faults does not construct one at all — the disabled path is
 * a true no-op.
 */

#ifndef FSOI_FAULT_FAULT_MODEL_HH
#define FSOI_FAULT_FAULT_MODEL_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/stat_registry.hh"

namespace fsoi::snapshot { class Archive; }

namespace fsoi::fault {

/** Packet-class index shared with the networks (0 = meta, 1 = data). */
inline const char *
classLaneName(int cls)
{
    return cls == 0 ? "meta" : "data";
}

/** What to break. Defaults leave everything healthy. */
struct FaultConfig
{
    // --- permanent faults, as fractions of the respective populations
    double dead_rx_fraction = 0.0;   //!< FSOI receiver channels
    double dead_tx_fraction = 0.0;   //!< FSOI transmit lanes
    double dead_link_fraction = 0.0; //!< mesh links (bidirectional edges)

    // --- degradation / transient faults
    double ber = 0.0;             //!< uniform per-bit error rate
    double misalignment_m = 0.0;  //!< lateral beam offset at the receiver

    // --- recovery policy
    /**
     * Consecutive delivery failures on one FSOI receiver channel before
     * the senders give up on it: the channel is blacklisted and traffic
     * redistributes to the surviving receivers of that (node, lane).
     * Also bounds the exponential-backoff window growth of faulty-
     * channel retransmissions.
     */
    int max_retx = 16;

    /** Fault RNG stream seed; 0 = derive from the system seed. */
    std::uint64_t seed = 0;

    // --- explicit kill lists (targeted tests / post-mortem replay) ---
    std::vector<std::uint32_t> kill_rx;   //!< encoded rx channel ids
    std::vector<std::uint32_t> kill_tx;   //!< encoded tx lane ids
    std::vector<std::uint32_t> kill_link; //!< encoded mesh edge ids

    /** Kill receiver @p rx of node @p dst's @p cls lane. */
    void killRx(NodeId dst, int cls, int rx, int receivers_per_lane)
    {
        kill_rx.push_back(static_cast<std::uint32_t>(
            (static_cast<int>(dst) * 2 + cls) * receivers_per_lane + rx));
    }

    /** Kill node @p node's @p cls transmit lane (its VCSEL array). */
    void killTx(NodeId node, int cls)
    {
        kill_tx.push_back(
            static_cast<std::uint32_t>(static_cast<int>(node) * 2 + cls));
    }

    /**
     * Kill the mesh edge leaving router @p router in @p direction
     * (0=east, 1=west, 2=north, 3=south); the reverse direction dies
     * with it. Encoding matches FaultInjector::meshEdgeId().
     */
    void killLink(int router, int direction, int mesh_side);

    bool
    enabled() const
    {
        return dead_rx_fraction > 0.0 || dead_tx_fraction > 0.0
            || dead_link_fraction > 0.0 || ber > 0.0
            || misalignment_m > 0.0 || !kill_rx.empty()
            || !kill_tx.empty() || !kill_link.empty();
    }
};

/** The shape of the system the injector schedules faults over. */
struct FaultTopology
{
    int num_endpoints = 0;      //!< network endpoints (cores + memctls)
    int receivers_per_lane = 2; //!< FSOI receivers per node per lane
    int mesh_side = 0;          //!< mesh grid side (side^2 routers)
};

/** Scheduled faults + runtime fault state + fault.* statistics. */
class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &config, const FaultTopology &topo);

    const FaultConfig &config() const { return config_; }
    const FaultTopology &topology() const { return topo_; }

    // --- fault schedule queries (hot path; plain array lookups) ---

    /** Dead FSOI transmit lane (node's @p cls VCSEL array failed). */
    bool
    txDead(NodeId node, int cls) const
    {
        return deadTx_[static_cast<std::size_t>(node) * 2 + cls] != 0;
    }

    /** Dead FSOI receiver channel (photodetector @p rx at @p dst). */
    bool
    rxDead(NodeId dst, int cls, int rx) const
    {
        return deadRx_[rxChannelId(dst, cls, rx)] != 0;
    }

    /** Dead mesh link out of @p router in @p direction (0..3). */
    bool
    linkDead(int router, int direction) const
    {
        const int edge = meshEdgeId(router, direction);
        return edge >= 0 && deadLink_[edge] != 0;
    }

    std::uint64_t deadRxCount() const { return deadRxCount_; }
    std::uint64_t deadTxCount() const { return deadTxCount_; }
    std::uint64_t deadLinkCount() const { return deadLinkCount_; }

    // --- transient bit errors ---

    /** Per-bit error rate after folding in misalignment degradation. */
    double effectiveBer() const { return effectiveBer_; }

    /**
     * One CRC check: true when a packet of class @p cls picked up at
     * least one bit error in transit. Draws from the dedicated
     * transient stream only when the corruption probability is
     * nonzero, so a dead-channel-only schedule consumes no entropy.
     */
    bool
    corrupts(int cls)
    {
        if (corruptProb_[cls] <= 0.0)
            return false;
        if (!transientRng_.nextBool(corruptProb_[cls]))
            return false;
        bitErrors_++;
        return true;
    }

    // --- FSOI channel health tracking / blacklist ---

    /** A fault (dead channel or CRC drop) ate a reception on @p rx. */
    void noteChannelFailure(NodeId dst, int cls, int rx);

    /** A clean delivery on @p rx; resets its failure streak. */
    void
    noteChannelSuccess(NodeId dst, int cls, int rx)
    {
        failStreak_[rxChannelId(dst, cls, rx)] = 0;
    }

    bool
    blacklisted(NodeId dst, int cls, int rx) const
    {
        return blacklist_[rxChannelId(dst, cls, rx)] != 0;
    }

    /**
     * Receiver index sender @p src should target at @p dst: the static
     * partition (src mod R) unless that channel is blacklisted, in
     * which case traffic redistributes to the lowest live receiver.
     * Falls back to the static choice when every receiver is dead --
     * the sender keeps failing and the watchdog diagnoses the wedge.
     */
    int redirectRx(NodeId src, NodeId dst, int cls);

    // --- fault event counters (shared by both datapaths) ---

    void countDeadChannelLoss() { deadChannelLosses_++; }
    void countUnroutableDrop() { unroutableDrops_++; }
    void countRetxExhausted() { retxExhausted_++; }

    std::uint64_t bitErrors() const { return bitErrors_.value(); }
    std::uint64_t blacklists() const { return blacklists_.value(); }
    std::uint64_t unroutableDrops() const
    { return unroutableDrops_.value(); }

    /** Publish fault.* counters under @p scope. */
    void registerStats(const obs::Scope &scope) const;

    /**
     * One-line post-mortem naming every scheduled fault and every
     * blacklisted channel, e.g.
     * "2 dead fsoi rx channels (n3.meta.rx0, n7.data.rx1); ...".
     */
    std::string diagnose() const;

    /** Fault section of the flight recorder's "context" object. */
    void writeJson(std::ostream &os) const;

    /**
     * Checkpoint/restore (snapshot/serialize.hh): the mutable runtime
     * state only — the transient RNG cursor, failure streaks, the
     * blacklist, and the fault.* counters. The schedule (dead tables,
     * effective BER) is reconstructed deterministically from (config,
     * topology) at construction and is not serialized.
     */
    void serialize(snapshot::Archive &ar);

    /** Encoded rx channel id (see FaultConfig::killRx). */
    std::size_t
    rxChannelId(NodeId dst, int cls, int rx) const
    {
        return (static_cast<std::size_t>(dst) * 2 + cls)
            * topo_.receivers_per_lane + rx;
    }

    /**
     * Canonical mesh edge id for (router, direction), or -1 when the
     * edge does not exist (grid boundary). Horizontal edges first
     * (y * (side-1) + x for the edge east of (x, y)), then vertical.
     */
    int meshEdgeId(int router, int direction) const;

  private:
    /**
     * Mark the first ceil(fraction * total) entries of a deterministic
     * permutation of [0, total) dead, plus the explicit kills. The
     * permutation is always drawn (even at fraction 0) so schedules
     * for the three fault classes stay independent of each other's
     * fractions.
     */
    void schedule(std::vector<char> &dead, std::size_t total,
                  double fraction,
                  const std::vector<std::uint32_t> &kills,
                  std::uint64_t &count, Rng &rng);

    FaultConfig config_;
    FaultTopology topo_;
    Rng transientRng_; //!< bit-error draws only

    std::vector<char> deadTx_;   //!< [node * 2 + cls]
    std::vector<char> deadRx_;   //!< [rxChannelId]
    std::vector<char> deadLink_; //!< [meshEdgeId]
    std::uint64_t deadTxCount_ = 0;
    std::uint64_t deadRxCount_ = 0;
    std::uint64_t deadLinkCount_ = 0;

    double effectiveBer_ = 0.0;
    double misalignmentBer_ = 0.0;
    double corruptProb_[2] = {0.0, 0.0}; //!< per class, per packet

    std::vector<std::uint16_t> failStreak_; //!< per rx channel
    std::vector<char> blacklist_;           //!< per rx channel

    Counter bitErrors_;         //!< CRC-detected corrupted packets
    Counter deadChannelLosses_; //!< receptions eaten by dead hardware
    Counter blacklists_;        //!< channels retired by the retry budget
    Counter redirects_;         //!< transmissions steered off a blacklisted rx
    Counter unroutableDrops_;   //!< mesh packets with no live route
    Counter retxExhausted_;     //!< retries past the bounded budget
};

} // namespace fsoi::fault

#endif // FSOI_FAULT_FAULT_MODEL_HH
