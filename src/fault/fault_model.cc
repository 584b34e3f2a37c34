#include "fault/fault_model.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "photonics/link_budget.hh"
#include "snapshot/serialize.hh"

namespace fsoi::fault {

namespace {

/** Mesh direction indices (match noc/mesh_network.cc). */
enum Direction { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };

int
edgeIdFor(int router, int direction, int side)
{
    if (side <= 1)
        return -1;
    const int x = router % side;
    const int y = router / side;
    const int h_edges = side * (side - 1); // per-row horizontal edges
    switch (direction) {
      case kEast:
        return x + 1 < side ? y * (side - 1) + x : -1;
      case kWest:
        return x > 0 ? y * (side - 1) + (x - 1) : -1;
      case kSouth:
        return y + 1 < side ? h_edges + y * side + x : -1;
      case kNorth:
        return y > 0 ? h_edges + (y - 1) * side + x : -1;
      default:
        return -1;
    }
}

/** Human name of an edge: "r5-east(r6)". */
std::string
edgeName(int edge, int side)
{
    const int h_edges = side * (side - 1);
    std::ostringstream os;
    if (edge < h_edges) {
        const int y = edge / (side - 1);
        const int x = edge % (side - 1);
        os << "r" << (y * side + x) << "-east(r" << (y * side + x + 1)
           << ")";
    } else {
        const int v = edge - h_edges;
        const int y = v / side;
        const int x = v % side;
        os << "r" << (y * side + x) << "-south(r"
           << ((y + 1) * side + x) << ")";
    }
    return os.str();
}

} // namespace

void
FaultConfig::killLink(int router, int direction, int mesh_side)
{
    const int edge = edgeIdFor(router, direction, mesh_side);
    FSOI_ASSERT(edge >= 0, "router %d has no %d-direction link", router,
                direction);
    kill_link.push_back(static_cast<std::uint32_t>(edge));
}

int
FaultInjector::meshEdgeId(int router, int direction) const
{
    return edgeIdFor(router, direction, topo_.mesh_side);
}

FaultInjector::FaultInjector(const FaultConfig &config,
                             const FaultTopology &topo)
    : config_(config), topo_(topo),
      transientRng_(config.seed * 0x9e3779b97f4a7c15ULL + 2)
{
    FSOI_ASSERT(topo_.num_endpoints > 0);
    FSOI_ASSERT(topo_.receivers_per_lane >= 1);
    FSOI_ASSERT(config_.max_retx >= 1);
    FSOI_ASSERT(config_.dead_rx_fraction >= 0.0
                && config_.dead_rx_fraction <= 1.0);
    FSOI_ASSERT(config_.dead_tx_fraction >= 0.0
                && config_.dead_tx_fraction <= 1.0);
    FSOI_ASSERT(config_.dead_link_fraction >= 0.0
                && config_.dead_link_fraction <= 1.0);
    FSOI_ASSERT(config_.ber >= 0.0 && config_.ber < 0.5);
    FSOI_ASSERT(config_.misalignment_m >= 0.0);

    const std::size_t lanes =
        static_cast<std::size_t>(topo_.num_endpoints) * 2;
    const std::size_t rx_channels = lanes * topo_.receivers_per_lane;
    const int side = topo_.mesh_side;
    const std::size_t links =
        side > 1 ? static_cast<std::size_t>(2 * side * (side - 1)) : 0;

    // The schedule stream is separate from the transient stream: the
    // same seed picks the same victims whether or not BER is enabled.
    Rng schedule_rng(config_.seed * 0x9e3779b97f4a7c15ULL + 1);
    schedule(deadRx_, rx_channels, config_.dead_rx_fraction,
             config_.kill_rx, deadRxCount_, schedule_rng);
    schedule(deadTx_, lanes, config_.dead_tx_fraction, config_.kill_tx,
             deadTxCount_, schedule_rng);
    schedule(deadLink_, links, config_.dead_link_fraction,
             config_.kill_link, deadLinkCount_, schedule_rng);

    failStreak_.assign(rx_channels, 0);
    blacklist_.assign(rx_channels, 0);

    // Beam misalignment -> BER through the photonics link budget: a
    // Gaussian beam displaced laterally by d at spot radius w delivers
    // the power fraction exp(-2 d^2 / w^2); the photocurrent swing (and
    // with it the Q factor) scales by the same fraction, and the
    // degraded Q gives the error rate of the misaligned channel.
    if (config_.misalignment_m > 0.0) {
        const photonics::OpticalLink link; // Table 1 reference link
        const auto report = link.evaluate();
        const double w = link.path().beamRadiusAt(
            link.path().params().distance_m);
        const double d = config_.misalignment_m;
        const double power_frac = std::exp(-2.0 * d * d / (w * w));
        misalignmentBer_ =
            photonics::OpticalLink::qToBer(report.q_factor * power_frac);
    }
    // Independent error sources combine as 1 - (1-p1)(1-p2).
    effectiveBer_ = 1.0
        - (1.0 - config_.ber) * (1.0 - misalignmentBer_);
    if (effectiveBer_ > 0.0) {
        // P(packet corrupt) = 1 - (1 - ber)^bits, computed stably.
        for (int cls = 0; cls < 2; ++cls) {
            const double bits = cls == 0 ? 72.0 : 360.0;
            corruptProb_[cls] =
                -std::expm1(bits * std::log1p(-effectiveBer_));
        }
    }
}

void
FaultInjector::schedule(std::vector<char> &dead, std::size_t total,
                        double fraction,
                        const std::vector<std::uint32_t> &kills,
                        std::uint64_t &count, Rng &rng)
{
    dead.assign(total, 0);
    if (total == 0)
        return;
    // Fisher-Yates permutation; the first ceil(f * total) entries die.
    // Prefix selection makes dead sets nested across fractions.
    std::vector<std::uint32_t> perm(total);
    for (std::size_t i = 0; i < total; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = total - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.nextBelow(i + 1)]);
    const auto victims = static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(total) - 1e-12));
    for (std::size_t i = 0; i < std::min(victims, total); ++i)
        dead[perm[i]] = 1;
    for (const auto id : kills) {
        FSOI_ASSERT(id < total, "fault kill id %u out of range %zu", id,
                    total);
        dead[id] = 1;
    }
    count = static_cast<std::uint64_t>(
        std::count(dead.begin(), dead.end(), 1));
}

void
FaultInjector::noteChannelFailure(NodeId dst, int cls, int rx)
{
    const std::size_t id = rxChannelId(dst, cls, rx);
    if (blacklist_[id])
        return;
    if (++failStreak_[id] >= config_.max_retx) {
        blacklist_[id] = 1;
        blacklists_++;
    }
}

int
FaultInjector::redirectRx(NodeId src, NodeId dst, int cls)
{
    const int r = topo_.receivers_per_lane;
    const int def = static_cast<int>(src) % r;
    if (!blacklist_[rxChannelId(dst, cls, def)])
        return def;
    for (int rx = 0; rx < r; ++rx) {
        if (rx != def && !blacklist_[rxChannelId(dst, cls, rx)]) {
            redirects_++;
            return rx;
        }
    }
    return def; // every receiver is gone; keep failing on the default
}

void
FaultInjector::registerStats(const obs::Scope &scope) const
{
    scope.counter("bit_errors", bitErrors_);
    scope.counter("dead_channel_losses", deadChannelLosses_);
    scope.counter("blacklists", blacklists_);
    scope.counter("redirects", redirects_);
    scope.counter("unroutable_drops", unroutableDrops_);
    scope.counter("retx_exhausted", retxExhausted_);
    const obs::Scope sched = scope.scope("schedule");
    sched.derived("dead_rx", [this] {
        return static_cast<double>(deadRxCount_);
    });
    sched.derived("dead_tx", [this] {
        return static_cast<double>(deadTxCount_);
    });
    sched.derived("dead_links", [this] {
        return static_cast<double>(deadLinkCount_);
    });
    sched.derived("effective_ber",
                  [this] { return effectiveBer_; });
}

std::string
FaultInjector::diagnose() const
{
    std::ostringstream os;
    bool any = false;
    auto section = [&](const char *what, std::uint64_t n) {
        os << (any ? "; " : "") << n << " " << what;
        any = true;
    };
    if (deadTxCount_ > 0) {
        section("dead fsoi tx lanes", deadTxCount_);
        os << " (";
        int listed = 0;
        for (std::size_t id = 0; id < deadTx_.size() && listed < 8; ++id)
            if (deadTx_[id]) {
                os << (listed++ ? ", " : "") << "n" << id / 2 << "."
                   << classLaneName(static_cast<int>(id % 2));
            }
        os << (deadTxCount_ > 8 ? ", ..." : "") << ")";
    }
    if (deadRxCount_ > 0) {
        section("dead fsoi rx channels", deadRxCount_);
        os << " (";
        int listed = 0;
        const int r = topo_.receivers_per_lane;
        for (std::size_t id = 0; id < deadRx_.size() && listed < 8; ++id)
            if (deadRx_[id]) {
                const std::size_t lane = id / r;
                os << (listed++ ? ", " : "") << "n" << lane / 2 << "."
                   << classLaneName(static_cast<int>(lane % 2)) << ".rx"
                   << id % r;
            }
        os << (deadRxCount_ > 8 ? ", ..." : "") << ")";
    }
    if (deadLinkCount_ > 0) {
        section("dead mesh links", deadLinkCount_);
        os << " (";
        int listed = 0;
        for (std::size_t id = 0; id < deadLink_.size() && listed < 8;
             ++id)
            if (deadLink_[id]) {
                os << (listed++ ? ", " : "")
                   << edgeName(static_cast<int>(id), topo_.mesh_side);
            }
        os << (deadLinkCount_ > 8 ? ", ..." : "") << ")";
    }
    if (blacklists_.value() > 0)
        section("blacklisted rx channels", blacklists_.value());
    if (effectiveBer_ > 0.0) {
        os << (any ? "; " : "") << "effective ber " << effectiveBer_;
        any = true;
    }
    if (!any)
        os << "no faults scheduled";
    return os.str();
}

void
FaultInjector::writeJson(std::ostream &os) const
{
    const int r = topo_.receivers_per_lane;
    os << "{\"effective_ber\":" << effectiveBer_ << ",\"dead_tx\":[";
    bool sep = false;
    for (std::size_t id = 0; id < deadTx_.size(); ++id)
        if (deadTx_[id]) {
            os << (sep ? "," : "") << "{\"node\":" << id / 2
               << ",\"class\":\""
               << classLaneName(static_cast<int>(id % 2)) << "\"}";
            sep = true;
        }
    os << "],\"dead_rx\":[";
    sep = false;
    for (std::size_t id = 0; id < deadRx_.size(); ++id)
        if (deadRx_[id]) {
            const std::size_t lane = id / r;
            os << (sep ? "," : "") << "{\"node\":" << lane / 2
               << ",\"class\":\""
               << classLaneName(static_cast<int>(lane % 2))
               << "\",\"rx\":" << id % r << "}";
            sep = true;
        }
    os << "],\"dead_links\":[";
    sep = false;
    for (std::size_t id = 0; id < deadLink_.size(); ++id)
        if (deadLink_[id]) {
            os << (sep ? "," : "") << "\""
               << edgeName(static_cast<int>(id), topo_.mesh_side)
               << "\"";
            sep = true;
        }
    os << "],\"blacklisted\":[";
    sep = false;
    for (std::size_t id = 0; id < blacklist_.size(); ++id)
        if (blacklist_[id]) {
            const std::size_t lane = id / r;
            os << (sep ? "," : "") << "{\"node\":" << lane / 2
               << ",\"class\":\""
               << classLaneName(static_cast<int>(lane % 2))
               << "\",\"rx\":" << id % r << "}";
            sep = true;
        }
    os << "],\"bit_errors\":" << bitErrors_.value()
       << ",\"dead_channel_losses\":" << deadChannelLosses_.value()
       << ",\"unroutable_drops\":" << unroutableDrops_.value() << "}";
}

void
FaultInjector::serialize(snapshot::Archive &ar)
{
    ar(transientRng_);
    ar.fixed(failStreak_, "fault topology");
    ar.fixed(blacklist_, "fault topology");
    ar(bitErrors_, deadChannelLosses_, blacklists_, redirects_,
       unroutableDrops_, retxExhausted_);
}

} // namespace fsoi::fault
