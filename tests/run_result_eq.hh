/**
 * @file
 * The one RunResult comparison shared by the suites that check runs
 * for bit-identity (determinism, snapshot restore, fault replay, the
 * event-calendar round trip): every field in declaration order, each
 * EnergyReport component included, doubles compared exactly. A field
 * added to RunResult belongs here too.
 */

#ifndef FSOI_TESTS_RUN_RESULT_EQ_HH
#define FSOI_TESTS_RUN_RESULT_EQ_HH

#include <gtest/gtest.h>

#include "sim/system.hh"

namespace fsoi::testsupport {

inline void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
    EXPECT_EQ(a.queuing, b.queuing);
    EXPECT_EQ(a.scheduling, b.scheduling);
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.collision_resolution, b.collision_resolution);
    EXPECT_EQ(a.packets_delivered, b.packets_delivered);
    EXPECT_EQ(a.meta_collision_rate, b.meta_collision_rate);
    EXPECT_EQ(a.data_collision_rate, b.data_collision_rate);
    EXPECT_EQ(a.meta_tx_probability, b.meta_tx_probability);
    for (int c = 0; c < 5; ++c)
        EXPECT_EQ(a.data_collisions_by_cat[c], b.data_collisions_by_cat[c])
            << "collision category " << c;
    EXPECT_EQ(a.data_resolution_delay, b.data_resolution_delay);
    EXPECT_EQ(a.l1_miss_rate, b.l1_miss_rate);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.sync_packets, b.sync_packets);
    EXPECT_EQ(a.control_bits, b.control_bits);
    EXPECT_EQ(a.energy.core_j, b.energy.core_j);
    EXPECT_EQ(a.energy.cache_j, b.energy.cache_j);
    EXPECT_EQ(a.energy.memory_j, b.energy.memory_j);
    EXPECT_EQ(a.energy.network_j, b.energy.network_j);
    EXPECT_EQ(a.energy.leakage_j, b.energy.leakage_j);
    EXPECT_EQ(a.avg_power_w, b.avg_power_w);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.fault_bit_errors, b.fault_bit_errors);
    EXPECT_EQ(a.blacklisted_channels, b.blacklisted_channels);
    EXPECT_EQ(a.unroutable_drops, b.unroutable_drops);
    EXPECT_EQ(a.fault_diagnosis, b.fault_diagnosis);
}

} // namespace fsoi::testsupport

#endif // FSOI_TESTS_RUN_RESULT_EQ_HH
