/**
 * @file
 * The one RunResult comparison shared by the suites that check runs
 * for bit-identity (determinism, snapshot restore, campaign replay,
 * fault replay, the event-calendar round trip): every member through
 * sim::forEachField, each EnergyReport component and collision
 * category included, doubles compared exactly.
 */

#ifndef FSOI_TESTS_RUN_RESULT_EQ_HH
#define FSOI_TESTS_RUN_RESULT_EQ_HH

#include <gtest/gtest.h>

#include "sim/system.hh"

namespace fsoi::testsupport {

inline void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b)
{
    sim::forEachField(
        [](const char *name, const auto &x, const auto &y) {
            EXPECT_EQ(x, y) << name;
        },
        a, b);
}

} // namespace fsoi::testsupport

#endif // FSOI_TESTS_RUN_RESULT_EQ_HH
