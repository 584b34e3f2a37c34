/**
 * @file
 * Unit tests for the common infrastructure: RNG, statistics, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/due_list.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace fsoi {
namespace {

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (i == 0)
            EXPECT_NE(va, c.next());
        else
            c.next();
    }
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int bound : {1, 2, 3, 17, 1000}) {
        for (int i = 0; i < 500; ++i) {
            const auto v = rng.nextBelow(bound);
            EXPECT_LT(v, static_cast<std::uint64_t>(bound));
        }
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextRange(3, 5));
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_TRUE(seen.count(3) && seen.count(4) && seen.count(5));
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Accumulator, Moments)
{
    Accumulator acc;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 4u);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 4.0);
    EXPECT_NEAR(acc.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Histogram, BinningAndOverflow)
{
    Histogram h(10.0, 5); // bins [0,10) .. [40,50), overflow
    h.add(0.0);
    h.add(9.99);
    h.add(10.0);
    h.add(49.0);
    h.add(1000.0);
    EXPECT_EQ(h.bin(0), 2u);
    EXPECT_EQ(h.bin(1), 1u);
    EXPECT_EQ(h.bin(4), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
}

TEST(Histogram, Quantile)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
}

TEST(Histogram, PercentileInterpolatesWithinBucket)
{
    // One sample per bin: percentile resolves to sub-bin positions
    // where quantile can only report bucket boundaries.
    Histogram h(10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(static_cast<double>(i) * 10.0 + 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.05), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 95.0);

    // All mass in one bucket: the answer moves with p inside it.
    Histogram one(10.0, 10);
    for (int i = 0; i < 100; ++i)
        one.add(5.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.25), 2.5);
    EXPECT_DOUBLE_EQ(one.percentile(0.5), 5.0);
}

TEST(Histogram, PercentileOverflowAndUnderflow)
{
    // Overflow mass interpolates toward the observed maximum rather
    // than reporting the (unbounded) bucket edge.
    Histogram h(10.0, 2); // [0,10) [10,20) + overflow
    h.add(5.0);
    h.add(15.0);
    h.add(100.0);
    h.add(200.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 200.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.75), 110.0); // 20 + 0.5 * (200-20)

    Histogram neg(1.0, 4);
    neg.add(-3.0);
    neg.add(-1.0);
    EXPECT_EQ(neg.percentile(0.5), 0.0); // underflow mass reports 0

    Histogram empty(1.0, 4);
    EXPECT_EQ(empty.percentile(0.5), 0.0);
}

TEST(Histogram, QuantileEdgeCases)
{
    Histogram empty(1.0, 10);
    EXPECT_EQ(empty.quantile(0.0), 0.0);
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    EXPECT_EQ(empty.quantile(1.0), 0.0);

    Histogram h(1.0, 4);
    for (int i = 0; i < 4; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.quantile(0.0), 0.0);
    // q=1 lands in the last occupied bin's upper edge.
    EXPECT_NEAR(h.quantile(1.0), 4.0, 1e-12);

    // Overflow-heavy distribution: high quantiles land on the overflow
    // bin, reported as one bin width past the binned range.
    Histogram heavy(1.0, 4);
    heavy.add(0.5);
    for (int i = 0; i < 99; ++i)
        heavy.add(1000.0);
    EXPECT_NEAR(heavy.quantile(0.99), 5.0, 1e-12);
    EXPECT_NEAR(heavy.quantile(1.0), 5.0, 1e-12);
}

TEST(Histogram, UnderflowCountedSeparately)
{
    Histogram h(1.0, 4);
    h.add(-3.0);
    h.add(-0.001);
    h.add(0.5);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.bin(0), 1u);
    EXPECT_EQ(h.count(), 3u); // total still includes underflows
    EXPECT_EQ(h.overflow(), 0u);
    // Underflows sit below every bin, so they pull low quantiles to 0.
    EXPECT_EQ(h.quantile(0.5), 0.0);
    h.reset();
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Stats, GeometricMean)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geometricMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_EQ(geometricMean({}), 0.0);
    // Non-positive entries are ignored.
    EXPECT_NEAR(geometricMean({2.0, 8.0, 0.0, -1.0}), 4.0, 1e-12);
}

TEST(Stats, GeometricMeanAllNonPositive)
{
    EXPECT_EQ(geometricMean({0.0, -2.0, -5.0}), 0.0);
}

TEST(Counter, Accumulates)
{
    Counter c;
    c++;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, PrefixIncrementAndMerge)
{
    Counter a;
    ++a;
    ++(++a);
    EXPECT_EQ(a.value(), 3u);

    Counter b;
    b += 7;
    a += b; // merge another counter
    EXPECT_EQ(a.value(), 10u);
    EXPECT_EQ(b.value(), 7u);
}

TEST(TextTable, RendersAligned)
{
    TextTable t({"a", "long_header"});
    t.addRow({"x", "1"});
    t.addRow({"yyyy", "2"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_NE(out.find("yyyy"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.123, 1), "12.3%");
}

struct DueEntry
{
    Cycle due;
    int id;
};

std::vector<int>
ids(const std::vector<DueEntry> &list)
{
    std::vector<int> out;
    for (const DueEntry &e : list)
        out.push_back(e.id);
    return out;
}

TEST(DueList, DueEntriesHandedOverOldestFirst)
{
    // Oldest = earliest queued, whatever the due cycles' order.
    std::vector<DueEntry> list{{5, 0}, {3, 1}, {9, 2}, {5, 3}};
    std::vector<int> seen;
    drainDue(list, 5, [&seen](const DueEntry &e) {
        seen.push_back(e.id);
        return true;
    });
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 3}));
    EXPECT_EQ(ids(list), (std::vector<int>{2}));
}

TEST(DueList, DeclinedAndFutureEntriesKeptInOrder)
{
    std::vector<DueEntry> list{{1, 0}, {8, 1}, {2, 2}, {1, 3}, {9, 4}};
    // Entry 2 is a send the transport refused: it stays queued.
    drainDue(list, 4, [](const DueEntry &e) { return e.id != 2; });
    EXPECT_EQ(ids(list), (std::vector<int>{1, 2, 4}));
    std::vector<int> seen;
    drainDue(list, 8, [&seen](const DueEntry &e) {
        seen.push_back(e.id);
        return true;
    });
    EXPECT_EQ(seen, (std::vector<int>{1, 2}));
    EXPECT_EQ(ids(list), (std::vector<int>{4}));
}

TEST(DueList, EmptyListHasNoDue)
{
    std::vector<DueEntry> list;
    EXPECT_EQ(nextDue(list, 10), kNoCycle);
    list.push_back({3, 0});
    drainDue(list, 3, [](const DueEntry &) { return true; });
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(nextDue(list, 3), kNoCycle);
}

TEST(DueList, NextDueIsEarliestClampedToNextCycle)
{
    const std::vector<DueEntry> list{{12, 0}, {7, 1}, {30, 2}};
    EXPECT_EQ(nextDue(list, 4), 7u);
    // A due now or past (a declined send) retries next cycle.
    EXPECT_EQ(nextDue(list, 7), 8u);
    EXPECT_EQ(nextDue(list, 20), 21u);
}

} // namespace
} // namespace fsoi
