/**
 * @file
 * Lightweight statistics primitives used across the simulator.
 *
 * Components keep plain members of these types and expose them through
 * their public interface; the sim::System aggregates and prints them.
 */

#ifndef FSOI_COMMON_STATS_HH
#define FSOI_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace fsoi {

/** Monotonic event counter. */
class Counter
{
  public:
    Counter &operator++() { ++value_; return *this; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t n) { value_ += n; }
    /** Merge another counter (registry aggregation across tiles). */
    Counter &operator+=(const Counter &other)
    {
        value_ += other.value_;
        return *this;
    }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Checkpoint hook (snapshot/serialize.hh). */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(value_);
    }

  private:
    std::uint64_t value_ = 0;
};

/** Streaming mean/min/max/stddev accumulator. */
class Accumulator
{
  public:
    void
    add(double x)
    {
        n_ += 1;
        sum_ += x;
        sumsq_ += x * x;
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? sum_ / n_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Population variance. */
    double
    variance() const
    {
        if (n_ == 0)
            return 0.0;
        const double m = mean();
        const double v = sumsq_ / n_ - m * m;
        return v > 0.0 ? v : 0.0;
    }

    double stddev() const;

    void
    reset()
    {
        n_ = 0;
        sum_ = sumsq_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    /** Checkpoint hook (snapshot/serialize.hh): the exact internal
     *  state. The raw min/max (infinities when empty) and sumsq
     *  round-trip so a restored accumulator continues bit-identically. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(n_, sum_, sumsq_, min_, max_);
    }

  private:
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    double sumsq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-bin-width histogram with underflow and overflow buckets.
 *
 * Bin i covers [i * binWidth, (i + 1) * binWidth); samples at or past
 * numBins * binWidth land in the overflow bucket, negative samples in
 * the underflow counter.
 */
class Histogram
{
  public:
    Histogram(double bin_width, std::size_t num_bins)
        : binWidth_(bin_width), bins_(num_bins + 1, 0)
    {
        FSOI_ASSERT(bin_width > 0.0 && num_bins > 0);
    }

    void
    add(double x)
    {
        total_ += 1;
        acc_.add(x);
        if (x < 0.0) {
            underflow_ += 1;
            return;
        }
        auto idx = static_cast<std::size_t>(x / binWidth_);
        if (idx >= bins_.size() - 1)
            idx = bins_.size() - 1; // overflow bucket
        bins_[idx] += 1;
    }

    std::uint64_t count() const { return total_; }
    double mean() const { return acc_.mean(); }
    double max() const { return acc_.max(); }
    double binWidth() const { return binWidth_; }
    std::size_t numBins() const { return bins_.size() - 1; }
    std::uint64_t bin(std::size_t i) const { return bins_.at(i); }
    std::uint64_t overflow() const { return bins_.back(); }
    std::uint64_t underflow() const { return underflow_; }

    /** Fraction of samples in bin i. */
    double
    fraction(std::size_t i) const
    {
        return total_ ? static_cast<double>(bins_.at(i)) / total_ : 0.0;
    }

    /** Smallest x such that at least quantile q of samples are <= x. */
    double quantile(double q) const;

    /**
     * Like quantile(), but interpolates linearly inside the bucket the
     * target sample falls in instead of reporting the bucket's upper
     * boundary, so consumers get sub-bin resolution (p in [0, 1]).
     * Mass in the overflow bucket interpolates toward the observed
     * maximum; underflow mass reports 0.
     */
    double percentile(double p) const;

    void
    reset()
    {
        total_ = 0;
        underflow_ = 0;
        acc_.reset();
        std::fill(bins_.begin(), bins_.end(), 0);
    }

    /** Checkpoint hook (snapshot/serialize.hh): the exact internal
     *  state. The bin layout (width, count) is construction-time
     *  configuration; a restore into a different one is fatal. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(total_, underflow_, acc_);
        ar.fixed(bins_, "histogram shape");
    }

  private:
    double binWidth_;
    std::uint64_t total_ = 0;
    std::uint64_t underflow_ = 0;
    Accumulator acc_;
    std::vector<std::uint64_t> bins_;
};

/** Named scalar for stat dumps. */
struct StatValue
{
    std::string name;
    double value;
};

/** Ordered list of named stats a component reports. */
using StatDump = std::vector<StatValue>;

/** Geometric mean of a list of ratios (ignores non-positive entries). */
double geometricMean(const std::vector<double> &xs);

} // namespace fsoi

#endif // FSOI_COMMON_STATS_HH
