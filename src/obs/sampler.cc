#include "obs/sampler.hh"

#include <cmath>
#include <iomanip>

#include "common/logging.hh"

namespace fsoi::obs {

IntervalSampler::IntervalSampler(const StatRegistry &registry,
                                 Cycle interval, std::ostream &os,
                                 Format format)
    : registry_(registry), interval_(interval), next_(interval),
      os_(os), format_(format), names_(registry.scalarNames())
{
    FSOI_ASSERT(interval > 0);
    if (format_ == Format::Csv) {
        os_ << "cycle";
        for (const auto &name : names_)
            os_ << "," << name;
        os_ << "\n";
    }
}

void
IntervalSampler::sample(Cycle now)
{
    writeRecord(now);
    // Keep the cadence anchored to multiples of the interval even when
    // the caller polls late.
    while (next_ <= now)
        next_ += interval_;
}

void
IntervalSampler::finish(Cycle now)
{
    if (lastSampled_ != now)
        writeRecord(now);
    os_.flush();
}

void
IntervalSampler::writeRecord(Cycle now)
{
    registry_.scalarValues(values_);
    FSOI_ASSERT(values_.size() == names_.size(),
                "stat registry changed size mid-run");
    if (format_ == Format::Csv) {
        os_ << now;
        for (const double v : values_) {
            os_ << ",";
            if (!std::isnan(v) && !std::isinf(v))
                os_ << std::setprecision(12) << v;
        }
        os_ << "\n";
    } else {
        os_ << "{\"cycle\":" << now << ",\"stats\":{";
        for (std::size_t i = 0; i < names_.size(); ++i) {
            os_ << (i ? "," : "") << "\"" << jsonEscape(names_[i])
                << "\":";
            const double v = values_[i];
            if (std::isnan(v) || std::isinf(v))
                os_ << "null";
            else if (v == static_cast<double>(static_cast<std::int64_t>(v))
                     && std::abs(v) < 1e15)
                os_ << static_cast<std::int64_t>(v);
            else
                os_ << std::setprecision(12) << v;
        }
        os_ << "}}\n";
    }
    lastSampled_ = now;
}

} // namespace fsoi::obs
