/**
 * @file
 * Interval time-series sampling: snapshot every registered stat's
 * flattened scalar view every N cycles and append one record per epoch
 * to a stream, as JSON-lines (one self-contained JSON object per line)
 * or CSV (header row + one row per epoch).
 *
 * Values are cumulative since the start of the run, not per-epoch
 * deltas; downstream tooling differentiates when it wants rates. The
 * owning System checks nextDue() once per cycle, so a disabled sampler
 * costs a null-pointer test.
 */

#ifndef FSOI_OBS_SAMPLER_HH
#define FSOI_OBS_SAMPLER_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/stat_registry.hh"

namespace fsoi::obs {

class IntervalSampler
{
  public:
    enum class Format : std::uint8_t { Jsonl, Csv };

    /**
     * @param interval cycles between samples (> 0)
     * @param os       sink; must outlive the sampler
     */
    IntervalSampler(const StatRegistry &registry, Cycle interval,
                    std::ostream &os, Format format = Format::Jsonl);

    Cycle interval() const { return interval_; }
    Cycle nextDue() const { return next_; }

    /** Emit one record stamped @p now and advance the deadline. */
    void sample(Cycle now);

    /**
     * Emit a final record at end of run unless one was just taken at
     * this cycle, so the series always covers the full run.
     */
    void finish(Cycle now);

  private:
    void writeRecord(Cycle now);

    const StatRegistry &registry_;
    Cycle interval_;
    Cycle next_;
    std::ostream &os_;
    Format format_;
    std::vector<std::string> names_; //!< cached scalar layout
    std::vector<double> values_;     //!< reused per sample
    Cycle lastSampled_ = kNoCycle;
};

} // namespace fsoi::obs

#endif // FSOI_OBS_SAMPLER_HH
