/**
 * @file
 * Shared command-line knobs for the observability layer. Every example
 * and bench main strips these before its own positional arguments:
 *
 *   --stats-json=FILE     end-of-run registry dump as JSON, or, when
 *                         --stats-interval is given, a JSON-lines time
 *                         series with one record per epoch ("-" = stdout)
 *   --stats-csv=FILE      same in CSV form
 *   --stats-interval=N    sample every N cycles
 *   --stats               print the text stat tree to stdout at exit
 *   --seed=N              top-level SystemConfig seed; every derived
 *                         RNG stream (cores, FSOI backoff, fault
 *                         schedules) follows from it, so runs are
 *                         reproducible from the command line
 *   --checkpoint=FILE     periodic hash-verified checkpoint file
 *                         (System::setCheckpoint); pair with
 *                         --checkpoint-every=N (cycles, default
 *                         1000000 when only --checkpoint is given)
 *   --restore=FILE        restore a checkpoint before running; the
 *                         resumed run is bit-identical to the
 *                         uninterrupted one
 *
 * The numeric flags (--seed, --stats-interval, --checkpoint-every)
 * take a positive integer written out in full: decimal, or 0x hex /
 * leading-0 octal as strtoull reads them. Anything else — "1e6",
 * "10k", "-5", an empty value, zero — is a fatal error naming the flag.
 *
 * Tracing is configured through the environment (FSOI_TRACE /
 * FSOI_TRACE_FILE), not argv, so it works identically under ctest,
 * benches, and user programs; see obs/tracer.hh.
 */

#ifndef FSOI_OBS_CLI_HH
#define FSOI_OBS_CLI_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace fsoi::obs {

struct CliOptions
{
    std::string stats_json; //!< empty = off, "-" = stdout
    std::string stats_csv;  //!< empty = off, "-" = stdout
    Cycle stats_interval = 0; //!< 0 = end-of-run dump only
    bool stats_text = false;
    std::uint64_t seed = 0;   //!< 0 = keep the config's default seed

    std::string checkpoint;   //!< empty = no periodic checkpoints
    std::string restore;      //!< empty = fresh run
    Cycle checkpoint_every = 1'000'000; //!< checkpoint period (cycles)

    bool any() const
    { return stats_text || !stats_json.empty() || !stats_csv.empty(); }
};

/**
 * Strip the recognized flags above out of argv (compacting it in
 * place, keeping the rest in order, and updating argc) and return the
 * parsed options, so the caller's positional-argument handling is
 * unaffected.
 */
CliOptions parseCliOptions(int &argc, char **argv);

} // namespace fsoi::obs

#endif // FSOI_OBS_CLI_HH
