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
 * take a positive decimal integer written out in full (parseFlagInt).
 * Anything else — "1e6", "10k", "-5", "0x10", an empty value, zero —
 * is a fatal error naming the flag. Positional numbers (a core count,
 * a workload scale) parse as strictly: parseFlagInt, or parseFlagReal
 * for a real.
 *
 * Tracing is configured through the environment (FSOI_TRACE /
 * FSOI_TRACE_FILE), not argv, so it works identically under ctest,
 * benches, and user programs; see obs/tracer.hh.
 */

#ifndef FSOI_OBS_CLI_HH
#define FSOI_OBS_CLI_HH

#include <cstdint>
#include <limits>
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

/** Value of "--name=value" when @p arg is that flag, else nullptr. */
const char *flagValue(const char *arg, const char *name);

/**
 * Strict integer value @p v of flag @p name: the whole string is a
 * decimal integer in [@p min, @p max] — digits only (no sign, space,
 * suffix or radix prefix), no leading zero (strtoull reads one as
 * octal), no overflow. Anything else is a fatal error naming the flag,
 * so "--jobs=-3" or "--checkpoint-every=1e6" cannot mean something
 * else.
 */
std::uint64_t parseFlagInt(
    const char *name, const char *v, std::uint64_t min,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Strict real value @p v of flag or argument @p name: the whole
 * string is a positive finite decimal number as strtod reads it
 * ("0.25", "2", "1e-10"), with no sign, space, "inf", "nan" or hex
 * form. Anything else, zero included, is a fatal error naming it, so
 * a mistyped scale cannot quietly become 0 or the default.
 */
double parseFlagReal(const char *name, const char *v);

} // namespace fsoi::obs

#endif // FSOI_OBS_CLI_HH
