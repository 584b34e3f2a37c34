/**
 * @file
 * Abnormal-exit diagnostics: one call installs (idempotently) the
 * hooks that keep observability data from dying with the process —
 *
 *  - a common::logging fatal hook, so panic()/fatal()/FSOI_ASSERT
 *    flush the trace ring and dump every live flight recorder before
 *    aborting;
 *  - signal handlers (SIGSEGV, SIGBUS, SIGFPE, SIGABRT, SIGINT,
 *    SIGTERM) that do the same and then re-raise with the default
 *    disposition, preserving the process's exit status / core dump.
 *
 * The dump is appended to $FSOI_FLIGHT_FILE (default
 * "fsoi_flight.json"), one JSON document per live System, at most
 * once per process. A System whose watchdog tripped has already
 * appended its own document and is not written again. Everything here
 * is best-effort: it runs when the process is already dying, takes
 * locks that are normally uncontended, and guards against re-entry so
 * a crash inside the dump path cannot loop.
 */

#ifndef FSOI_OBS_CRASH_HH
#define FSOI_OBS_CRASH_HH

namespace fsoi::obs {

/** Install the fatal hook + signal handlers. Idempotent. */
void installCrashHooks();

} // namespace fsoi::obs

#endif // FSOI_OBS_CRASH_HH
