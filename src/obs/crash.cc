#include "obs/crash.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/tracer.hh"

namespace fsoi::obs {

namespace {

std::atomic<bool> hooksInstalled{false};
std::atomic<bool> dumped{false};

constexpr int kSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT, SIGINT,
                            SIGTERM};

/**
 * Flush the tracer and dump all live flight recorders, at most once
 * per process.
 */
void
crashDump(const char *reason)
{
    bool expected = false;
    if (!dumped.compare_exchange_strong(expected, true))
        return;
    Tracer::instance().crashFlush();
    FlightRecorder::dumpAllOnCrash(reason);
}

extern "C" void
crashSignalHandler(int sig)
{
    // Restore the default disposition first: if the dump itself
    // faults, the recursive signal terminates the process instead of
    // looping through this handler.
    std::signal(sig, SIG_DFL);
    const char *reason = "signal";
    switch (sig) {
      case SIGSEGV: reason = "signal:SIGSEGV"; break;
      case SIGBUS: reason = "signal:SIGBUS"; break;
      case SIGFPE: reason = "signal:SIGFPE"; break;
      case SIGABRT: reason = "signal:SIGABRT"; break;
      case SIGINT: reason = "signal:SIGINT"; break;
      case SIGTERM: reason = "signal:SIGTERM"; break;
    }
    crashDump(reason);
    std::raise(sig);
}

void
fatalDumpHook()
{
    crashDump("fatal");
}

} // namespace

void
installCrashHooks()
{
    bool expected = false;
    if (!hooksInstalled.compare_exchange_strong(expected, true))
        return;
    // The tracer reads its environment on first use; a malformed
    // FSOI_TRACE_BUF is fatal there, before this hook could re-enter it.
    Tracer::instance();
    setFatalHook(&fatalDumpHook);
    for (int sig : kSignals)
        std::signal(sig, &crashSignalHandler);
}

} // namespace fsoi::obs
