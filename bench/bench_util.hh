/**
 * @file
 * Shared helpers for the experiment benches. Every bench binary
 * regenerates one table or figure of the paper's evaluation section
 * and prints the same rows/series the paper reports.
 *
 * All benches accept an optional first argument scaling the workload
 * (default chosen so the whole bench suite finishes in minutes).
 */

#ifndef FSOI_BENCH_BENCH_UTIL_HH
#define FSOI_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "obs/cli.hh"
#include "obs/stat_registry.hh"
#include "sim/sweep_runner.hh"
#include "sim/system.hh"
#include "workload/apps.hh"

namespace fsoi::bench {

/** Workload scale from argv[1] (fraction of the full budget). */
inline double
scaleArg(int argc, char **argv, double dflt)
{
    if (argc > 1) {
        const double s = std::atof(argv[1]);
        if (s > 0.0)
            return s;
    }
    return dflt;
}

/**
 * Machine-readable figure output: when the bench is invoked with
 * `--json=FILE` (stripped from argv before the positional scale
 * argument is read), the tables and headline scalars the bench prints
 * are also written as one JSON document:
 *
 *   {"figure":"fig10","scalars":{...},
 *    "tables":[{"headers":[...],"rows":[[...],...]}]}
 *
 * so plotting scripts stop scraping stdout.
 */
class FigureJson
{
  public:
    FigureJson(int &argc, char **argv, std::string figure_id)
        : figure_(std::move(figure_id))
    {
        int keep = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (arg.rfind("--json=", 0) == 0)
                path_ = std::string(arg.substr(7));
            else
                argv[keep++] = argv[i];
        }
        argv[keep] = nullptr;
        argc = keep;
    }

    bool enabled() const { return !path_.empty(); }

    void
    scalar(const std::string &name, double value)
    {
        scalars_.emplace_back(name, value);
    }

    void
    table(const TextTable &t)
    {
        tables_.push_back(t);
    }

    ~FigureJson()
    {
        if (!enabled())
            return;
        std::ofstream os(path_);
        if (!os) {
            std::fprintf(stderr, "cannot open '%s' for figure JSON\n",
                         path_.c_str());
            return;
        }
        os << "{\"figure\":\"" << obs::jsonEscape(figure_) << "\"";
        os << ",\"scalars\":{";
        for (std::size_t i = 0; i < scalars_.size(); ++i) {
            os << (i ? "," : "") << "\""
               << obs::jsonEscape(scalars_[i].first) << "\":";
            jsonNumber(os, scalars_[i].second);
        }
        os << "},\"tables\":[";
        for (std::size_t t = 0; t < tables_.size(); ++t) {
            os << (t ? "," : "") << "{\"headers\":[";
            writeCells(os, tables_[t].headers());
            os << "],\"rows\":[";
            const auto &rows = tables_[t].rows();
            for (std::size_t r = 0; r < rows.size(); ++r) {
                os << (r ? "," : "") << "[";
                writeCells(os, rows[r]);
                os << "]";
            }
            os << "]}";
        }
        os << "]}\n";
    }

  private:
    static void
    jsonNumber(std::ostream &os, double v)
    {
        if (std::isnan(v) || std::isinf(v)) {
            os << "null";
            return;
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        os << buf;
    }

    static void
    writeCells(std::ostream &os, const std::vector<std::string> &cells)
    {
        for (std::size_t i = 0; i < cells.size(); ++i)
            os << (i ? "," : "") << "\"" << obs::jsonEscape(cells[i])
               << "\"";
    }

    std::string figure_;
    std::string path_;
    std::vector<std::pair<std::string, double>> scalars_;
    std::vector<TextTable> tables_;
};

/**
 * Shared sweep front-end for the figure drivers: parses (and strips)
 * `--jobs=N` from argv before the positional scale argument is read,
 * and fans submitted runs across a sim::SweepRunner. Jobs defaults to
 * the hardware concurrency; `--jobs=1` executes inline, serially.
 *
 * Drivers enqueue every run of a figure first and then collect the
 * futures in submission order, so stdout and `--json=FILE` output are
 * byte-identical at any jobs level (each run is an independent,
 * seeded System; see sim/sweep_runner.hh).
 */
class Sweep
{
  public:
    Sweep(int &argc, char **argv)
    {
        int jobs = 0; // 0 = hardware concurrency
        int keep = 1;
        for (int i = 1; i < argc; ++i) {
            if (const char *v = obs::flagValue(argv[i], "--jobs")) {
                jobs = static_cast<int>(obs::parseFlagInt(
                    "--jobs", v, 0, std::numeric_limits<int>::max()));
            } else {
                argv[keep++] = argv[i];
            }
        }
        argv[keep] = nullptr;
        argc = keep;
        runner_ = std::make_unique<sim::SweepRunner>(jobs);
    }

    int jobs() const { return runner_->jobs(); }
    sim::SweepRunner &runner() { return *runner_; }

    /** Enqueue one run; collect the future in submission order. */
    std::future<sim::RunResult>
    run(const sim::SystemConfig &cfg, const workload::AppProfile &app,
        double scale)
    {
        return runner_->submit(sim::SweepJob{cfg, app, scale});
    }

    /** Enqueue one run and keep its System for inspection. */
    std::future<sim::SweepOutcome>
    runKeep(const sim::SystemConfig &cfg, const workload::AppProfile &app,
            double scale)
    {
        return runner_->submitKeep(sim::SweepJob{cfg, app, scale});
    }

  private:
    std::unique_ptr<sim::SweepRunner> runner_;
};

/** Run one application on one system configuration, synchronously. */
inline sim::RunResult
runConfig(const sim::SystemConfig &cfg, const workload::AppProfile &app,
          double scale)
{
    return sim::SweepRunner::runJob(sim::SweepJob{cfg, app, scale},
                                    false).result;
}

/** Paper config for (cores, kind) with a chosen seed. */
inline sim::SystemConfig
paperConfig(int cores, sim::NetKind kind, std::uint64_t seed = 1)
{
    auto cfg = sim::SystemConfig::paperConfig(cores, kind);
    cfg.seed = seed;
    return cfg;
}

/** Short names of the applications, in the paper's figure order. */
inline std::vector<workload::AppProfile>
apps()
{
    return workload::paperApps();
}

inline void
banner(const char *id, const char *what)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", id, what);
    std::printf("==============================================================\n\n");
}

} // namespace fsoi::bench

#endif // FSOI_BENCH_BENCH_UTIL_HH
