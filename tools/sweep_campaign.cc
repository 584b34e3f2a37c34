/**
 * @file
 * Crash-resumable sweep driver over sim::CampaignRunner. Runs a set of
 * named sweep points inside a campaign directory with periodic
 * checkpoints and a JSONL journal; re-running the same command line
 * after a crash (or kill -9) resumes: finished points are replayed
 * from the journal, the in-flight point restores its checkpoint, and
 * the consolidated --json report comes out byte-identical to an
 * uninterrupted run's.
 *
 * Usage:
 *   sweep_campaign --dir=DIR [options]
 *
 * Options:
 *   --points=N            number of sweep points (default 4)
 *   --app=NAME            application profile (default fft)
 *   --net=KIND            fsoi|mesh|l0|lr1|lr2 (default fsoi)
 *   --cores=N             core count (default 16): a perfect square
 *                         from 4 to 64 (SystemConfig::paperConfig)
 *   --seed=N              base seed; point i runs seed+i (default 42)
 *   --scale=F             app scale factor (default 0.5)
 *   --jobs=N              concurrent points, 0 = host CPUs (default 1)
 *   --checkpoint-every=N  per-point checkpoint period (default 20000)
 *   --max-attempts=N      quarantine threshold (default 3)
 *   --json=FILE           consolidated report ("-" = stdout)
 *
 * Integer values are plain decimal (obs::parseFlagInt); a sign, a
 * suffix or a value below the flag's minimum (1, or 0 for --jobs,
 * --seed and --warmup) is a fatal flag error. --scale is a positive
 * decimal number (obs::parseFlagReal).
 *
 * Warm-start mode (--warmup): a horizon sweep sharing one warmed-up
 * snapshot. All points then use the SAME seed (warmup prefixes must be
 * identical) and point i runs to warmup + (i+1) * horizon cycles:
 *   --warmup=N            shared warmup window in cycles
 *   --horizon=N           per-point horizon step (default 20000)
 *   --no-warm-reuse       same horizon points, but every point
 *                         re-simulates its own warmup (the cold
 *                         baseline for the warm-start speedup)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/cli.hh"
#include "sim/campaign.hh"
#include "workload/apps.hh"

using namespace fsoi;

namespace {

using obs::flagValue;
using obs::parseFlagInt;
using obs::parseFlagReal;

/** An int-valued flag: parseFlagInt capped at INT_MAX. */
int
intFlag(const char *name, const char *v, int min)
{
    return static_cast<int>(parseFlagInt(
        name, v, static_cast<std::uint64_t>(min),
        static_cast<std::uint64_t>(std::numeric_limits<int>::max())));
}

} // namespace

int
main(int argc, char **argv)
{
    sim::CampaignConfig cc;
    cc.checkpoint_every = 20'000;
    int points = 4;
    std::string app_name = "fft";
    std::string net_name = "fsoi";
    int cores = 16;
    std::uint64_t seed = 42;
    double scale = 0.5;
    Cycle horizon = 20'000;
    bool warm_reuse = true;
    std::string json_path;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *v = flagValue(arg, "--dir"))
            cc.dir = v;
        else if (const char *v = flagValue(arg, "--points"))
            points = intFlag("--points", v, 1);
        else if (const char *v = flagValue(arg, "--app"))
            app_name = v;
        else if (const char *v = flagValue(arg, "--net"))
            net_name = v;
        else if (const char *v = flagValue(arg, "--cores"))
            cores = intFlag("--cores", v, 1);
        else if (const char *v = flagValue(arg, "--seed"))
            seed = parseFlagInt("--seed", v, 0);
        else if (const char *v = flagValue(arg, "--scale"))
            scale = parseFlagReal("--scale", v);
        else if (const char *v = flagValue(arg, "--jobs"))
            cc.jobs = intFlag("--jobs", v, 0);
        else if (const char *v = flagValue(arg, "--checkpoint-every"))
            cc.checkpoint_every = parseFlagInt("--checkpoint-every", v, 1);
        else if (const char *v = flagValue(arg, "--max-attempts"))
            cc.max_attempts = intFlag("--max-attempts", v, 1);
        else if (const char *v = flagValue(arg, "--warmup"))
            cc.warmup_cycles = parseFlagInt("--warmup", v, 0);
        else if (const char *v = flagValue(arg, "--horizon"))
            horizon = parseFlagInt("--horizon", v, 1);
        else if (std::strcmp(arg, "--no-warm-reuse") == 0)
            warm_reuse = false;
        else if (const char *v = flagValue(arg, "--json"))
            json_path = v;
        else
            fatal("unknown argument '%s' (see the file header for "
                  "usage)", arg);
    }
    if (cc.dir.empty())
        fatal("sweep_campaign needs --dir=DIR for its journal and "
              "checkpoints");

    const workload::AppProfile app = workload::appByName(app_name);
    const sim::NetKind net = sim::netKindByName(net_name);

    std::vector<sim::CampaignPoint> plan;
    plan.reserve(points);
    for (int i = 0; i < points; ++i) {
        sim::CampaignPoint p;
        p.name = "p" + std::to_string(i);
        p.job.config = sim::SystemConfig::paperConfig(cores, net);
        p.job.app = app;
        p.job.scale = scale;
        if (cc.warmup_cycles > 0) {
            // Horizon sweep off one shared warm snapshot: identical
            // seed (the warmup prefixes must match), growing horizon.
            p.job.config.seed = seed;
            p.job.config.max_cycles =
                cc.warmup_cycles
                + static_cast<Cycle>(i + 1) * horizon;
            if (warm_reuse)
                p.warm_family = "f0";
        } else {
            p.job.config.seed = seed + static_cast<std::uint64_t>(i);
        }
        plan.push_back(std::move(p));
    }

    sim::CampaignRunner runner(cc);
    const auto outcomes = runner.run(std::move(plan));

    int quarantined = 0;
    for (const auto &o : outcomes)
        quarantined += o.quarantined ? 1 : 0;
    std::fprintf(stderr, "campaign: %zu points, %d quarantined\n",
                 outcomes.size(), quarantined);

    if (!json_path.empty()) {
        if (json_path == "-") {
            sim::CampaignRunner::writeJson(std::cout, outcomes);
        } else {
            std::ofstream os(json_path);
            if (!os)
                fatal("cannot write '%s'", json_path.c_str());
            sim::CampaignRunner::writeJson(os, outcomes);
        }
    }
    return quarantined == 0 ? 0 : 1;
}
