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
 *   --cores=N             core count (default 16)
 *   --seed=N              base seed; point i runs seed+i (default 42)
 *   --scale=F             app scale factor (default 0.5)
 *   --jobs=N              concurrent points, 0 = host CPUs (default 1)
 *   --checkpoint-every=N  per-point checkpoint period (default 20000)
 *   --max-attempts=N      quarantine threshold (default 3)
 *   --json=FILE           consolidated report ("-" = stdout)
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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/campaign.hh"
#include "workload/apps.hh"

using namespace fsoi;

namespace {

const char *
matchValue(const char *arg, const char *name)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

std::uint64_t
parseU64(const char *flag, const char *v)
{
    char *end = nullptr;
    const std::uint64_t n = std::strtoull(v, &end, 0);
    if (end == v || *end != '\0')
        fatal("%s wants an integer, got '%s'", flag, v);
    return n;
}

sim::NetKind
parseNet(const std::string &name)
{
    if (name == "fsoi")
        return sim::NetKind::Fsoi;
    if (name == "mesh")
        return sim::NetKind::Mesh;
    if (name == "l0")
        return sim::NetKind::L0;
    if (name == "lr1")
        return sim::NetKind::Lr1;
    if (name == "lr2")
        return sim::NetKind::Lr2;
    fatal("unknown network '%s'", name.c_str());
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
        if (const char *v = matchValue(arg, "--dir"))
            cc.dir = v;
        else if (const char *v = matchValue(arg, "--points"))
            points = static_cast<int>(parseU64("--points", v));
        else if (const char *v = matchValue(arg, "--app"))
            app_name = v;
        else if (const char *v = matchValue(arg, "--net"))
            net_name = v;
        else if (const char *v = matchValue(arg, "--cores"))
            cores = static_cast<int>(parseU64("--cores", v));
        else if (const char *v = matchValue(arg, "--seed"))
            seed = parseU64("--seed", v);
        else if (const char *v = matchValue(arg, "--scale"))
            scale = std::atof(v);
        else if (const char *v = matchValue(arg, "--jobs"))
            cc.jobs = static_cast<int>(parseU64("--jobs", v));
        else if (const char *v = matchValue(arg, "--checkpoint-every"))
            cc.checkpoint_every = parseU64("--checkpoint-every", v);
        else if (const char *v = matchValue(arg, "--max-attempts"))
            cc.max_attempts =
                static_cast<int>(parseU64("--max-attempts", v));
        else if (const char *v = matchValue(arg, "--warmup"))
            cc.warmup_cycles = parseU64("--warmup", v);
        else if (const char *v = matchValue(arg, "--horizon"))
            horizon = parseU64("--horizon", v);
        else if (std::strcmp(arg, "--no-warm-reuse") == 0)
            warm_reuse = false;
        else if (const char *v = matchValue(arg, "--json"))
            json_path = v;
        else
            fatal("unknown argument '%s' (see the file header for "
                  "usage)", arg);
    }
    if (cc.dir.empty())
        fatal("sweep_campaign needs --dir=DIR for its journal and "
              "checkpoints");
    if (points < 1)
        fatal("--points wants at least 1");

    const workload::AppProfile app = workload::appByName(app_name);
    const sim::NetKind net = parseNet(net_name);

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
