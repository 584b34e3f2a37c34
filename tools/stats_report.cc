/**
 * @file
 * Offline viewer for --stats-json output: renders a human-readable
 * summary (headline scalars, latency percentiles, a mesh link-traffic
 * heatmap, FSOI channel utilization) and diffs two stats files for the
 * golden-stats CI gate.
 *
 * Usage:
 *   stats_report FILE                      summary + heatmaps
 *   stats_report --diff A B [options]      compare two stats files
 *   stats_report --snapshot FILE           inspect a checkpoint file
 *
 * Options (diff mode):
 *   --tolerance=F    relative tolerance per value (default 0 = exact):
 *                    a finite decimal >= 0 ("0.05", "1e-9"); anything
 *                    else ("5%", "inf", "-1") exits 2 naming the flag
 *   --ignore=PREFIX  skip keys with this prefix (repeatable)
 *   --include-host   do not auto-ignore the "host." wall-clock stats
 *
 * Options (snapshot mode):
 *   --manifest       machine-readable "name size hash" lines (plus a
 *                    version header) for the golden-manifest CI gate
 *
 * Stats files are read through obs/json_reader.hh, which flattens the
 * JSON tree into dotted scalar names (arrays become name.0, name.1,
 * ...), so the report is robust to the exact nesting the registry
 * writer produces.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_reader.hh"
#include "snapshot/archive.hh"

namespace {

/** One stats document flattened to its numeric leaves by dotted path
 *  (booleans as 1/0; strings and nulls dropped). */
struct FlatStats
{
    std::map<std::string, double> values;
};

bool
loadStats(const std::string &path, FlatStats &out)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "stats_report: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    // Stats files can hold several concatenated documents (the writers
    // append: one doc per instrumented run). Report the last one --
    // the most recent run's final state.
    namespace json = fsoi::obs::json;
    json::Reader reader(text);
    int docs = 0;
    while (!reader.atEnd()) {
        out.values.clear();
        const bool ok = reader.document([&](const json::Leaf &leaf) {
            if (leaf.kind == json::Kind::Number)
                out.values[std::string(leaf.path)] =
                    std::strtod(std::string(leaf.raw).c_str(), nullptr);
            else if (leaf.kind == json::Kind::Bool)
                out.values[std::string(leaf.path)] =
                    leaf.raw == "true" ? 1.0 : 0.0;
        });
        if (!ok) {
            std::fprintf(stderr, "parse error at byte %zu: %s\n",
                         reader.offset(), reader.error());
            return false;
        }
        ++docs;
    }
    if (docs == 0) {
        std::fprintf(stderr, "stats_report: %s holds no JSON document\n",
                     path.c_str());
        return false;
    }
    return true;
}

double
lookup(const FlatStats &s, const std::string &key, double fallback)
{
    const auto it = s.values.find(key);
    return it == s.values.end() ? fallback : it->second;
}

// --- summary rendering ----------------------------------------------

/** Shade ramp for the link heatmap, light to heavy. */
const char *const kShades[] = {" ", ".", ":", "-", "=", "+", "*",
                               "#", "%", "@"};

const char *
shade(double value, double max)
{
    if (max <= 0.0 || value <= 0.0)
        return kShades[0];
    const double frac = value / max;
    const int idx = std::min(9, 1 + static_cast<int>(frac * 8.999));
    return kShades[idx];
}

/** Collect mesh.links.rN.{east,...} into per-router totals. */
bool
meshLinkTotals(const FlatStats &s, std::vector<double> &totals)
{
    const std::string prefix = "mesh.links.r";
    bool any = false;
    for (const auto &[key, value] : s.values) {
        if (key.compare(0, prefix.size(), prefix) != 0)
            continue;
        char *end = nullptr;
        const long id = std::strtol(key.c_str() + prefix.size(), &end,
                                    10);
        if (end == key.c_str() + prefix.size() || *end != '.')
            continue;
        if (static_cast<std::size_t>(id) >= totals.size())
            totals.resize(static_cast<std::size_t>(id) + 1, 0.0);
        totals[static_cast<std::size_t>(id)] += value;
        any = true;
    }
    return any;
}

void
printMeshHeatmap(const FlatStats &s)
{
    std::vector<double> totals;
    if (!meshLinkTotals(s, totals))
        return;
    int side = 1;
    while (side * side < static_cast<int>(totals.size()))
        ++side;
    const double max = *std::max_element(totals.begin(), totals.end());
    std::printf("\nmesh link traffic (flits per router, max %.0f)\n",
                max);
    for (int y = 0; y < side; ++y) {
        std::printf("  ");
        for (int x = 0; x < side; ++x) {
            const std::size_t id =
                static_cast<std::size_t>(y * side + x);
            const double v = id < totals.size() ? totals[id] : 0.0;
            std::printf("%s%s", shade(v, max), shade(v, max));
        }
        std::printf("   ");
        for (int x = 0; x < side; ++x) {
            const std::size_t id =
                static_cast<std::size_t>(y * side + x);
            const double v = id < totals.size() ? totals[id] : 0.0;
            std::printf(" %7.0f", v);
        }
        std::printf("\n");
    }
}

void
printFsoiChannels(const FlatStats &s)
{
    const std::string prefix = "fsoi.channels.n";
    std::vector<double> util;
    for (const auto &[key, value] : s.values) {
        if (key.compare(0, prefix.size(), prefix) != 0)
            continue;
        char *end = nullptr;
        const long id = std::strtol(key.c_str() + prefix.size(), &end,
                                    10);
        if (end == key.c_str() + prefix.size()
            || std::strcmp(end, ".util") != 0)
            continue;
        if (static_cast<std::size_t>(id) >= util.size())
            util.resize(static_cast<std::size_t>(id) + 1, 0.0);
        util[static_cast<std::size_t>(id)] = value;
    }
    if (util.empty())
        return;
    std::printf("\nFSOI channel utilization\n");
    for (std::size_t n = 0; n < util.size(); ++n) {
        const int bars =
            static_cast<int>(std::min(1.0, util[n]) * 40.0 + 0.5);
        std::printf("  n%-3zu %6.2f%% |", n, util[n] * 100.0);
        for (int b = 0; b < 40; ++b)
            std::putchar(b < bars ? '#' : ' ');
        std::printf("|\n");
    }
}

/**
 * Fault-injection section: the scheduled fault plan (fault.schedule.*)
 * and the recovery counters (fault.*, <net>.retx.*). Printed only when
 * the run carried a FaultInjector; healthy runs have no fault.* keys.
 * The generic diff below covers these keys like any other, so the
 * golden-stats gate extends to fault counters for free.
 */
void
printFaultSummary(const FlatStats &s)
{
    bool any = false;
    for (const auto &[key, value] : s.values) {
        (void)value;
        if (key.compare(0, 6, "fault.") == 0) {
            any = true;
            break;
        }
    }
    if (!any)
        return;
    std::printf("\nfault injection\n");
    std::printf("  schedule: dead rx %.0f  dead tx %.0f  dead links "
                "%.0f  effective BER %.3g\n",
                lookup(s, "fault.schedule.dead_rx", 0.0),
                lookup(s, "fault.schedule.dead_tx", 0.0),
                lookup(s, "fault.schedule.dead_links", 0.0),
                lookup(s, "fault.schedule.effective_ber", 0.0));
    std::printf("  bit errors %.0f  dead-channel losses %.0f  "
                "blacklists %.0f  redirects %.0f\n",
                lookup(s, "fault.bit_errors", 0.0),
                lookup(s, "fault.dead_channel_losses", 0.0),
                lookup(s, "fault.blacklists", 0.0),
                lookup(s, "fault.redirects", 0.0));
    std::printf("  unroutable drops %.0f  retx budget exhausted %.0f\n",
                lookup(s, "fault.unroutable_drops", 0.0),
                lookup(s, "fault.retx_exhausted", 0.0));
    for (const char *net : {"mesh", "fsoi", "net"}) {
        const std::string base = std::string(net) + ".retx.";
        if (!s.values.count(base + "packets"))
            continue;
        std::printf("  %s retx: packets %.0f  crc drops %.0f  "
                    "dead losses %.0f\n",
                    net, lookup(s, base + "packets", 0.0),
                    lookup(s, base + "crc_drops", 0.0),
                    lookup(s, base + "dead_losses", 0.0));
    }
}

void
printLatency(const FlatStats &s, const char *net)
{
    const std::string base = std::string(net) + ".latency.";
    if (!s.values.count(base + "p50"))
        return;
    std::printf("  %s latency: p50 %.1f  p99 %.1f  p999 %.1f cycles\n",
                net, lookup(s, base + "p50", 0.0),
                lookup(s, base + "p99", 0.0),
                lookup(s, base + "p999", 0.0));
}

int
summarize(const std::string &path)
{
    FlatStats s;
    if (!loadStats(path, s))
        return 1;
    std::printf("%s: %zu scalar values\n", path.c_str(),
                s.values.size());
    const double cycles = lookup(s, "system.cycles", 0.0);
    const double instr = lookup(s, "system.instructions", 0.0);
    if (cycles > 0.0)
        std::printf("  cycles %.0f  instructions %.0f  ipc %.3f"
                    "  l1 miss rate %.4f\n",
                    cycles, instr, instr / cycles,
                    lookup(s, "system.l1.miss_rate", 0.0));
    for (const char *net : {"mesh", "fsoi", "net"})
        printLatency(s, net);
    printFaultSummary(s);
    printMeshHeatmap(s);
    printFsoiChannels(s);
    return 0;
}

// --- diff -----------------------------------------------------------

bool
ignored(const std::string &key,
        const std::vector<std::string> &prefixes)
{
    for (const auto &p : prefixes) {
        if (key.compare(0, p.size(), p) == 0)
            return true;
    }
    return false;
}

bool
numbersMatch(double a, double b, double tolerance)
{
    if (a == b)
        return true;
    if (std::isnan(a) && std::isnan(b))
        return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= tolerance * scale;
}

int
diff(const std::string &pathA, const std::string &pathB,
     double tolerance, const std::vector<std::string> &ignore)
{
    FlatStats a, b;
    if (!loadStats(pathA, a) || !loadStats(pathB, b))
        return 1;

    int mismatches = 0;
    const int kMaxPrinted = 40;
    auto report = [&](const std::string &line) {
        if (mismatches < kMaxPrinted)
            std::printf("  %s\n", line.c_str());
        else if (mismatches == kMaxPrinted)
            std::printf("  ... further mismatches suppressed\n");
        ++mismatches;
    };

    char buf[256];
    for (const auto &[key, va] : a.values) {
        if (ignored(key, ignore))
            continue;
        const auto it = b.values.find(key);
        if (it == b.values.end()) {
            std::snprintf(buf, sizeof(buf), "only in A: %s = %g",
                          key.c_str(), va);
            report(buf);
        } else if (!numbersMatch(va, it->second, tolerance)) {
            std::snprintf(buf, sizeof(buf),
                          "differs: %s  A=%.12g  B=%.12g", key.c_str(),
                          va, it->second);
            report(buf);
        }
    }
    for (const auto &[key, vb] : b.values) {
        if (ignored(key, ignore))
            continue;
        if (!a.values.count(key)) {
            std::snprintf(buf, sizeof(buf), "only in B: %s = %g",
                          key.c_str(), vb);
            report(buf);
        }
    }

    if (mismatches == 0) {
        std::printf("stats match: %s vs %s (%zu keys, tolerance %g)\n",
                    pathA.c_str(), pathB.c_str(), a.values.size(),
                    tolerance);
        return 0;
    }
    std::printf("stats differ: %d mismatching keys (tolerance %g)\n",
                mismatches, tolerance);
    return 1;
}

// --- snapshot inspection --------------------------------------------

/**
 * Print a checkpoint file's section table. Opening the reader verifies
 * the magic, version, section table and every per-section hash, so a
 * zero exit already certifies the file's integrity; a corrupt file
 * exits nonzero with the named-section diagnosis from the loader.
 */
int
inspectSnapshot(const std::string &path, bool manifest)
{
    using fsoi::snapshot::SnapshotReader;
    try {
        const SnapshotReader snap = SnapshotReader::fromFile(path);
        if (manifest) {
            // Stable machine format for the golden-manifest gate:
            // header line, then one "name size hash" line per section.
            std::printf("snapshot v%u root %016llx\n", snap.version(),
                        static_cast<unsigned long long>(snap.rootHash()));
            for (const auto &s : snap.sections())
                std::printf("%s %llu %016llx\n", s.name.c_str(),
                            static_cast<unsigned long long>(s.size),
                            static_cast<unsigned long long>(s.hash));
            return 0;
        }
        std::uint64_t payload = 0;
        for (const auto &s : snap.sections())
            payload += s.size;
        std::printf("%s: snapshot format v%u, %zu sections, %llu "
                    "payload bytes\n", path.c_str(), snap.version(),
                    snap.sections().size(),
                    static_cast<unsigned long long>(payload));
        std::printf("  root hash %016llx (all sections verified)\n",
                    static_cast<unsigned long long>(snap.rootHash()));
        std::printf("  %-16s %12s  %s\n", "section", "bytes", "hash");
        for (const auto &s : snap.sections())
            std::printf("  %-16s %12llu  %016llx\n", s.name.c_str(),
                        static_cast<unsigned long long>(s.size),
                        static_cast<unsigned long long>(s.hash));
        return 0;
    } catch (const fsoi::snapshot::SnapshotError &e) {
        std::fprintf(stderr, "stats_report: %s: %s\n", path.c_str(),
                     e.what());
        return 1;
    }
}

/**
 * A --tolerance value: a finite decimal number >= 0 read whole ("0",
 * "0.05", "1e-9"). No sign, space, suffix, "inf", "nan" or hex form,
 * so "5%" cannot quietly mean 500% and "abc" cannot mean exact.
 */
bool
parseTolerance(const char *v, double &out)
{
    bool ok = (v[0] >= '0' && v[0] <= '9') || v[0] == '.';
    for (const char *c = v; ok && *c != '\0'; ++c)
        ok = (*c >= '0' && *c <= '9') || std::strchr(".eE+-", *c);
    char *end = nullptr;
    out = ok ? std::strtod(v, &end) : 0.0;
    return ok && *end == '\0' && std::isfinite(out);
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: stats_report FILE\n"
        "       stats_report --diff A B [--tolerance=F]"
        " [--ignore=PREFIX] [--include-host]\n"
        "       stats_report --snapshot FILE [--manifest]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool diffMode = false;
    bool snapshotMode = false;
    bool manifest = false;
    bool includeHost = false;
    double tolerance = 0.0;
    std::vector<std::string> ignore;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--diff") {
            diffMode = true;
        } else if (arg == "--snapshot") {
            snapshotMode = true;
        } else if (arg == "--manifest") {
            manifest = true;
        } else if (arg.rfind("--tolerance=", 0) == 0) {
            if (!parseTolerance(arg.c_str() + 12, tolerance)) {
                std::fprintf(stderr,
                             "stats_report: --tolerance wants a finite "
                             "decimal number >= 0, got '%s'\n",
                             arg.c_str() + 12);
                return 2;
            }
        } else if (arg.rfind("--ignore=", 0) == 0) {
            ignore.push_back(arg.substr(9));
        } else if (arg == "--include-host") {
            includeHost = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            usage();
            return 2;
        } else {
            files.push_back(arg);
        }
    }

    // Wall-clock self-profile stats are nondeterministic by nature;
    // keep them out of golden comparisons unless explicitly asked.
    if (!includeHost)
        ignore.push_back("host.");

    if (snapshotMode) {
        if (files.size() != 1) {
            usage();
            return 2;
        }
        return inspectSnapshot(files[0], manifest);
    }
    if (diffMode) {
        if (files.size() != 2) {
            usage();
            return 2;
        }
        return diff(files[0], files[1], tolerance, ignore);
    }
    if (files.size() != 1) {
        usage();
        return 2;
    }
    return summarize(files[0]);
}
