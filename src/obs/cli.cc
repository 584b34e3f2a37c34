#include "obs/cli.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace fsoi::obs {

const char *
flagValue(const char *arg, const char *name)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

std::uint64_t
parseFlagInt(const char *name, const char *v, std::uint64_t min,
             std::uint64_t max)
{
    bool ok = v[0] != '\0' && (v[0] != '0' || v[1] == '\0');
    std::uint64_t n = 0;
    for (const char *c = v; ok && *c != '\0'; ++c) {
        const unsigned digit = static_cast<unsigned char>(*c) - '0';
        ok = digit <= 9 && n <= (max - digit) / 10;
        n = n * 10 + digit;
    }
    if (!ok || n < min) {
        fatal("%s wants an integer in [%llu, %llu], got '%s'", name,
              static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(max), v);
    }
    return n;
}

double
parseFlagReal(const char *name, const char *v)
{
    // Decimal digits, a point and an exponent only: strtod alone would
    // also read a sign, leading space, "inf", "nan" and hex floats.
    bool ok = (v[0] >= '0' && v[0] <= '9') || v[0] == '.';
    for (const char *c = v; ok && *c != '\0'; ++c)
        ok = (*c >= '0' && *c <= '9') || std::strchr(".eE+-", *c);
    char *end = nullptr;
    const double x = ok ? std::strtod(v, &end) : 0.0;
    if (!ok || *end != '\0' || !std::isfinite(x) || x <= 0.0)
        fatal("%s wants a positive decimal number, got '%s'", name, v);
    return x;
}

CliOptions
parseCliOptions(int &argc, char **argv)
{
    CliOptions opts;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        char *arg = argv[i];
        if (const char *v = flagValue(arg, "--stats-json")) {
            opts.stats_json = v;
        } else if (const char *v2 = flagValue(arg, "--stats-csv")) {
            opts.stats_csv = v2;
        } else if (const char *v3 = flagValue(arg, "--stats-interval")) {
            opts.stats_interval = parseFlagInt("--stats-interval", v3, 1);
        } else if (const char *v4 = flagValue(arg, "--seed")) {
            opts.seed = parseFlagInt("--seed", v4, 1);
        } else if (const char *v5 = flagValue(arg, "--checkpoint")) {
            opts.checkpoint = v5;
        } else if (const char *v6 = flagValue(arg, "--restore")) {
            opts.restore = v6;
        } else if (const char *v7 = flagValue(arg, "--checkpoint-every")) {
            opts.checkpoint_every =
                parseFlagInt("--checkpoint-every", v7, 1);
        } else if (std::strcmp(arg, "--stats") == 0) {
            opts.stats_text = true;
        } else {
            argv[kept++] = arg;
        }
    }
    argc = kept;
    argv[argc] = nullptr;
    return opts;
}

} // namespace fsoi::obs
