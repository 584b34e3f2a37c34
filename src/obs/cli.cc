#include "obs/cli.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace fsoi::obs {

namespace {

/** Value of "--name=value" when @p arg matches, else nullptr. */
const char *
matchValue(const char *arg, const char *name)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

/**
 * Strict positive integer for flag @p name: strtoull over the whole
 * value, no sign, no suffix, no overflow, nonzero. Dies naming the
 * flag otherwise, so "--checkpoint-every=1e6" cannot mean 1.
 */
std::uint64_t
parsePositive(const char *name, const char *v)
{
    char *end = nullptr;
    errno = 0;
    const std::uint64_t n = std::strtoull(v, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0'
        || errno == ERANGE || n == 0)
        fatal("%s wants a positive integer, got '%s'", name, v);
    return n;
}

} // namespace

CliOptions
parseCliOptions(int &argc, char **argv)
{
    CliOptions opts;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        char *arg = argv[i];
        if (const char *v = matchValue(arg, "--stats-json")) {
            opts.stats_json = v;
        } else if (const char *v2 = matchValue(arg, "--stats-csv")) {
            opts.stats_csv = v2;
        } else if (const char *v3 = matchValue(arg, "--stats-interval")) {
            opts.stats_interval = parsePositive("--stats-interval", v3);
        } else if (const char *v4 = matchValue(arg, "--seed")) {
            opts.seed = parsePositive("--seed", v4);
        } else if (const char *v5 = matchValue(arg, "--checkpoint")) {
            opts.checkpoint = v5;
        } else if (const char *v6 = matchValue(arg, "--restore")) {
            opts.restore = v6;
        } else if (const char *v7 = matchValue(arg, "--checkpoint-every")) {
            opts.checkpoint_every = parsePositive("--checkpoint-every", v7);
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
