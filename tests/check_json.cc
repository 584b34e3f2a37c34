/**
 * @file
 * JSON validator CLI used by the observability smoke test and the
 * crash-resume CI gate: parses each input file as either one JSON
 * document or, with --lines, as JSON-lines (one document per non-empty
 * line). Exits non-zero with a message on the first malformed
 * document, so ctest can assert that the files the simulator emits
 * actually parse.
 *
 *   check_json [--lines] FILE...
 *
 * The parser is the project's one JSON reader (obs/json_reader.hh,
 * header-only), so this links nothing.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json_reader.hh"

namespace {

bool
checkDocument(const std::string &text, const char *what)
{
    fsoi::obs::json::Reader reader(text);
    if (!reader.whole([](const fsoi::obs::json::Leaf &) {})) {
        std::fprintf(stderr, "JSON error at offset %zu: %s\n",
                     reader.offset(), reader.error());
        std::fprintf(stderr, "  while parsing %s\n", what);
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool lines = false;
    int first = 1;
    if (argc > 1 && std::strcmp(argv[1], "--lines") == 0) {
        lines = true;
        first = 2;
    }
    if (first >= argc) {
        std::fprintf(stderr, "usage: check_json [--lines] FILE...\n");
        return 2;
    }
    for (int i = first; i < argc; ++i) {
        std::ifstream in(argv[i]);
        if (!in) {
            std::fprintf(stderr, "cannot open '%s'\n", argv[i]);
            return 1;
        }
        if (lines) {
            std::string line;
            int lineno = 0;
            int documents = 0;
            while (std::getline(in, line)) {
                ++lineno;
                if (line.empty())
                    continue;
                char what[256];
                std::snprintf(what, sizeof(what), "%s line %d", argv[i],
                              lineno);
                if (!checkDocument(line, what))
                    return 1;
                ++documents;
            }
            if (documents == 0) {
                std::fprintf(stderr, "'%s' contains no documents\n",
                             argv[i]);
                return 1;
            }
            std::printf("%s: %d JSON documents OK\n", argv[i], documents);
        } else {
            std::ostringstream buf;
            buf << in.rdbuf();
            if (!checkDocument(buf.str(), argv[i]))
                return 1;
            std::printf("%s: JSON OK\n", argv[i]);
        }
    }
    return 0;
}
