/**
 * @file
 * Unit tests for the observability layer: stat registry naming and
 * writers, interval sampler record layout, the tracer ring buffer, the
 * shared command-line flag parser, and the JSON reader.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/cli.hh"
#include "obs/json_reader.hh"
#include "obs/sampler.hh"
#include "obs/stat_registry.hh"
#include "obs/tracer.hh"

namespace fsoi::obs {
namespace {

TEST(StatRegistry, HierarchicalNamingThroughScopes)
{
    StatRegistry reg;
    Counter hits, misses;
    Scope root(reg);
    Scope sys = root.scope("system");
    Scope l1 = sys.scope("core3").scope("l1");
    l1.counter("hits", hits);
    l1.counter("misses", misses);

    ASSERT_EQ(reg.size(), 2u);
    EXPECT_NE(reg.find("system.core3.l1.hits"), nullptr);
    EXPECT_NE(reg.find("system.core3.l1.misses"), nullptr);
    EXPECT_EQ(reg.find("system.core3.l1.nope"), nullptr);
    EXPECT_EQ(reg.find("hits"), nullptr);
}

TEST(StatRegistry, DuplicateNameDies)
{
    StatRegistry reg;
    Counter a, b;
    Scope sys = Scope(reg).scope("system");
    sys.counter("hits", a);
    sys.counter("misses", b);
    EXPECT_DEATH(sys.counter("hits", b), "duplicate stat name");
}

TEST(StatRegistry, VisitSeesLiveValues)
{
    StatRegistry reg;
    Counter c;
    Accumulator a;
    Scope(reg).counter("c", c);
    Scope(reg).accumulator("a", a);
    reg.addDerived("twice", [&c] {
        return 2.0 * static_cast<double>(c.value());
    });

    c += 21;
    a.add(3.0);

    struct Collect : StatVisitor
    {
        std::uint64_t counter = 0;
        std::uint64_t acc_count = 0;
        double derived = 0.0;
        void onCounter(const std::string &, const Counter &v) override
        { counter = v.value(); }
        void onAccumulator(const std::string &,
                           const Accumulator &v) override
        { acc_count = v.count(); }
        void onHistogram(const std::string &, const Histogram &) override
        {}
        void onDerived(const std::string &, double v) override
        { derived = v; }
    } visitor;
    reg.visit(visitor);
    EXPECT_EQ(visitor.counter, 21u);
    EXPECT_EQ(visitor.acc_count, 1u);
    EXPECT_DOUBLE_EQ(visitor.derived, 42.0);
}

/** Minimal JSON structure check: balanced braces/brackets outside
 *  strings, non-empty, and the expected keys present. */
void
expectBalancedJson(const std::string &json)
{
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (in_string) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                in_string = false;
            continue;
        }
        if (ch == '"')
            in_string = true;
        else if (ch == '{' || ch == '[')
            ++depth;
        else if (ch == '}' || ch == ']') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(StatRegistry, JsonTreeRoundTrip)
{
    StatRegistry reg;
    Counter b, c, deep;
    Histogram h(2.0, 4);
    Scope root(reg);
    root.counter("b", b);
    root.counter("c", c);
    root.scope("x").scope("y").counter("z", deep);
    root.histogram("h", h);

    b += 1;
    c += 2;
    deep += 3;
    h.add(1.0);
    h.add(-1.0);
    h.add(100.0);

    std::ostringstream os;
    writeJson(reg, os);
    const std::string json = os.str();
    expectBalancedJson(json);
    // Names become nested object paths with live values.
    EXPECT_NE(json.find("\"b\":1"), std::string::npos);
    EXPECT_NE(json.find("\"c\":2"), std::string::npos);
    EXPECT_NE(json.find("\"x\":{\"y\":{\"z\":3}}"), std::string::npos);
    EXPECT_NE(json.find("\"underflow\":1"), std::string::npos);
    EXPECT_NE(json.find("\"overflow\":1"), std::string::npos);
}

TEST(StatRegistry, TopLevelSiblingsCommaSeparated)
{
    // Regression guard for the tree writer's comma placement between
    // consecutive single-segment keys.
    StatRegistry reg;
    Counter a, b, c;
    Scope root(reg);
    root.counter("a", a);
    root.counter("b", b);
    root.counter("c", c);
    std::ostringstream os;
    writeJson(reg, os);
    EXPECT_NE(os.str().find("\"a\":0,\"b\":0,\"c\":0"),
              std::string::npos);
}

TEST(StatRegistry, ScalarFlattening)
{
    StatRegistry reg;
    Counter c;
    Accumulator a;
    Histogram h(1.0, 4);
    Scope root(reg);
    root.counter("c", c);
    root.accumulator("a", a);
    root.histogram("h", h);

    const auto names = reg.scalarNames();
    const std::vector<std::string> expect = {
        "c", "a.count", "a.mean", "h.count", "h.mean", "h.p50", "h.p99",
    };
    EXPECT_EQ(names, expect);
    std::vector<double> values;
    reg.scalarValues(values);
    EXPECT_EQ(values.size(), names.size());
}

TEST(IntervalSampler, EmitsOneRecordPerEpoch)
{
    StatRegistry reg;
    Counter c;
    Scope(reg).counter("c", c);

    std::ostringstream os;
    IntervalSampler sampler(reg, 100, os,
                            IntervalSampler::Format::Jsonl);
    EXPECT_EQ(sampler.nextDue(), 100u);
    c += 1;
    sampler.sample(100);
    c += 1;
    sampler.sample(200);
    sampler.finish(250);

    std::istringstream in(os.str());
    std::string line;
    int records = 0;
    while (std::getline(in, line)) {
        expectBalancedJson(line);
        EXPECT_EQ(line.find("{\"cycle\":"), 0u);
        ++records;
    }
    EXPECT_EQ(records, 3); // two epochs + final record
    EXPECT_NE(os.str().find("\"cycle\":250"), std::string::npos);
}

TEST(Tracer, RingBufferWraparoundKeepsMostRecent)
{
    Tracer &tr = Tracer::instance();
    tr.reset();
    tr.configure("sim:3");
    tr.setCapacity(8);

    for (std::uint64_t i = 0; i < 20; ++i)
        tr.instant(TraceCat::Sim, "tick", i, 0, {{"i", i}});

    EXPECT_EQ(tr.recorded(), 20u);
    EXPECT_EQ(tr.dropped(), 12u);
    const auto events = tr.snapshot();
    ASSERT_EQ(events.size(), 8u);
    // Oldest-first snapshot of the 8 most recent events: ts 12..19.
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].ts, 12 + i);
        ASSERT_EQ(events[i].num_args, 1);
        EXPECT_EQ(events[i].args[0].value, 12 + i);
    }
    tr.reset();
}

TEST(Tracer, LevelsGateRecording)
{
    Tracer &tr = Tracer::instance();
    tr.reset();
    EXPECT_FALSE(tr.enabled(TraceCat::Fsoi, 1));
    tr.configure("fsoi:2,coherence");
    EXPECT_TRUE(tr.enabled(TraceCat::Fsoi, 2));
    EXPECT_FALSE(tr.enabled(TraceCat::Fsoi, 3));
    EXPECT_TRUE(tr.enabled(TraceCat::Coherence, 1));
    EXPECT_FALSE(tr.enabled(TraceCat::Coherence, 2));
    EXPECT_FALSE(tr.enabled(TraceCat::Noc, 1));

    tr.instant(TraceCat::Noc, "ignored", 1, 0);
    EXPECT_EQ(tr.recorded(), 0u);
    tr.instant(TraceCat::Fsoi, "kept", 2, 0);
    EXPECT_EQ(tr.recorded(), 1u);
    tr.reset();
}

TEST(Tracer, LevelThatIsNotAWholeNumberWarnsAndSkips)
{
    Tracer &tr = Tracer::instance();
    tr.reset();
    for (const char *spec : {"fsoi:x", "fsoi:", "fsoi:-1", "fsoi:2x"}) {
        ::testing::internal::CaptureStderr();
        tr.configure(spec);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("warn: FSOI_TRACE: level"), std::string::npos)
            << spec << ": " << err;
        EXPECT_FALSE(tr.enabled(TraceCat::Fsoi, 1)) << spec;
    }
    // Whole numbers still parse, and levels above 3 clamp to 3.
    tr.configure("fsoi:12,noc:0");
    EXPECT_TRUE(tr.enabled(TraceCat::Fsoi, 3));
    EXPECT_FALSE(tr.enabled(TraceCat::Noc, 1));
    tr.reset();
}

TEST(TracerDeathTest, MalformedTraceBufIsFatal)
{
    // The tracer reads its environment once per process: a fresh
    // process (threadsafe style) constructs it with the bad value.
    const std::string style = ::testing::FLAGS_gtest_death_test_style;
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::setenv("FSOI_TRACE_BUF", "1e6", 1);
    EXPECT_EXIT(Tracer::instance(), ::testing::ExitedWithCode(1),
                "fatal: FSOI_TRACE_BUF wants an integer");
    ::unsetenv("FSOI_TRACE_BUF");
    ::testing::FLAGS_gtest_death_test_style = style;
}

TEST(Tracer, ChromeTraceDocumentIsWellFormed)
{
    Tracer &tr = Tracer::instance();
    tr.reset();
    tr.configure("mem:1");
    tr.instant(TraceCat::Mem, "read", 10, 3, {{"line", 0x40u}});
    tr.complete(TraceCat::Mem, "burst", 20, 5, 4);

    std::ostringstream os;
    tr.writeChromeTrace(os);
    const std::string doc = os.str();
    expectBalancedJson(doc);
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"read\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"dur\":5"), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"mem\""), std::string::npos);
    tr.reset();
}

/** parseCliOptions over @p args (argv[0] is supplied); @p rest gets
 *  the arguments the parser left in argv, in order. */
CliOptions
parseArgs(std::vector<std::string> args, std::vector<std::string> *rest)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    int argc = static_cast<int>(args.size());
    const CliOptions opts = parseCliOptions(argc, argv.data());
    if (rest)
        rest->assign(argv.begin() + 1, argv.begin() + argc);
    return opts;
}

TEST(CliOptions, NumericFlagsAcceptPlainIntegers)
{
    const CliOptions opts = parseArgs(
        {"--checkpoint-every=1000000", "--stats-interval=10000",
         "--seed=42"},
        nullptr);
    EXPECT_EQ(opts.checkpoint_every, 1000000u);
    EXPECT_EQ(opts.stats_interval, 10000u);
    EXPECT_EQ(opts.seed, 42u);
}

TEST(CliOptions, MalformedNumbersDieNamingTheFlag)
{
    for (const char *flag :
         {"--checkpoint-every", "--stats-interval", "--seed"}) {
        for (const char *bad :
             {"1e6", "10k", "-5", "", "0", "+5", " 5", "5 ", "0x10", "010",
              "18446744073709551616"}) {
            const std::string arg = std::string(flag) + "=" + bad;
            EXPECT_DEATH(parseArgs({arg}, nullptr), flag) << arg;
        }
    }
}

TEST(CliOptions, FlagIntHonoursItsRange)
{
    // --jobs=0 keeps its "host CPUs" meaning where the minimum is 0.
    EXPECT_EQ(parseFlagInt("--jobs", "0", 0), 0u);
    EXPECT_EQ(parseFlagInt("--jobs", "12", 0, 64), 12u);
    EXPECT_EQ(parseFlagInt("--seed", "18446744073709551615", 0),
              18446744073709551615u);
    EXPECT_DEATH(parseFlagInt("--jobs", "-3", 0), "--jobs");
    EXPECT_DEATH(parseFlagInt("--jobs", "abc", 0), "--jobs");
    EXPECT_DEATH(parseFlagInt("--max-attempts", "0", 1), "--max-attempts");
    EXPECT_DEATH(parseFlagInt("--cores", "2147483648", 1, 2147483647),
                 "--cores");
}

TEST(CliOptions, FlagRealWantsAPositiveDecimal)
{
    EXPECT_EQ(parseFlagReal("scale", "0.25"), 0.25);
    EXPECT_EQ(parseFlagReal("scale", "2"), 2.0);
    EXPECT_EQ(parseFlagReal("target_ber", "1e-10"), 1e-10);
    for (const char *bad : {"abc", "0", "-1", "1e", "nan", "inf", "", "+1",
                            " 1", "0x1p3", "1e999", "0.0", ".", "1.5x"}) {
        EXPECT_DEATH(parseFlagReal("scale", bad),
                     "fatal: scale wants a positive decimal number")
            << "'" << bad << "'";
    }
}

TEST(CliOptions, UnrecognisedArgumentsKeptInOrder)
{
    std::vector<std::string> rest;
    const CliOptions opts = parseArgs(
        {"fft", "--stats", "16", "--jobs=4", "--seed=7", "--other"},
        &rest);
    EXPECT_TRUE(opts.stats_text);
    EXPECT_EQ(opts.seed, 7u);
    EXPECT_EQ(rest,
              (std::vector<std::string>{"fft", "16", "--jobs=4",
                                        "--other"}));
}

/** Every leaf of one document as "path=raw" (strings: "path=\"str\""),
 *  or the failure as "error@offset: what". */
std::vector<std::string>
leavesOf(json::Reader &reader)
{
    std::vector<std::string> out;
    const bool ok = reader.document([&](const json::Leaf &leaf) {
        out.push_back(std::string(leaf.path) + "="
                      + (leaf.kind == json::Kind::String
                             ? "\"" + std::string(leaf.str) + "\""
                             : std::string(leaf.raw)));
    });
    if (!ok)
        out.push_back("error@" + std::to_string(reader.offset()) + ": "
                      + reader.error());
    return out;
}

TEST(JsonReader, FlattensNestedObjectsAndArrays)
{
    json::Reader reader(
        R"({"a":{"b":[5,{"c":6}],"d":"x"},"e":[],"f":{},"g":[[1],[2,3]]})");
    EXPECT_EQ(leavesOf(reader),
              (std::vector<std::string>{"a.b.0=5", "a.b.1.c=6", "a.d=\"x\"",
                                        "g.0.0=1", "g.1.0=2", "g.1.1=3"}));
    EXPECT_TRUE(reader.atEnd());
}

TEST(JsonReader, LeafKinds)
{
    std::vector<std::pair<json::Kind, std::string>> seen;
    json::Reader reader(
        R"({"n":-1.5e3,"i":0,"s":"t","t":true,"f":false,"z":null})");
    ASSERT_TRUE(reader.whole([&](const json::Leaf &leaf) {
        seen.emplace_back(leaf.kind, std::string(leaf.raw));
    }));
    using json::Kind;
    EXPECT_EQ(seen,
              (std::vector<std::pair<Kind, std::string>>{
                  {Kind::Number, "-1.5e3"}, {Kind::Number, "0"},
                  {Kind::String, "\"t\""}, {Kind::Bool, "true"},
                  {Kind::Bool, "false"}, {Kind::Null, "null"}}));
    // A scalar document is one leaf with an empty path.
    json::Reader scalar(" 42 ");
    EXPECT_EQ(leavesOf(scalar), std::vector<std::string>{"=42"});
}

TEST(JsonReader, ConcatenatedDocumentsReadInTurn)
{
    // Stats files append one document per run; the reader takes them
    // one after the other from where the last one ended.
    json::Reader reader("{\"a\":1} {\"a\":2}\n{\"b\":[3]}{\"c\":4}\n");
    EXPECT_EQ(leavesOf(reader), std::vector<std::string>{"a=1"});
    EXPECT_EQ(leavesOf(reader), std::vector<std::string>{"a=2"});
    EXPECT_EQ(leavesOf(reader), std::vector<std::string>{"b.0=3"});
    EXPECT_FALSE(reader.atEnd());
    EXPECT_EQ(leavesOf(reader), std::vector<std::string>{"c=4"});
    EXPECT_TRUE(reader.atEnd());
}

TEST(JsonReader, LargeIntegerKeptExactly)
{
    // 2^64 - 1 is no double: the raw token carries every digit.
    json::Reader reader(R"({"u":18446744073709551615})");
    EXPECT_EQ(leavesOf(reader),
              std::vector<std::string>{"u=18446744073709551615"});
}

TEST(JsonReader, EscapesDecoded)
{
    std::string key, value;
    ASSERT_TRUE(json::Reader(R"({"k\u0041":"q\"b\\s\/n\nt\tr\r\b\f)"
                             R"(\u00e9\u20ac\ud83d\ude00"})")
                    .whole([&](const json::Leaf &leaf) {
                        key = leaf.path;
                        value = leaf.str;
                    }));
    EXPECT_EQ(key, "kA");
    EXPECT_EQ(value, "q\"b\\s/n\nt\tr\r\b\f"
                     "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
    EXPECT_TRUE(json::valid(R"(["\u0000"])"));
}

TEST(JsonReader, MalformedInputNamesTheByte)
{
    const struct
    {
        const char *text;
        std::size_t offset;
        const char *error;
    } cases[] = {
        {R"({"a":"xyz)", 9, "unterminated string"},
        {R"(["\u12g4"])", 6, "bad \\u escape"},
        {R"(["\x"])", 3, "bad escape"},
        {R"({"a" 1})", 5, "expected ':'"},
        {R"({"a":1} x)", 8, "trailing content"},
        {"", 0, "unexpected end of input"},
        {" \n ", 3, "unexpected end of input"},
        {R"({"a":1,})", 7, "expected object key"},
        {R"({"a":1 "b":2})", 7, "expected ',' or '}'"},
        {"[1,]", 3, "expected a value"},
        {"[1 2]", 3, "expected ',' or ']'"},
        {"[01]", 2, "expected ',' or ']'"},
        {"[1.]", 3, "expected a digit"},
        {"[nul]", 1, "expected a value"},
        {"[NaN]", 1, "expected a value"},
        {"[\"a\tb\"]", 3, "control character in string"},
    };
    for (const auto &c : cases) {
        json::Reader reader(c.text);
        EXPECT_FALSE(reader.whole([](const json::Leaf &) {})) << c.text;
        EXPECT_EQ(reader.offset(), c.offset) << c.text;
        EXPECT_STREQ(reader.error(), c.error) << c.text;
        EXPECT_FALSE(json::valid(c.text)) << c.text;
    }
    // Nesting past the reader's depth limit fails instead of
    // exhausting the stack.
    EXPECT_FALSE(json::valid(std::string(100000, '[')));
}

} // namespace
} // namespace fsoi::obs
