/**
 * @file
 * Unit tests for the observability layer: stat registry naming and
 * writers, interval sampler record layout, the tracer ring buffer, and
 * the shared command-line flag parser.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/cli.hh"
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
        for (const char *bad : {"1e6", "10k", "-5", "", "0"}) {
            const std::string arg = std::string(flag) + "=" + bad;
            EXPECT_DEATH(parseArgs({arg}, nullptr), flag) << arg;
        }
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

} // namespace
} // namespace fsoi::obs
