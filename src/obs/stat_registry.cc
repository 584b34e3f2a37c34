#include "obs/stat_registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>

#include "common/logging.hh"

namespace fsoi::obs {

void
StatRegistry::add(Entry entry)
{
    assertSingleThread();
    FSOI_ASSERT(!entry.name.empty(), "stat registered without a name");
    FSOI_ASSERT(names_.insert(entry.name).second,
                "duplicate stat name '%s'", entry.name.c_str());
    entries_.push_back(std::move(entry));
}

void
StatRegistry::addCounter(std::string name, const Counter &c)
{
    Entry e;
    e.name = std::move(name);
    e.kind = StatKind::Counter;
    e.counter = &c;
    add(std::move(e));
}

void
StatRegistry::addAccumulator(std::string name, const Accumulator &a)
{
    Entry e;
    e.name = std::move(name);
    e.kind = StatKind::Accumulator;
    e.accumulator = &a;
    add(std::move(e));
}

void
StatRegistry::addHistogram(std::string name, const Histogram &h)
{
    Entry e;
    e.name = std::move(name);
    e.kind = StatKind::Histogram;
    e.histogram = &h;
    add(std::move(e));
}

void
StatRegistry::addDerived(std::string name, std::function<double()> fn)
{
    FSOI_ASSERT(fn != nullptr);
    Entry e;
    e.name = std::move(name);
    e.kind = StatKind::Derived;
    e.derived = std::move(fn);
    add(std::move(e));
}

const StatRegistry::Entry *
StatRegistry::find(std::string_view name) const
{
    for (const auto &e : entries_)
        if (e.name == name)
            return &e;
    return nullptr;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(e.name);
    return out;
}

void
StatRegistry::visit(StatVisitor &v) const
{
    assertSingleThread();
    for (const auto &e : entries_) {
        switch (e.kind) {
          case StatKind::Counter:
            v.onCounter(e.name, *e.counter);
            break;
          case StatKind::Accumulator:
            v.onAccumulator(e.name, *e.accumulator);
            break;
          case StatKind::Histogram:
            v.onHistogram(e.name, *e.histogram);
            break;
          case StatKind::Derived:
            v.onDerived(e.name, e.derived());
            break;
        }
    }
}

std::vector<std::string>
StatRegistry::scalarNames() const
{
    std::vector<std::string> out;
    for (const auto &e : entries_) {
        switch (e.kind) {
          case StatKind::Counter:
          case StatKind::Derived:
            out.push_back(e.name);
            break;
          case StatKind::Accumulator:
            out.push_back(e.name + ".count");
            out.push_back(e.name + ".mean");
            break;
          case StatKind::Histogram:
            out.push_back(e.name + ".count");
            out.push_back(e.name + ".mean");
            out.push_back(e.name + ".p50");
            out.push_back(e.name + ".p99");
            break;
        }
    }
    return out;
}

void
StatRegistry::scalarValues(std::vector<double> &out) const
{
    assertSingleThread();
    out.clear();
    for (const auto &e : entries_) {
        switch (e.kind) {
          case StatKind::Counter:
            out.push_back(static_cast<double>(e.counter->value()));
            break;
          case StatKind::Derived:
            out.push_back(e.derived());
            break;
          case StatKind::Accumulator:
            out.push_back(static_cast<double>(e.accumulator->count()));
            out.push_back(e.accumulator->mean());
            break;
          case StatKind::Histogram:
            out.push_back(static_cast<double>(e.histogram->count()));
            out.push_back(e.histogram->mean());
            out.push_back(e.histogram->percentile(0.5));
            out.push_back(e.histogram->percentile(0.99));
            break;
        }
    }
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Print a double so the result is always valid JSON (no nan/inf). */
void
jsonNumber(std::ostream &os, double v)
{
    if (std::isnan(v) || std::isinf(v)) {
        os << "null";
        return;
    }
    if (v == static_cast<double>(static_cast<std::int64_t>(v))
        && std::abs(v) < 1e15) {
        os << static_cast<std::int64_t>(v);
        return;
    }
    os << std::setprecision(12) << v;
}

class TextVisitor : public StatVisitor
{
  public:
    explicit TextVisitor(std::ostream &os) : os_(os) {}

    void
    onCounter(const std::string &name, const Counter &c) override
    {
        line(name) << c.value() << "\n";
    }

    void
    onAccumulator(const std::string &name, const Accumulator &a) override
    {
        line(name) << a.mean() << "  (n=" << a.count()
                   << " min=" << a.min() << " max=" << a.max()
                   << " sd=" << a.stddev() << ")\n";
    }

    void
    onHistogram(const std::string &name, const Histogram &h) override
    {
        line(name) << "n=" << h.count() << " mean=" << h.mean()
                   << " p50=" << h.percentile(0.5)
                   << " p99=" << h.percentile(0.99)
                   << " underflow=" << h.underflow()
                   << " overflow=" << h.overflow() << "\n";
    }

    void
    onDerived(const std::string &name, double value) override
    {
        line(name) << value << "\n";
    }

  private:
    std::ostream &
    line(const std::string &name)
    {
        os_ << std::left << std::setw(44) << name << " ";
        return os_;
    }

    std::ostream &os_;
};

/**
 * Streams the sorted name list as a nested JSON object tree by
 * tracking how many dotted segments consecutive names share.
 */
class JsonTreeWriter
{
  public:
    explicit JsonTreeWriter(std::ostream &os) : os_(os) { os_ << "{"; }

    void
    close()
    {
        while (depth_-- > 0)
            os_ << "}";
        os_ << "}\n";
    }

    /** Open/close objects to move from the previous name to this one. */
    std::ostream &
    key(const std::string &name)
    {
        const auto segs = split(name);
        std::size_t common = 0;
        while (common < prev_.size() && common + 1 < segs.size()
               && prev_[common] == segs[common])
            ++common;
        for (std::size_t i = prev_.size(); i > common; --i)
            os_ << "}";
        if (!first_)
            os_ << ",";
        first_ = false;
        for (std::size_t i = common; i + 1 < segs.size(); ++i)
            os_ << "\"" << jsonEscape(segs[i]) << "\":{";
        os_ << "\"" << jsonEscape(segs.back()) << "\":";
        prev_.assign(segs.begin(), segs.end() - 1);
        depth_ = prev_.size();
        return os_;
    }

  private:
    static std::vector<std::string>
    split(const std::string &name)
    {
        std::vector<std::string> out;
        std::size_t start = 0;
        for (std::size_t i = 0; i <= name.size(); ++i) {
            if (i == name.size() || name[i] == '.') {
                out.push_back(name.substr(start, i - start));
                start = i + 1;
            }
        }
        return out;
    }

    std::ostream &os_;
    std::vector<std::string> prev_;
    std::size_t depth_ = 0;
    bool first_ = true;
};

class JsonVisitor : public StatVisitor
{
  public:
    explicit JsonVisitor(JsonTreeWriter &w) : w_(w) {}

    void
    onCounter(const std::string &name, const Counter &c) override
    {
        w_.key(name) << c.value();
    }

    void
    onAccumulator(const std::string &name, const Accumulator &a) override
    {
        auto &os = w_.key(name);
        os << "{\"count\":" << a.count() << ",\"mean\":";
        jsonNumber(os, a.mean());
        os << ",\"min\":";
        jsonNumber(os, a.min());
        os << ",\"max\":";
        jsonNumber(os, a.max());
        os << ",\"stddev\":";
        jsonNumber(os, a.stddev());
        os << "}";
    }

    void
    onHistogram(const std::string &name, const Histogram &h) override
    {
        auto &os = w_.key(name);
        os << "{\"count\":" << h.count() << ",\"mean\":";
        jsonNumber(os, h.mean());
        os << ",\"p50\":";
        jsonNumber(os, h.percentile(0.5));
        os << ",\"p99\":";
        jsonNumber(os, h.percentile(0.99));
        os << ",\"underflow\":" << h.underflow()
           << ",\"overflow\":" << h.overflow()
           << ",\"bin_width\":";
        jsonNumber(os, h.binWidth());
        os << ",\"bins\":[";
        for (std::size_t i = 0; i < h.numBins(); ++i)
            os << (i ? "," : "") << h.bin(i);
        os << "]}";
    }

    void
    onDerived(const std::string &name, double value) override
    {
        jsonNumber(w_.key(name), value);
    }

  private:
    JsonTreeWriter &w_;
};

} // namespace

void
writeText(const StatRegistry &registry, std::ostream &os)
{
    TextVisitor v(os);
    registry.visit(v);
}

void
writeJson(const StatRegistry &registry, std::ostream &os)
{
    // The tree writer requires sibling names to be adjacent, so visit
    // through a sorted index.
    std::vector<const StatRegistry::Entry *> sorted;
    sorted.reserve(registry.size());
    for (const auto &e : registry.entries())
        sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto *a, const auto *b) { return a->name < b->name; });

    JsonTreeWriter w(os);
    JsonVisitor v(w);
    for (const auto *e : sorted) {
        switch (e->kind) {
          case StatKind::Counter:
            v.onCounter(e->name, *e->counter);
            break;
          case StatKind::Accumulator:
            v.onAccumulator(e->name, *e->accumulator);
            break;
          case StatKind::Histogram:
            v.onHistogram(e->name, *e->histogram);
            break;
          case StatKind::Derived:
            v.onDerived(e->name, e->derived());
            break;
        }
    }
    w.close();
}

void
writeCsv(const StatRegistry &registry, std::ostream &os)
{
    const auto names = registry.scalarNames();
    std::vector<double> values;
    registry.scalarValues(values);
    FSOI_ASSERT(names.size() == values.size());
    os << "name,value\n";
    for (std::size_t i = 0; i < names.size(); ++i) {
        os << names[i] << ",";
        if (std::isnan(values[i]) || std::isinf(values[i]))
            os << "";
        else
            os << std::setprecision(12) << values[i];
        os << "\n";
    }
}

} // namespace fsoi::obs
