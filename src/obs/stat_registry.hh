/**
 * @file
 * Unified statistics registry: every simulated component registers its
 * Counter / Accumulator / Histogram members (and derived ratios) under
 * a hierarchical dotted name such as `system.core3.l1.miss_rate` or
 * `fsoi.collisions.data`. The registry only stores non-owning pointers;
 * the components keep owning their stats exactly as before, so the hot
 * paths (Counter::operator++ etc.) are untouched.
 *
 * Consumers walk the registry through a Visitor or one of the writers
 * (text / JSON / CSV); the interval sampler flattens every entry to
 * scalars and emits a time series (see obs/sampler.hh).
 *
 * Thread-safety: a registry is deliberately NOT synchronized. Each
 * System owns its own StatRegistry, and the sweep runner executes a
 * whole System -- construction, run, stat readout -- on one worker
 * thread, so a registry is thread-confined by design and the hot
 * counter increments stay free of atomics. Debug builds enforce the
 * confinement: the first thread to touch a registry becomes its owner
 * and any access from another thread asserts. Do not share one
 * registry (or one Scope) across concurrently running Systems.
 */

#ifndef FSOI_OBS_STAT_REGISTRY_HH
#define FSOI_OBS_STAT_REGISTRY_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#ifndef NDEBUG
#include <thread>
#endif

#include "common/stats.hh"

namespace fsoi::obs {

/** What an entry points at. */
enum class StatKind : std::uint8_t { Counter, Accumulator, Histogram, Derived };

/** Read-only walk over every registered stat, in registration order. */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;
    virtual void onCounter(const std::string &name, const Counter &c) = 0;
    virtual void onAccumulator(const std::string &name,
                               const Accumulator &a) = 0;
    virtual void onHistogram(const std::string &name,
                             const Histogram &h) = 0;
    /** Derived scalar (ratio / rate computed from other stats). */
    virtual void onDerived(const std::string &name, double value) = 0;
};

class StatRegistry
{
  public:
    struct Entry
    {
        std::string name;
        StatKind kind;
        const Counter *counter = nullptr;
        const Accumulator *accumulator = nullptr;
        const Histogram *histogram = nullptr;
        std::function<double()> derived;
    };

    void addCounter(std::string name, const Counter &c);
    void addAccumulator(std::string name, const Accumulator &a);
    void addHistogram(std::string name, const Histogram &h);
    void addDerived(std::string name, std::function<double()> fn);

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const std::vector<Entry> &entries() const { return entries_; }

    /** Entry lookup by full dotted name; nullptr when absent. */
    const Entry *find(std::string_view name) const;

    /** All registered names, in registration order. */
    std::vector<std::string> names() const;

    /** Visit every entry in registration order. */
    void visit(StatVisitor &v) const;

    /**
     * Flattened scalar view used by the sampler and the CSV writer:
     * counters contribute one scalar, accumulators `.count`/`.mean`,
     * histograms `.count`/`.mean`/`.p50`/`.p99`. The name layout is
     * stable across calls, so callers may cache scalarNames() and then
     * repeatedly refill values via scalarValues().
     */
    std::vector<std::string> scalarNames() const;
    void scalarValues(std::vector<double> &out) const;

  private:
    void add(Entry entry);

    /**
     * Debug-only confinement check (see the file comment): the first
     * accessing thread claims the registry; any later access from a
     * different thread is a bug in sweep/System ownership.
     */
    void
    assertSingleThread() const
    {
#ifndef NDEBUG
        const auto self = std::this_thread::get_id();
        if (owner_ == std::thread::id())
            owner_ = self;
        assert(owner_ == self &&
               "StatRegistry accessed from a second thread; registries "
               "are confined to the worker running their System");
#endif
    }

    std::vector<Entry> entries_;
    /**
     * Every registered name, for add()'s duplicate check. A 64-core
     * System registers thousands of stats; a find() scan per add()
     * would make its construction quadratic in the stat count.
     */
    std::unordered_set<std::string> names_;
#ifndef NDEBUG
    mutable std::thread::id owner_;
#endif
};

/**
 * Hierarchical naming helper: a Scope prepends its dotted prefix to
 * every registration, and child scopes extend it. Components take a
 * Scope in registerStats() and never see the full path they live at.
 */
class Scope
{
  public:
    explicit Scope(StatRegistry &registry, std::string prefix = "")
        : registry_(&registry), prefix_(std::move(prefix))
    {}

    Scope scope(const std::string &name) const
    {
        return Scope(*registry_, join(name));
    }

    void counter(const std::string &name, const Counter &c) const
    { registry_->addCounter(join(name), c); }
    void accumulator(const std::string &name, const Accumulator &a) const
    { registry_->addAccumulator(join(name), a); }
    void histogram(const std::string &name, const Histogram &h) const
    { registry_->addHistogram(join(name), h); }
    void derived(const std::string &name, std::function<double()> fn) const
    { registry_->addDerived(join(name), std::move(fn)); }

    const std::string &prefix() const { return prefix_; }
    StatRegistry &registry() const { return *registry_; }

  private:
    std::string join(const std::string &name) const
    { return prefix_.empty() ? name : prefix_ + "." + name; }

    StatRegistry *registry_;
    std::string prefix_;
};

/** Escape a string for embedding in a JSON document (no quotes added). */
std::string jsonEscape(std::string_view s);

/** Aligned `name value` dump of the whole tree. */
void writeText(const StatRegistry &registry, std::ostream &os);

/**
 * Nested-object JSON dump: dotted names become object paths, counters
 * become integers, accumulators/histograms become summary objects
 * (histograms include the raw bin array).
 */
void writeJson(const StatRegistry &registry, std::ostream &os);

/** Two-column `name,value` CSV over the flattened scalar view. */
void writeCsv(const StatRegistry &registry, std::ostream &os);

} // namespace fsoi::obs

#endif // FSOI_OBS_STAT_REGISTRY_HH
