/**
 * @file
 * Parallel sweep execution: every figure in the paper's evaluation is
 * a set of independent (SystemConfig, application, scale) points, so
 * they fan out across a worker pool, one whole System per task. This
 * is the simulator's only parallelism: a System itself always runs on
 * one thread. CampaignRunner posts its points through the same pool.
 *
 * Determinism: a System is constructed, loaded and run entirely inside
 * one worker, shares nothing with other runs (stats registries, pools
 * and RNGs are all per-System), and the simulation itself is seeded
 * and single-threaded — so a point's RunResult is a pure function of
 * its job, independent of the worker count. Callers that collect
 * futures in submission order therefore produce byte-identical output
 * at any --jobs level, including the inline jobs=1 path.
 */

#ifndef FSOI_SIM_SWEEP_RUNNER_HH
#define FSOI_SIM_SWEEP_RUNNER_HH

#include <future>
#include <memory>
#include <type_traits>

#include "common/thread_pool.hh"
#include "sim/system.hh"
#include "workload/apps.hh"

namespace fsoi::sim {

/** One independent simulation point of a sweep. */
struct SweepJob
{
    SystemConfig config;
    workload::AppProfile app;
    double scale = 1.0;
};

/** A finished run, optionally with the System kept for inspection. */
struct SweepOutcome
{
    RunResult result;
    std::unique_ptr<System> system; //!< null unless submitKeep was used
};

class SweepRunner
{
  public:
    /** @p jobs worker threads; 0 = hardware concurrency, 1 = inline. */
    explicit SweepRunner(int jobs = 1);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    int jobs() const { return jobs_; }

    /**
     * Run task @p fn and return the future of its result: on the pool
     * when jobs > 1, else inline — now, on this thread, in submission
     * order (an exception then propagates from post() itself).
     */
    template <typename F>
    auto
    post(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        if (pool_)
            return pool_->submit(std::forward<F>(fn));
        std::promise<std::invoke_result_t<F>> done;
        done.set_value(fn());
        return done.get_future();
    }

    /** Enqueue a run; the future yields its RunResult. */
    std::future<RunResult> submit(SweepJob job);

    /**
     * Like submit(), but the finished System rides along for benches
     * that read component state (e.g. per-L1 latency histograms).
     * The System was built and run on a worker thread; hand it back to
     * exactly one thread for inspection.
     */
    std::future<SweepOutcome> submitKeep(SweepJob job);

    /** The execution path every submission funnels through. */
    static SweepOutcome runJob(SweepJob job, bool keep_system);

  private:
    int jobs_;
    std::unique_ptr<common::ThreadPool> pool_; //!< null when jobs_ <= 1
};

} // namespace fsoi::sim

#endif // FSOI_SIM_SWEEP_RUNNER_HH
