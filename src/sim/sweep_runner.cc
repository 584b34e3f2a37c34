#include "sim/sweep_runner.hh"

#include <utility>

namespace fsoi::sim {

SweepRunner::SweepRunner(int jobs)
    : jobs_(jobs == 1 ? 1 : common::resolveJobs(jobs))
{
    if (jobs_ > 1)
        pool_ = std::make_unique<common::ThreadPool>(jobs_);
}

SweepRunner::~SweepRunner() = default;

SweepOutcome
SweepRunner::runJob(SweepJob job, bool keep_system)
{
    auto sys = std::make_unique<System>(job.config);
    sys->loadApp(job.app.scaled(job.scale));
    SweepOutcome out;
    out.result = sys->run();
    if (keep_system)
        out.system = std::move(sys);
    return out;
}

std::future<RunResult>
SweepRunner::submit(SweepJob job)
{
    return post([job = std::move(job)]() mutable {
        return runJob(std::move(job), false).result;
    });
}

std::future<SweepOutcome>
SweepRunner::submitKeep(SweepJob job)
{
    return post([job = std::move(job)]() mutable {
        return runJob(std::move(job), true);
    });
}

} // namespace fsoi::sim
