#include "runtime/sweep.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>

#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/pool_metrics.hh"
#include "obs/span.hh"
#include "runtime/pool_map.hh"

namespace tpupoint {

namespace {

/** Checkpoint-restart path: the job's config schedules device
 * interruptions, so a ResilientRunner orchestrates the attempts and
 * a fresh attempt-stamped profiler covers each one, with
 * attempt-boundary records interleaved for the analyzer. */
SweepOutcome
runResilientJob(const SweepJob &job, std::size_t index,
                const SessionConfig &config)
{
    SweepOutcome outcome;
    outcome.job_index = index;

    Simulator sim;
    ResilientRunner runner(sim, config, job.workload,
                           job.resilience);
    std::unique_ptr<TpuPointProfiler> profiler;

    auto harvest = [&outcome, &profiler]() {
        if (!profiler)
            return;
        const auto &records = profiler->records();
        outcome.records.insert(outcome.records.end(),
                               records.begin(), records.end());
        outcome.profiler_bytes += profiler->bytesRecorded();
        outcome.profile_requests += profiler->requestsIssued();
        profiler.reset();
    };

    if (job.profile) {
        runner.setAttemptHook(
            [&sim, &job, &profiler](TrainingSession &session,
                                    std::uint32_t attempt) {
            ProfilerOptions popts = job.profiler;
            popts.attempt = attempt;
            popts.retain_records = true;
            profiler = std::make_unique<TpuPointProfiler>(
                sim, session, popts);
            profiler->start(/*analyzer=*/true);
        });
        runner.setBoundaryHook(
            [&outcome, &harvest](const AttemptOutcome &failed,
                                 StepId resume) {
            // The preempted attempt's records, then its boundary
            // marker, then (next iteration) the restarted
            // attempt's records.
            harvest();
            outcome.records.push_back(
                attemptBoundaryRecord(failed, resume));
        });
    }

    const ResilientResult res = runner.run();
    harvest();

    outcome.status = res.completed ? JobStatus::Ok
                                   : JobStatus::Preempted;
    outcome.attempts = res.attempts;
    outcome.replayed_steps = res.replayed_steps;
    outcome.result = res.final_result;
    // The per-attempt result only counts its own steps; callers of
    // a sweep want the run's total useful progress.
    outcome.result.steps_completed = res.useful_steps;
    outcome.checkpoints = res.checkpoints;
    return outcome;
}

/** One complete, self-contained session: build, run, harvest. */
SweepOutcome
runJob(const SweepJob &job, std::size_t index,
       std::uint64_t seed_override, bool use_override)
{
    SessionConfig config = job.config;
    if (use_override)
        config.seed = seed_override;

    if (config.preemption.enabled())
        return runResilientJob(job, index, config);

    Simulator sim;
    TrainingSession session(sim, config, job.workload);
    std::unique_ptr<TpuPointProfiler> profiler;
    if (job.profile) {
        profiler = std::make_unique<TpuPointProfiler>(
            sim, session, job.profiler);
        profiler->start(/*analyzer=*/true);
    }
    session.start(nullptr);
    sim.run();
    if (profiler)
        profiler->stop();

    SweepOutcome outcome;
    outcome.job_index = index;
    outcome.result = session.result();
    outcome.checkpoints = session.checkpoints().checkpoints();
    if (profiler) {
        outcome.records = profiler->records();
        outcome.profiler_bytes = profiler->bytesRecorded();
        outcome.profile_requests = profiler->requestsIssued();
    }
    return outcome;
}

/**
 * Owns the sweep's running totals and serializes ProgressSink
 * invocations, so worker threads emit progress without coordinating
 * and sinks never observe torn counts.
 */
class ProgressBroker
{
  public:
    ProgressBroker(const obs::ProgressSink &sink_fn,
                   std::size_t total_jobs)
        : sink(sink_fn), total(total_jobs)
    {
    }

    void
    jobStarted(std::size_t index)
    {
        if (!sink)
            return;
        std::lock_guard<std::mutex> lock(guard);
        ++started;
        emit(obs::ProgressEvent::Kind::Start, index, 1, "", 0);
    }

    void
    jobRetried(std::size_t index, unsigned attempt)
    {
        if (!sink)
            return;
        std::lock_guard<std::mutex> lock(guard);
        ++retried;
        emit(obs::ProgressEvent::Kind::Retry, index, attempt, "",
             0);
    }

    void
    jobFinished(std::size_t index, unsigned attempt,
                JobStatus status, double wall_seconds)
    {
        if (!sink)
            return;
        std::lock_guard<std::mutex> lock(guard);
        switch (status) {
          case JobStatus::Ok: ++succeeded; break;
          case JobStatus::Preempted: ++preempted; break;
          case JobStatus::Failed: ++failed; break;
        }
        emit(obs::ProgressEvent::Kind::Finish, index, attempt,
             jobStatusName(status), wall_seconds);
    }

  private:
    void
    emit(obs::ProgressEvent::Kind kind, std::size_t index,
         unsigned attempt, const char *status, double wall_seconds)
    {
        obs::ProgressEvent event;
        event.kind = kind;
        event.item = index;
        event.total = total;
        event.attempt = attempt;
        event.status = status;
        event.wall_seconds = wall_seconds;
        event.started = started;
        event.succeeded = succeeded;
        event.preempted = preempted;
        event.failed = failed;
        event.retried = retried;
        sink(event);
    }

    const obs::ProgressSink &sink;
    std::mutex guard;
    std::size_t total;
    std::size_t started = 0;
    std::size_t succeeded = 0;
    std::size_t preempted = 0;
    std::size_t failed = 0;
    std::size_t retried = 0;
};

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok: return "ok";
      case JobStatus::Preempted: return "preempted";
      case JobStatus::Failed: return "failed";
    }
    panic("jobStatusName: unknown status");
}

SweepRunner::SweepRunner(const SweepOptions &options)
    : opts(options),
      thread_count(resolveThreadCount(options.threads))
{
}

std::uint64_t
SweepRunner::jobSeed(std::uint64_t base, std::uint64_t salt,
                     std::size_t index)
{
    // splitmix64: the finalizer scrambles even adjacent indices
    // into unrelated seeds.
    std::uint64_t z = base ^ (salt * 0x9e3779b97f4a7c15ULL) ^
        (static_cast<std::uint64_t>(index) + 1);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs) const
{
    std::vector<SweepOutcome> outcomes(jobs.size());
    if (jobs.empty())
        return outcomes;

    std::exception_ptr first_error;
    std::mutex error_mutex;
    ProgressBroker progress(opts.progress, jobs.size());
    auto &registry = obs::MetricsRegistry::global();

    auto run_index = [&](std::size_t index) {
        const unsigned tries = opts.job_retries + 1;
        unsigned tries_used = 1;
        progress.jobStarted(index);
        const auto job_begin = std::chrono::steady_clock::now();
        obs::TraceSpan job_span("sweep.job");
        job_span.arg("job", static_cast<std::uint64_t>(index));
        for (unsigned t = 0; t < tries; ++t) {
            tries_used = t + 1;
            std::exception_ptr err;
            try {
                outcomes[index] = runJob(
                    jobs[index], index,
                    jobSeed(jobs[index].config.seed,
                            opts.seed_salt, index),
                    opts.derive_seeds);
            } catch (...) {
                err = std::current_exception();
            }
            if (!err)
                break;
            if (t + 1 < tries) {
                // Per-job retry budget remains; announce the
                // upcoming try before it begins.
                registry.counter("sweep.jobs_retried").add(1);
                progress.jobRetried(index, t + 2);
                continue;
            }
            // Failure isolation: the job's outcome carries its
            // own status and message; the rest of the sweep is
            // unaffected.
            SweepOutcome failed;
            failed.job_index = index;
            failed.status = JobStatus::Failed;
            failed.attempts = tries;
            try {
                std::rethrow_exception(err);
            } catch (const std::exception &e) {
                failed.error = e.what();
            } catch (...) {
                failed.error = "unknown error";
            }
            outcomes[index] = std::move(failed);
            if (opts.strict) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = err;
            }
        }
        const JobStatus status = outcomes[index].status;
        switch (status) {
          case JobStatus::Ok:
            registry.counter("sweep.jobs_completed").add(1);
            break;
          case JobStatus::Preempted:
            registry.counter("sweep.jobs_preempted").add(1);
            break;
          case JobStatus::Failed:
            registry.counter("sweep.jobs_failed").add(1);
            break;
        }
        const double wall_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - job_begin)
                .count();
        job_span.arg("status", jobStatusName(status));
        job_span.arg("tries",
                     static_cast<std::uint64_t>(tries_used));
        job_span.finish();
        progress.jobFinished(index, tries_used, status,
                             wall_seconds);
    };

    // Jobs never throw out of run_index (failure isolation above),
    // so the pool's rethrow path stays cold. Each job already opens
    // its own "sweep.job" span, so the fan-out itself is unlabeled
    // to keep traces single-spanned per job.
    if (opts.pool != nullptr) {
        runtime::poolMap(opts.pool, jobs.size(), run_index);
    } else {
        // A runner-created pool sized to the work: a 1-thread (or
        // 1-job) sweep runs inline on this thread — same code
        // path, no pool threads, convenient under a debugger.
        ThreadPoolOptions pool_opts;
        pool_opts.workers = static_cast<unsigned>(
            std::min<std::size_t>(thread_count, jobs.size()));
        pool_opts.hooks = obs::instrumentedPoolHooks("sweep");
        ThreadPool job_pool(pool_opts);
        runtime::poolMap(&job_pool, jobs.size(), run_index);
    }

    // Strict mode keeps the pre-isolation contract: any job
    // failure fails the whole sweep.
    if (opts.strict && first_error)
        std::rethrow_exception(first_error);
    return outcomes;
}

} // namespace tpupoint
