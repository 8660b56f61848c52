/**
 * @file
 * SweepRunner: run N independent profiled training sessions across
 * a thread pool. Each job gets its own Simulator, TrainingSession
 * and TpuPointProfiler, so sessions share nothing and results are
 * bit-identical whatever the thread count or scheduling order —
 * the per-job seed is derived from the job's position in the
 * sweep, never from the worker that happens to execute it. This is
 * what turns the Table-I/figure benchmarks' serial per-workload
 * loops into one parallel sweep.
 */

#ifndef TPUPOINT_RUNTIME_SWEEP_HH
#define TPUPOINT_RUNTIME_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/progress.hh"
#include "profiler/profiler.hh"
#include "runtime/resilient.hh"
#include "runtime/session.hh"

namespace tpupoint {

class ThreadPool;

/** One sweep entry: a workload on a platform configuration. */
struct SweepJob
{
    RuntimeWorkload workload;
    SessionConfig config;
    ProfilerOptions profiler;

    /** Attach TPUPoint-Profiler to this session. */
    bool profile = true;

    /** Restart orchestration used when the job's config schedules
     * preemptions (SessionConfig::preemption). */
    ResilientOptions resilience;
};

/** How one sweep entry ended. */
enum class JobStatus : std::uint8_t {
    Ok,        ///< Ran to completion; the result is full.
    Preempted, ///< Attempt budget exhausted; the result is partial.
    Failed,    ///< Threw; `error` holds the message, result empty.
};

/** Printable job-status name. */
const char *jobStatusName(JobStatus status);

/** Everything one sweep entry produces. */
struct SweepOutcome
{
    std::size_t job_index = 0;

    /** How the job ended; the fields below are only meaningful for
     * Ok (and, partially, Preempted) jobs. */
    JobStatus status = JobStatus::Ok;

    /** Failure message for Failed jobs ("" otherwise). */
    std::string error;

    /** Sessions started (> 1 when preemptions forced restarts). */
    std::uint32_t attempts = 1;

    /** Steps run more than once across restarts. */
    std::uint64_t replayed_steps = 0;

    SessionResult result;
    std::vector<ColumnarRecord> records;
    std::vector<CheckpointInfo> checkpoints;
    std::uint64_t profiler_bytes = 0;
    std::uint64_t profile_requests = 0;

    /** True when the job produced a usable (full) result. */
    bool ok() const { return status == JobStatus::Ok; }
};

/** Sweep execution knobs. */
struct SweepOptions
{
    /**
     * Worker threads; 0 resolves through the process-wide knob:
     * TPUPOINT_THREADS if set, else hardware concurrency (see
     * resolveThreadCount()). Ignored when `pool` is given.
     */
    unsigned threads = 0;

    /**
     * Run jobs on this caller-owned pool instead of creating one —
     * the process-wide `--threads N` pool shared with the analysis
     * stack. The runner only borrows it: jobs fan out with
     * ThreadPool::forEach and the pool survives the sweep.
     */
    ThreadPool *pool = nullptr;

    /**
     * Derive a distinct deterministic seed for each job from its
     * configured seed, @ref seed_salt and the job index. Off by
     * default so a sweep reproduces the serial loops it replaces
     * byte for byte; turn on when the same workload appears many
     * times and the runs should differ.
     */
    bool derive_seeds = false;

    /** Extra entropy mixed into derived seeds. */
    std::uint64_t seed_salt = 0;

    /**
     * Rethrow the first job exception after the pool joins,
     * discarding every outcome — the pre-failure-isolation
     * behaviour, for callers that treat any job failure as a sweep
     * failure. Off by default: failures land in their job's
     * SweepOutcome and the rest of the sweep survives.
     */
    bool strict = false;

    /** Extra times a Failed job is re-run before it is recorded as
     * Failed (0 = no retries). Deterministic jobs fail the same
     * way every time; this is for jobs whose failure is injected
     * or environmental. */
    unsigned job_retries = 0;

    /**
     * Invoked on every job start/retry/finish with running totals
     * (obs::ProgressReporter renders a status line or JSONL).
     * Invocations are serialized under the runner's own mutex, so
     * the sink needs no locking; it must not throw. The callback
     * observes wall-clock progress only — job results are
     * bit-identical with or without a sink attached.
     */
    obs::ProgressSink progress;
};

/**
 * The sweep runner. Jobs fan out across a core::ThreadPool (a
 * borrowed SweepOptions::pool or one the runner creates per run);
 * outcomes land at their job's index, so the output order equals
 * the input order regardless of completion order.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(const SweepOptions &options = {});

    /** Worker threads a runner-created pool will use (the borrowed
     * pool's own worker count applies when SweepOptions::pool is
     * set). */
    unsigned threads() const { return thread_count; }

    /**
     * Run every job; blocks until all complete. A throwing job
     * records JobStatus::Failed in its own outcome and the rest of
     * the sweep is returned intact; with SweepOptions::strict the
     * first exception is rethrown after the pool joins instead.
     */
    std::vector<SweepOutcome> run(
        const std::vector<SweepJob> &jobs) const;

    /**
     * The seed job @p index runs with under derive_seeds: a
     * splitmix64 mix of @p base, @p salt and the index. Thread
     * count and scheduling never enter the derivation.
     */
    static std::uint64_t jobSeed(std::uint64_t base,
                                 std::uint64_t salt,
                                 std::size_t index);

  private:
    SweepOptions opts;
    unsigned thread_count;
};

} // namespace tpupoint

#endif // TPUPOINT_RUNTIME_SWEEP_HH
