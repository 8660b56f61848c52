/**
 * @file
 * `tpupoint-profile`: run one catalog workload under
 * TPUPoint-Profiler and write the binary profile (plus the
 * checkpoint registry) to disk — the front half of the toolchain,
 * separated so profiles can be analyzed offline (and repeatedly)
 * with `tpupoint-analyze`.
 *
 * Usage:
 *   tpupoint-profile [options]
 *     --workload NAME   bert-mrpc|bert-squad|bert-cola|bert-mnli|
 *                       dcgan-cifar10|dcgan-mnist|qanet|retinanet|
 *                       resnet|resnet-cifar10        (default dcgan)
 *     --tpu v2|v3       TPU generation               (default v2)
 *     --scale F         step-scale factor            (default 0.05)
 *     --steps N         hard cap on train steps      (default none)
 *     --naive           use the naive pipeline configuration
 *     --out PATH        output profile path (default tpupoint.profile)
 *     --fault-error-rate F  storage transient-error probability
 *                           per transfer              (default 0)
 *     --fault-seed N    fault-plan seed (default: session seed)
 *     --preempt-at S    device interruption at S simulated seconds
 *                       (repeatable)                  (default none)
 *     --preempt-rate F  Poisson interruptions per simulated hour
 *                       (default 0)
 *     --preempt-seed N  preemption-plan seed (default: session seed)
 *     --max-attempts N  restart budget under preemption (default 8)
 *     --trace-out PATH  write the tool's own wall-time spans as
 *                       trace-event JSON (Perfetto-loadable)
 *     --metrics-out PATH  write the process metrics registry as JSON
 *
 * With preemptions scheduled the run is orchestrated by
 * ResilientRunner: each interruption aborts the session at the next
 * safe boundary, the run restarts from the nearest checkpoint, and
 * every attempt streams into the same profile with attempt-boundary
 * records so `tpupoint-analyze` can stitch the attempts back into
 * one continuous step table. Exit status 1 when the attempt budget
 * runs out before the requested steps complete.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "runtime/resilient.hh"
#include "runtime/session.hh"
#include "tools/cli_common.hh"
#include "workloads/catalog.hh"

using namespace tpupoint;

int
main(int argc, char **argv)
{
    std::string workload_name = "dcgan-cifar10";
    std::string tpu = "v2";
    std::string out_path = "tpupoint.profile";
    double scale = 0.05;
    std::uint64_t max_steps = 0;
    double fault_error_rate = 0;
    std::uint64_t fault_seed = 0;
    std::vector<double> preempt_at;
    double preempt_rate = 0;
    std::uint64_t preempt_seed = 0;
    std::uint32_t max_attempts = 8;
    bool naive = false;
    std::string trace_out;
    std::string metrics_out;

    cli::FlagParser parser("tpupoint-profile", "");
    const auto string_into = [](std::string *into) {
        return [into](const char *value) {
            *into = value;
            return true;
        };
    };
    const auto double_into = [](double *into) {
        return [into](const char *value) {
            *into = std::atof(value);
            return true;
        };
    };
    const auto u64_into = [](const char *flag,
                             std::uint64_t *into) {
        return [flag, into](const char *value) {
            return cli::parseUint(
                flag, value,
                std::numeric_limits<std::uint64_t>::max(), into);
        };
    };
    parser.option("--workload", "NAME",
                  "bert-mrpc|bert-squad|bert-cola|bert-mnli|"
                  "dcgan-cifar10|dcgan-mnist|qanet|retinanet|"
                  "resnet|resnet-cifar10 (default dcgan-cifar10)",
                  string_into(&workload_name));
    parser.option("--tpu", "v2|v3",
                  "TPU generation (default v2)",
                  string_into(&tpu));
    parser.option("--scale", "F",
                  "step-scale factor (default 0.05)",
                  double_into(&scale));
    parser.option("--steps", "N",
                  "hard cap on train steps (default none)",
                  u64_into("--steps", &max_steps));
    parser.option("--fault-error-rate", "F",
                  "storage transient-error probability per "
                  "transfer (default 0)",
                  double_into(&fault_error_rate));
    parser.option("--fault-seed", "N",
                  "fault-plan seed (default: session seed)",
                  u64_into("--fault-seed", &fault_seed));
    parser.option("--preempt-at", "S",
                  "device interruption at S simulated seconds "
                  "(repeatable)",
                  [&preempt_at](const char *value) {
                      preempt_at.push_back(std::atof(value));
                      return true;
                  });
    parser.option("--preempt-rate", "F",
                  "Poisson interruptions per simulated hour "
                  "(default 0)",
                  double_into(&preempt_rate));
    parser.option("--preempt-seed", "N",
                  "preemption-plan seed (default: session seed)",
                  u64_into("--preempt-seed", &preempt_seed));
    parser.option("--max-attempts", "N",
                  "restart budget under preemption (default 8)",
                  [&max_attempts](const char *value) {
                      std::uint64_t parsed = 0;
                      if (!cli::parseUint(
                              "--max-attempts", value,
                              std::numeric_limits<
                                  std::uint32_t>::max(),
                              &parsed))
                          return false;
                      max_attempts =
                          static_cast<std::uint32_t>(parsed);
                      return true;
                  });
    parser.toggle("--naive",
                  "use the naive pipeline configuration",
                  [&naive]() { naive = true; });
    parser.option("--out", "PATH",
                  "output profile path "
                  "(default tpupoint.profile)",
                  string_into(&out_path));
    parser.option("--trace-out", "PATH",
                  "write the tool's own wall-time spans as "
                  "trace-event JSON (Perfetto-loadable)",
                  string_into(&trace_out));
    parser.option("--metrics-out", "PATH",
                  "write the process metrics registry as JSON",
                  string_into(&metrics_out));
    switch (parser.parse(argc, argv, 1)) {
      case cli::FlagParser::Outcome::Help: return 0;
      case cli::FlagParser::Outcome::Error: return 2;
      case cli::FlagParser::Outcome::Ok: break;
    }

    WorkloadId id;
    if (!cli::parseWorkload(workload_name, &id)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload_name.c_str());
        return 2;
    }

    WorkloadOptions options;
    options.step_scale = scale;
    options.max_train_steps = max_steps;
    const RuntimeWorkload workload = makeWorkload(id, options);

    Simulator sim;
    SessionConfig config;
    config.device = tpu == "v3" ? TpuDeviceSpec::v3()
                                : TpuDeviceSpec::v2();
    if (naive)
        config.pipeline = PipelineConfig::naive();
    if (fault_error_rate < 0 || fault_error_rate > 1) {
        std::fprintf(stderr,
                     "error: --fault-error-rate must be in "
                     "[0, 1]\n");
        return 2;
    }
    if (fault_error_rate > 0) {
        config.faults = FaultSpec::uniform(fault_error_rate);
        config.faults.seed = fault_seed;
    }
    if (preempt_rate < 0) {
        std::fprintf(stderr,
                     "error: --preempt-rate must be >= 0\n");
        return 2;
    }
    if (max_attempts < 1) {
        std::fprintf(stderr,
                     "error: --max-attempts must be >= 1\n");
        return 2;
    }
    for (double at : preempt_at) {
        if (at < 0) {
            std::fprintf(stderr,
                         "error: --preempt-at must be >= 0\n");
            return 2;
        }
        config.preemption.events.push_back(
            {static_cast<SimTime>(at * kSec),
             PreemptionKind::Eviction});
    }
    config.preemption.rate_per_hour = preempt_rate;
    config.preemption.seed = preempt_seed;

    // Open the sink up front and stream records to it as they are
    // harvested: memory stays bounded by the spool, not the run
    // length, and an unwritable path fails before the run starts.
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }

    std::printf("profiling %s on %s (%llu train steps%s)...\n",
                workload.name.c_str(), config.device.name.c_str(),
                static_cast<unsigned long long>(
                    workload.schedule.train_steps),
                naive ? ", naive pipeline" : "");

    int exit_code = 0;
    std::vector<CheckpointInfo> checkpoints;

    if (config.preemption.enabled()) {
        // Preemption-resilient path: ResilientRunner orchestrates
        // the attempts; each one gets a fresh attempt-stamped
        // profiler streaming into one shared spool (one container,
        // sealed once), with attempt-boundary records interleaved
        // for the analyzer's stitching pass.
        RecordSpool spool(&out);
        ResilientOptions ropts;
        ropts.max_attempts = max_attempts;
        ResilientRunner runner(sim, config, workload, ropts);
        std::unique_ptr<TpuPointProfiler> profiler;
        std::uint64_t records_total = 0;

        runner.setAttemptHook(
            [&](TrainingSession &session, std::uint32_t attempt) {
            if (profiler)
                records_total += profiler->recordsRecorded();
            ProfilerOptions popts;
            popts.retain_records = false;
            popts.attempt = attempt;
            profiler = std::make_unique<TpuPointProfiler>(
                sim, session, popts);
            profiler->streamTo(spool);
            profiler->start(/*analyzer=*/true);
        });
        runner.setBoundaryHook(
            [&](const AttemptOutcome &failed, StepId resume) {
            spool.push(encodeProfileRecord(
                attemptBoundaryRecord(failed, resume)));
        });

        const ResilientResult result = runner.run();
        if (profiler)
            records_total += profiler->recordsRecorded();
        spool.finish();

        std::printf("done: wall %.1f s across %u attempt%s, "
                    "%llu profile records\n",
                    toSeconds(result.wall_time), result.attempts,
                    result.attempts == 1 ? "" : "s",
                    static_cast<unsigned long long>(
                        records_total));
        std::printf("preemptions: %s; %llu useful steps, "
                    "%llu replayed, %.1f s restart backoff\n",
                    runner.preemptionPlan().summary().c_str(),
                    static_cast<unsigned long long>(
                        result.useful_steps),
                    static_cast<unsigned long long>(
                        result.replayed_steps),
                    toSeconds(result.backoff_time));
        checkpoints = result.checkpoints;
        if (!result.completed) {
            std::fprintf(stderr,
                         "error: attempt budget (%u) exhausted at "
                         "step %llu of %llu\n",
                         max_attempts,
                         static_cast<unsigned long long>(
                             result.final_result.preempted_at),
                         static_cast<unsigned long long>(
                             workload.schedule.train_steps));
            exit_code = 1;
        }
    } else {
        TrainingSession session(sim, config, workload);
        ProfilerOptions profiler_options;
        profiler_options.retain_records = false;
        TpuPointProfiler profiler(sim, session, profiler_options);
        profiler.streamTo(out);
        profiler.start(/*analyzer=*/true);
        session.start(nullptr);
        sim.run();
        profiler.stop();

        const SessionResult &result = session.result();
        std::printf("done: wall %.1f s, idle %.1f%%, MXU %.1f%%, "
                    "%llu profile records\n",
                    toSeconds(result.wall_time),
                    100 * result.tpu_idle_fraction,
                    100 * result.mxu_utilization,
                    static_cast<unsigned long long>(
                        profiler.recordsRecorded()));
        if (session.faultPlan().enabled()) {
            std::printf(
                "faults: %s; %llu retries, %.2f s retried\n",
                session.faultPlan().summary().c_str(),
                static_cast<unsigned long long>(
                    session.storageBucket().retriesPerformed()),
                toSeconds(session.storageBucket().retryTime()));
        }
        checkpoints = session.checkpoints().checkpoints();
    }

    out.flush();
    if (!out) {
        std::fprintf(stderr, "error: failed writing %s\n",
                     out_path.c_str());
        return 1;
    }

    // Checkpoint registry alongside, for phase fast-forwarding;
    // under preemption it accumulates every attempt's saves.
    std::ofstream ckpt_out(out_path + ".checkpoints");
    for (const auto &info : checkpoints) {
        ckpt_out << info.step << ' ' << info.saved_at << ' '
                 << info.bytes << '\n';
    }
    if (!ckpt_out) {
        std::fprintf(stderr, "error: cannot write %s.checkpoints\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("wrote %s and %s.checkpoints\n", out_path.c_str(),
                out_path.c_str());
    if (!cli::writeTelemetry(trace_out, metrics_out))
        return 1;
    return exit_code;
}
