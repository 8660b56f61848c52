/**
 * @file
 * `profile`: a closed loop on one thread that characterizes the
 * five Table I runs one at a time on TPUv2, each a TrainingSession
 * with TpuPointProfiler::streamTo writing a profile file — the
 * tpupoint-profile sequence. The simulator and the profiler do the
 * work; the analyzer and serve do none.
 */

#include <fstream>
#include <iterator>
#include <sstream>
#include <streambuf>

#include "bench/common.hh"
#include "obs/metrics.hh"
#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "trace/checksum.hh"
#include "workloads.hh"

using namespace tpupoint;

namespace perfbench {

namespace {

/**
 * Forwards every write to the file's own buffer and times the call:
 * the sink side of the trace layer, seen from outside the profiler.
 */
class TimingBuf : public std::streambuf
{
  public:
    TimingBuf(std::streambuf *inner, Recorder &recorder)
        : target(inner), rec(recorder)
    {
    }

    std::int64_t ns = 0;
    std::uint64_t bytes = 0;

  protected:
    std::streamsize
    xsputn(const char *data, std::streamsize n) override
    {
        ScopedSpan span(rec, "trace.sink_write", "trace", 2);
        const std::streamsize written = target->sputn(data, n);
        charge(span, written);
        return written;
    }

    int
    overflow(int ch) override
    {
        if (ch == traits_type::eof())
            return traits_type::not_eof(ch);
        ScopedSpan span(rec, "trace.sink_write", "trace", 2);
        const int result = target->sputc(static_cast<char>(ch));
        charge(span, result == traits_type::eof() ? 0 : 1);
        return result;
    }

    int
    sync() override
    {
        ScopedSpan span(rec, "trace.sink_write", "trace", 2);
        const int result = target->pubsync();
        charge(span, 0);
        return result;
    }

  private:
    void
    charge(ScopedSpan &span, std::streamsize written)
    {
        ns += span.finish();
        bytes += static_cast<std::uint64_t>(written);
    }

    std::streambuf *target;
    Recorder &rec;
};

/** What one profiled run produced, plus the check inputs. */
struct RunFigures
{
    std::int64_t wall_ns = 0;
    std::uint64_t steps = 0;
    std::uint64_t accepted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t stalls = 0;
    std::uint64_t file_bytes = 0;
    std::int64_t sink_ns = 0;
    std::uint64_t sink_bytes = 0;
    SessionResult result;
};

/** The tpupoint-profile sequence; timing taps only when traced. */
RunFigures
profiledRun(const RuntimeWorkload &workload, const SessionConfig &config,
            const std::string &path, Recorder &rec)
{
    auto &registry = obs::MetricsRegistry::global();
    auto &accepted = registry.counter("profiler.events_accepted");
    auto &dropped = registry.counter("profiler.events_dropped");
    const std::uint64_t accepted_before = accepted.value();
    const std::uint64_t dropped_before = dropped.value();

    RunFigures figures;
    const std::int64_t begin = nowNs();
    {
        std::ofstream file(path, std::ios::binary);
        TimingBuf timing(file.rdbuf(), rec);
        std::ostream timed(&timing);
        std::ostream &sink = rec.enabled() ? timed : file;

        ScopedSpan span(rec, "profiler.session", "profiler");
        Simulator sim;
        TrainingSession session(sim, config, workload);
        ProfilerOptions profiler_options;
        profiler_options.retain_records = false;
        TpuPointProfiler profiler(sim, session, profiler_options);
        profiler.streamTo(sink);
        profiler.start(/*analyzer=*/true);
        session.start(nullptr);
        sim.run();
        profiler.stop();
        sink.flush();
        span.finish();

        figures.result = session.result();
        figures.steps = figures.result.steps_completed;
        figures.stalls = profiler.spoolStalls();
        figures.sink_ns = timing.ns;
        figures.sink_bytes = timing.bytes;
    }
    figures.wall_ns = nowNs() - begin;
    figures.accepted = accepted.value() - accepted_before;
    figures.dropped = dropped.value() - dropped_before;
    return figures;
}

/** Strict decode of a written profile: (events, digest). */
bool
decodeStrict(const std::string &path, std::uint64_t *events,
             std::uint64_t *bytes, std::uint32_t *digest,
             std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    const std::string content((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    *bytes = content.size();
    *digest = crc32(content);
    *events = 0;
    try {
        std::istringstream stream(content);
        ProfileReader reader(stream, /*salvage=*/false);
        ColumnarRecord record;
        while (reader.read(record))
            *events += record.event_count;
        if (reader.sawDamage()) {
            *error = "damaged stream";
            return false;
        }
    } catch (const std::exception &e) {
        *error = e.what();
        return false;
    }
    return true;
}

/** The simulated figures of one run; they must repeat exactly. */
struct Simulated
{
    double idle = 0;
    double mxu = 0;
    double overhead = 0;
    std::uint32_t digest = 0;

    bool
    operator==(const Simulated &o) const
    {
        return idle == o.idle && mxu == o.mxu &&
            overhead == o.overhead && digest == o.digest;
    }
};

} // namespace

Outcome
runProfile(const Options &options)
{
    Outcome out;
    Recorder rec(options.trace);
    const auto &runs = tableOneRuns();
    const std::size_t n = runs.size();

    const SessionConfig config = sessionConfig();
    std::vector<RuntimeWorkload> workloads;
    std::vector<SessionResult> plain(n);
    EndToEnd e2e;
    e2e.setup_s = timedSetup(9, [&]() {
        workloads.clear();
        for (std::size_t i = 0; i < n; ++i) {
            workloads.push_back(benchutil::buildScaled(runs[i]));
            // The unprofiled reference for the simulated
            // Section VII-C overhead.
            plain[i] =
                benchutil::plainRun(workloads[i], config.device.generation);
        }
    });

    std::vector<Simulated> reference(n);
    std::vector<bool> have_reference(n, false);
    std::vector<double> untraced_rates, untraced_event_rates;
    std::vector<double> untraced_walls, traced_walls;
    Layers layers;
    std::int64_t plain_ns = 0, profiled_ns = 0, sink_ns = 0;
    std::uint64_t traced_steps = 0, accepted = 0, dropped = 0,
                  stalls = 0, sink_bytes = 0, file_bytes = 0,
                  all_steps = 0;
    std::size_t traced_passes = 0;

    SeedStream order_rng(options.seed);
    const auto pass = [&](bool measured, bool traced) {
        std::int64_t pass_ns = 0;
        std::uint64_t pass_steps = 0, pass_events = 0;
        resetPeakRss();
        for (const std::size_t i : shuffledOrder(order_rng, n)) {
            const std::string path = options.work_dir + "/profile-" +
                std::to_string(i) + ".tpp";
            std::int64_t plain_run_ns = 0;
            if (traced) {
                // sim.step_us: the same run without the profiler.
                ScopedSpan span(rec, "sim.plain_run", "sim", 1);
                benchutil::plainRun(workloads[i],
                                    config.device.generation);
                plain_run_ns = span.finish();
            }
            Recorder untraced(false);
            const std::size_t first_span = rec.size();
            const std::int64_t op_begin = nowNs();
            const RunFigures run = profiledRun(
                workloads[i], config, path, traced ? rec : untraced);
            const std::int64_t op_end = op_begin + run.wall_ns;
            rec.collect();

            std::uint64_t events = 0, bytes = 0;
            std::uint32_t digest = 0;
            std::string error;
            const bool decoded =
                decodeStrict(path, &events, &bytes, &digest, &error);
            Simulated sim;
            sim.idle = run.result.tpu_idle_fraction;
            sim.mxu = run.result.mxu_utilization;
            sim.overhead =
                static_cast<double>(run.result.wall_time) /
                    static_cast<double>(plain[i].wall_time) -
                1.0;
            sim.digest = digest;
            if (!have_reference[i]) {
                reference[i] = sim;
                have_reference[i] = true;
            }
            const std::string who = workloadName(runs[i]);
            out.attempt(decoded, who + ": strict decode: " + error);
            if (decoded && events != run.accepted)
                out.fail(who + ": decoded " + std::to_string(events) +
                         " events, profiler accepted " +
                         std::to_string(run.accepted));
            if (!(sim == reference[i]))
                out.fail(who + ": stream digest or simulated figures "
                               "differ between passes");

            pass_ns += run.wall_ns;
            pass_steps += run.steps;
            pass_events += run.accepted;
            if (measured && !traced)
                e2e.latency_ms.push_back(
                    static_cast<double>(run.wall_ns) / 1e6);
            if (traced) {
                Attribution op;
                op.add(rec.spans(first_span), op_begin, op_end);
                // Inside a profiled run the simulator and the
                // profiler share one call stack; the simulator is
                // charged what the same run costs unprofiled.
                const double profiler_self = op.layer_ns["profiler"];
                const double sim_self = std::min(
                    static_cast<double>(plain_run_ns), profiler_self);
                op.layer_ns["profiler"] = profiler_self - sim_self;
                op.layer_ns["sim"] += sim_self;
                for (const auto &[layer, ns] : op.layer_ns)
                    layers.attribution.layer_ns[layer] += ns;
                layers.attribution.wall_ns += op.wall_ns;
                layers.attribution.unattributed_ns +=
                    op.unattributed_ns;
                plain_ns += plain_run_ns;
                profiled_ns += run.wall_ns;
                sink_ns += run.sink_ns;
                sink_bytes += run.sink_bytes;
                traced_steps += run.steps;
            }
            accepted += run.accepted;
            dropped += run.dropped;
            stalls += run.stalls;
            file_bytes += bytes;
            all_steps += run.steps;
        }
        if (!measured)
            return;
        if (traced) {
            traced_walls.push_back(static_cast<double>(pass_ns));
            ++traced_passes;
        } else {
            untraced_walls.push_back(static_cast<double>(pass_ns));
            e2e.peak_rss_mb.push_back(peakRssMb());
            const double s = seconds(pass_ns);
            untraced_rates.push_back(static_cast<double>(pass_steps) / s);
            untraced_event_rates.push_back(
                static_cast<double>(pass_events) / s);
        }
    };

    pass(/*measured=*/false, /*traced=*/false); // warm-up
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
    for (std::size_t p = 0;; ++p) {
        // Traced runs alternate traced and untraced passes so the
        // tracing overhead is measured on the same machine state.
        const bool traced = options.trace && p % 2 == 1;
        pass(/*measured=*/true, traced);
        const bool enough = !options.trace ||
            (traced_passes > 0 && !untraced_walls.empty());
        if (nowNs() >= deadline && enough)
            break;
    }

    for (std::size_t i = 0; i < n; ++i)
        std::printf("simulated %-16s idle_pct %.4f mxu_pct %.4f "
                    "profiler_overhead_pct %.4f\n",
                    workloadName(runs[i]), 100 * reference[i].idle,
                    100 * reference[i].mxu,
                    100 * reference[i].overhead);

    if (!options.trace) {
        e2e.steps_per_s = median(untraced_rates);
        e2e.events_per_s = median(untraced_event_rates);
        std::printf("profile_steps_per_s = %.17g (median of %zu "
                    "passes)\n",
                    e2e.steps_per_s, untraced_rates.size());
        emitEndToEnd(out, e2e);
        return out;
    }

    const double steps = static_cast<double>(traced_steps);
    layers.sim_step_us = static_cast<double>(plain_ns) / 1e3 / steps;
    layers.profiler_step_us =
        static_cast<double>(profiled_ns - plain_ns) / 1e3 / steps;
    layers.profiler_events_per_step =
        static_cast<double>(accepted) / static_cast<double>(all_steps);
    layers.profiler_drop_ratio = static_cast<double>(dropped) /
        static_cast<double>(accepted + dropped);
    layers.trace_sink_us_per_mb = static_cast<double>(sink_ns) / 1e3 /
        (static_cast<double>(sink_bytes) / 1e6);
    layers.spool_stalls =
        static_cast<double>(stalls) /
        static_cast<double>(untraced_walls.size() + traced_passes + 1);
    layers.trace_bytes_per_step = static_cast<double>(file_bytes) /
        static_cast<double>(all_steps);
    layers.trace_overhead_pct =
        100 * (median(traced_walls) / median(untraced_walls) - 1);

    std::string error;
    if (!rec.writeTrace(options.work_dir + "/spans-profile.json",
                        200000, &error))
        out.fail("span trace: " + error);
    emitLayers(out, layers);
    return out;
}

} // namespace perfbench
