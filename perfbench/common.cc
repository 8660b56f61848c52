#include <cstdio>
#include <sstream>

#include "bench/common.hh"
#include "profiler/profiler.hh"
#include "workloads.hh"

using namespace tpupoint;

namespace perfbench {

namespace {

/** Largest unattributed share a traced run accepts, in percent. */
constexpr double kMaxUnattributedPct = 5.0;

} // namespace

void
emitEndToEnd(Outcome &out, const EndToEnd &figures)
{
    std::printf("latency samples: %zu (p99 over all %.4g ms), peak-RSS "
                "samples: %zu\n",
                figures.latency_ms.size(),
                percentile(figures.latency_ms, 0.99),
                figures.peak_rss_mb.size());
    out.metric("setup_s", figures.setup_s, "s");
    out.metric("peak_rss_mb", median(figures.peak_rss_mb), "MB");
    out.metric("steps_per_s", figures.steps_per_s, "1/s");
    out.metric("events_per_s", figures.events_per_s, "1/s");
    out.metric("latency_ms_p50", percentile(figures.latency_ms, 0.50),
               "ms");
    out.metric("latency_ms_p90", percentile(figures.latency_ms, 0.90),
               "ms");
}

void
emitLayers(Outcome &out, const Layers &f)
{
    out.metric("sim.step_us", f.sim_step_us, "us");
    out.metric("profiler.step_us", f.profiler_step_us, "us");
    out.metric("profiler.events_per_step", f.profiler_events_per_step,
               "count");
    out.metric("profiler.drop_ratio", f.profiler_drop_ratio, "ratio");
    out.metric("trace.sink_us_per_mb", f.trace_sink_us_per_mb, "us/MB");
    out.metric("spool.stalls", f.spool_stalls, "count");
    out.metric("trace.bytes_per_step", f.trace_bytes_per_step, "count");
    out.metric("proto.decode_ns_per_event", f.proto_decode_ns_per_event,
               "ns");
    out.metric("analyzer.ingest_ns_per_event",
               f.analyzer_ingest_ns_per_event, "ns");
    out.metric("analyzer.finalize_ms", f.analyzer_finalize_ms, "ms");
    out.metric("analyzer.features_ms", f.analyzer_features_ms, "ms");
    out.metric("analyzer.kmeans_ms", f.analyzer_kmeans_ms, "ms");
    out.metric("analyzer.dbscan_ms", f.analyzer_dbscan_ms, "ms");
    out.metric("analyzer.ols_ms", f.analyzer_ols_ms, "ms");
    out.metric("pool.analysis.queue_wait_ms",
               f.pool_analysis_queue_wait_ms, "ms");
    out.metric("pool.analysis.busy_pct", f.pool_analysis_busy_pct, "%");
    out.metric("serve.poll_ms_p50", f.serve_poll_ms_p50, "ms");
    out.metric("serve.poll_ms_p99", f.serve_poll_ms_p99, "ms");
    out.metric("serve.publish_ms_p50", f.serve_publish_ms_p50, "ms");
    out.metric("serve.wait_ms_p99", f.serve_wait_ms_p99, "ms");
    out.metric("serve.ingest_chunk_us_p99", f.serve_ingest_chunk_us_p99,
               "us");
    out.metric("analyzer.stream_step_us_p99",
               f.analyzer_stream_step_us_p99, "us");
    out.metric("pool.serve.queue_wait_ms", f.pool_serve_queue_wait_ms,
               "ms");
    out.metric("serve.journal_bytes_per_poll",
               f.serve_journal_bytes_per_poll, "count");
    out.metric("bench.gen_late_ms_p99", f.gen_late_ms_p99, "ms");
    out.metric("bench.harness_pct", f.harness_pct, "%");
    for (const std::string &layer : layerNames())
        out.metric(layer + ".self_pct", f.attribution.pct(layer), "%");
    out.metric("bench.unattributed_pct",
               f.attribution.unattributedPct(), "%");
    // Layers must sum to end to end up to a small remainder.
    if (f.attribution.unattributedPct() > kMaxUnattributedPct)
        out.fail("layer self times leave " +
                 std::to_string(f.attribution.unattributedPct()) +
                 "% of the wall unattributed");
    out.metric("bench.trace_overhead_pct", f.trace_overhead_pct, "%");
}

const std::vector<WorkloadId> &
tableOneRuns()
{
    static const std::vector<WorkloadId> runs = {
        WorkloadId::BertSquad, WorkloadId::DcganCifar10,
        WorkloadId::QanetSquad, WorkloadId::RetinanetCoco,
        WorkloadId::ResnetImagenet};
    return runs;
}

SessionConfig
sessionConfig()
{
    SessionConfig config;
    config.device = TpuDeviceSpec::forGeneration(TpuGeneration::V2);
    return config;
}

std::vector<std::size_t>
shuffledOrder(SeedStream &rng, std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.next() % i]);
    return order;
}

std::vector<Trace>
generateTraces()
{
    std::vector<Trace> traces;
    const auto &runs = tableOneRuns();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RuntimeWorkload workload =
            benchutil::buildScaled(runs[i]);
        // The tpupoint-profile sequence, into memory instead of a
        // file: the bytes are the same.
        std::ostringstream sink;
        Simulator sim;
        TrainingSession session(sim, sessionConfig(), workload);
        ProfilerOptions profiler_options;
        profiler_options.retain_records = false;
        TpuPointProfiler profiler(sim, session, profiler_options);
        profiler.streamTo(sink);
        profiler.start(/*analyzer=*/true);
        session.start(nullptr);
        sim.run();
        profiler.stop();

        Trace trace;
        trace.name = workloadName(runs[i]);
        trace.bytes = sink.str();
        trace.checkpoints = session.checkpoints().checkpoints();
        traces.push_back(std::move(trace));
    }
    return traces;
}

void
corruptTrace(std::string &bytes)
{
    bytes[bytes.size() / 2] ^= 0x5a;
}

} // namespace perfbench
