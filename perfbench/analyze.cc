/**
 * @file
 * `analyze`: a closed loop of full batch characterization of the
 * five Table I traces, the `tpupoint-analyze P --algorithm kmeans
 * --also dbscan --also ols` call (AnalysisPipeline::analyzeProfile)
 * on a pool of one thread per hardware thread. Clustering does the
 * work; decode and ingest are a small share.
 */

#include <fstream>
#include <sstream>

#include "obs/metrics.hh"
#include "proto/serialize.hh"
#include "runtime/analysis_pipeline.hh"
#include "workloads.hh"

using namespace tpupoint;

namespace perfbench {

namespace {

runtime::PipelineOptions
pipelineOptions(unsigned threads)
{
    runtime::PipelineOptions options;
    options.threads = threads;
    options.analyzer.algorithm = PhaseAlgorithm::KMeans;
    options.analyzer.extra_algorithms = {PhaseAlgorithm::Dbscan,
                                         PhaseAlgorithm::OnlineLinearScan};
    return options;
}

/** Every detector's phase table, as comparable text. */
std::string
phaseTables(const AnalysisResult &result)
{
    std::ostringstream out;
    out << result.table.size() << " steps\n";
    for (const DetectorResult &detection : result.detections) {
        out << phaseAlgorithmName(detection.algorithm) << ' '
            << detection.top3_coverage << '\n';
        for (const Phase &phase : detection.phases)
            out << phase.id << ' ' << phase.first_step << ' '
                << phase.last_step << ' ' << phase.size() << ' '
                << phase.total_duration << ' ' << phase.is_noise
                << '\n';
    }
    return out.str();
}

/** Sum and count of a histogram, for deltas across a pass. */
struct HistogramMark
{
    double sum = 0;
    double count = 0;
};

HistogramMark
mark(const char *name)
{
    const auto &h = obs::MetricsRegistry::global().histogram(name);
    return {static_cast<double>(h.sum()),
            static_cast<double>(h.count())};
}

struct Op
{
    bool ok = false;
    std::string error;
    std::int64_t wall_ns = 0;
    std::uint64_t steps = 0;
    std::uint64_t events = 0;
    std::string tables;
};

/** The analyzeProfile call, as tpupoint-analyze makes it. */
Op
analyzeUntraced(const runtime::AnalysisPipeline &pipeline,
                const std::string &path, const Trace &trace)
{
    Op op;
    AnalysisResult result;
    const std::int64_t begin = nowNs();
    const runtime::PipelineReport report = pipeline.analyzeProfile(
        path, &result, trace.checkpoints,
        [&op](const ColumnarRecord &record) {
            op.events += record.event_count;
        });
    op.wall_ns = nowNs() - begin;
    op.ok = report.ok();
    op.error = report.message;
    op.steps = result.table.size();
    op.tables = phaseTables(result);
    return op;
}

/** Per-layer figures accumulated over traced operations. */
struct Taps
{
    std::int64_t read_ns = 0;
    std::int64_t ingest_ns = 0;
    std::int64_t finalize_ns = 0;
    std::int64_t finalize_begin = 0;
    std::int64_t finalize_end = 0;
    std::uint64_t events = 0;
};

/**
 * The same analysis through the public calls analyzeProfile makes
 * (ProfileReader::read, AnalysisSession::ingest, finalize on the
 * pipeline's pool), each one timed.
 */
Op
analyzeTraced(const runtime::AnalysisPipeline &pipeline,
              const std::string &path, const Trace &trace,
              Recorder &rec, Taps &taps)
{
    Op op;
    AnalysisResult result;
    taps.finalize_begin = taps.finalize_end = 0;
    const std::int64_t begin = nowNs();
    try {
        std::ifstream in(path, std::ios::binary);
        ProfileReader reader(in, pipeline.options().salvage);
        AnalysisSession session(pipeline.options().analyzer);
        ColumnarRecord record;
        std::uint64_t records = 0;
        for (;;) {
            ScopedSpan read_span(rec, "proto.read", "proto");
            const bool more = reader.read(record);
            taps.read_ns += read_span.finish();
            if (!more)
                break;
            ++records;
            op.events += record.event_count;
            ScopedSpan ingest_span(rec, "analyzer.ingest", "analyzer");
            session.ingest(record);
            taps.ingest_ns += ingest_span.finish();
        }
        if (records == 0)
            throw std::runtime_error("no records");
        {
            ScopedSpan span(rec, "runtime.charge_metrics", "runtime");
            runtime::chargeIngestMetrics(
                pipeline.options().session_label, op.events,
                reader.bytesRead(), seconds(nowNs() - begin));
        }
        taps.finalize_begin = nowNs();
        ScopedSpan finalize_span(rec, "analyzer.finalize", "analyzer");
        result = session.finalize(trace.checkpoints, pipeline.pool());
        taps.finalize_ns += finalize_span.finish();
        taps.finalize_end = nowNs();
        op.ok = true;
    } catch (const std::exception &e) {
        op.error = e.what();
    }
    op.wall_ns = nowNs() - begin;
    op.steps = result.table.size();
    op.tables = phaseTables(result);
    taps.events += op.events;
    return op;
}

} // namespace

Outcome
runAnalyze(const Options &options)
{
    Outcome out;
    Recorder rec(options.trace);
    std::vector<Trace> traces;
    std::vector<std::string> paths;
    EndToEnd e2e;
    e2e.setup_s = timedSetup(7, [&]() {
        traces = generateTraces();
        paths.clear();
        for (const Trace &trace : traces) {
            paths.push_back(options.work_dir + "/" + trace.name +
                            ".tpp");
            std::ofstream file(paths.back(), std::ios::binary);
            file << trace.bytes;
        }
    });
    if (options.corrupt) {
        corruptTrace(traces[0].bytes);
        std::ofstream file(paths[0], std::ios::binary);
        file << traces[0].bytes;
    }

    // Reference: a one-thread analysis of the smallest trace.
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < traces.size(); ++i)
        if (traces[i].bytes.size() < traces[smallest].bytes.size())
            smallest = i;
    std::string reference;
    {
        const runtime::AnalysisPipeline single(pipelineOptions(1));
        const Op op =
            analyzeUntraced(single, paths[smallest], traces[smallest]);
        if (!op.ok)
            out.fail("reference analysis: " + op.error);
        reference = op.tables;
        rec.collect();
    }

    const runtime::AnalysisPipeline pipeline(
        pipelineOptions(hardwareThreads()));
    std::vector<std::string> first_tables(traces.size());
    std::vector<double> untraced_rates, untraced_event_rates;
    std::vector<double> untraced_walls, traced_walls;
    std::uint64_t traced_ops = 0, traced_steps = 0;
    double traced_bytes = 0;
    Taps taps;
    Layers layers;
    std::map<std::string, double> detector_ns;
    HistogramMark wait{};
    // Pool workers plus the calling thread, which runs tasks while
    // it waits on a fan-out.
    const double executors = pipeline.pool().workers() + 1.0;
    double busy_pct_ns = 0;

    SeedStream order_rng(options.seed);
    const auto pass = [&](bool measured, bool traced) {
        std::int64_t pass_ns = 0;
        std::uint64_t pass_steps = 0, pass_events = 0;
        resetPeakRss();
        for (const std::size_t i : shuffledOrder(order_rng, traces.size())) {
            const std::size_t first_span = rec.size();
            const HistogramMark wait0 = mark("pool.analysis.queue_wait_us");
            const std::int64_t op_begin = nowNs();
            const Op op = traced
                ? analyzeTraced(pipeline, paths[i], traces[i], rec, taps)
                : analyzeUntraced(pipeline, paths[i], traces[i]);
            const std::int64_t op_end = op_begin + op.wall_ns;
            rec.collect();

            out.attempt(op.ok, traces[i].name + ": " + op.error);
            if (first_tables[i].empty())
                first_tables[i] = op.tables;
            else if (op.ok && op.tables != first_tables[i])
                out.fail(traces[i].name +
                         ": phase tables differ between passes");
            if (op.ok && i == smallest && op.tables != reference)
                out.fail(traces[i].name +
                         ": phase tables differ from the one-thread "
                         "reference");

            pass_ns += op.wall_ns;
            pass_steps += op.steps;
            pass_events += op.events;
            if (measured && !traced)
                e2e.latency_ms.push_back(
                    static_cast<double>(op.wall_ns) / 1e6);
            if (traced) {
                const std::vector<Span> spans = rec.spans(first_span);
                layers.attribution.add(spans, op_begin, op_end);
                for (const Span &span : spans)
                    if (!span.pool_task)
                        detector_ns[span.name] += static_cast<double>(
                            span.end_ns - span.begin_ns);
                const HistogramMark wait1 =
                    mark("pool.analysis.queue_wait_us");
                wait.sum += wait1.sum - wait0.sum;
                wait.count += wait1.count - wait0.count;
                // Weighted by finalize wall, so the mean is over time.
                busy_pct_ns +=
                    poolBusyPct(spans, executors, taps.finalize_begin,
                                taps.finalize_end) *
                    static_cast<double>(taps.finalize_end -
                                        taps.finalize_begin);
                ++traced_ops;
                traced_steps += op.steps;
                traced_bytes +=
                    static_cast<double>(traces[i].bytes.size());
            }
        }
        if (!measured)
            return;
        if (traced) {
            traced_walls.push_back(static_cast<double>(pass_ns));
        } else {
            untraced_walls.push_back(static_cast<double>(pass_ns));
            e2e.peak_rss_mb.push_back(peakRssMb());
            const double s = seconds(pass_ns);
            untraced_rates.push_back(static_cast<double>(pass_steps) / s);
            untraced_event_rates.push_back(
                static_cast<double>(pass_events) / s);
        }
    };

    // First passes of k-means and DBSCAN run slower than warm ones.
    pass(/*measured=*/false, /*traced=*/false);
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
    for (std::size_t p = 0;; ++p) {
        const bool traced = options.trace && p % 2 == 1;
        pass(/*measured=*/true, traced);
        const bool enough = !options.trace ||
            (!traced_walls.empty() && !untraced_walls.empty());
        if (nowNs() >= deadline && enough)
            break;
    }

    if (!options.trace) {
        e2e.steps_per_s = median(untraced_rates);
        e2e.events_per_s = median(untraced_event_rates);
        std::printf("analyze_steps_per_s = %.17g (median of %zu "
                    "passes)\n",
                    e2e.steps_per_s, untraced_rates.size());
        emitEndToEnd(out, e2e);
        return out;
    }

    const double ops = static_cast<double>(traced_ops);
    const double events = static_cast<double>(taps.events);
    layers.trace_bytes_per_step =
        traced_bytes / static_cast<double>(traced_steps);
    layers.proto_decode_ns_per_event =
        static_cast<double>(taps.read_ns) / events;
    layers.analyzer_ingest_ns_per_event =
        static_cast<double>(taps.ingest_ns) / events;
    layers.analyzer_finalize_ms =
        static_cast<double>(taps.finalize_ns) / 1e6 / ops;
    layers.analyzer_features_ms = detector_ns["analyze.features"] / 1e6 / ops;
    layers.analyzer_kmeans_ms = detector_ns["analyze.k-means"] / 1e6 / ops;
    layers.analyzer_dbscan_ms = detector_ns["analyze.DBSCAN"] / 1e6 / ops;
    layers.analyzer_ols_ms = detector_ns["analyze.OLS"] / 1e6 / ops;
    layers.pool_analysis_queue_wait_ms =
        wait.count > 0 ? wait.sum / wait.count / 1e3 : 0;
    layers.pool_analysis_busy_pct =
        busy_pct_ns / static_cast<double>(taps.finalize_ns);
    layers.trace_overhead_pct =
        100 * (median(traced_walls) / median(untraced_walls) - 1);

    std::string error;
    if (!rec.writeTrace(options.work_dir + "/spans-analyze.json", 200000,
                        &error))
        out.fail("span trace: " + error);
    emitLayers(out, layers);
    return out;
}

} // namespace perfbench
