/**
 * @file
 * The three benchmark workloads and the metric sets they report.
 * Every run prints the same metric names: the end-to-end set when
 * untraced, the per-layer set when traced. A layer that does no
 * work in a workload reports 0.
 */

#ifndef TPUPOINT_PERFBENCH_WORKLOADS_HH
#define TPUPOINT_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "host/checkpoint.hh"
#include "runtime/session.hh"
#include "workloads/catalog.hh"

namespace perfbench {

/** End-to-end metrics of one untraced run. */
struct EndToEnd
{
    double setup_s = 0;
    double steps_per_s = 0;
    double events_per_s = 0;
    std::vector<double> latency_ms; ///< One sample per operation.

    /** Peak RSS of each measured pass; the median is reported. */
    std::vector<double> peak_rss_mb;
};

/** Per-layer metrics of one traced run (0 = layer idle here). */
struct Layers
{
    double sim_step_us = 0;
    double profiler_step_us = 0;
    double profiler_events_per_step = 0;
    double profiler_drop_ratio = 0;
    double trace_sink_us_per_mb = 0;
    double spool_stalls = 0;
    double trace_bytes_per_step = 0;
    double proto_decode_ns_per_event = 0;
    double analyzer_ingest_ns_per_event = 0;
    double analyzer_finalize_ms = 0;
    double analyzer_features_ms = 0;
    double analyzer_kmeans_ms = 0;
    double analyzer_dbscan_ms = 0;
    double analyzer_ols_ms = 0;
    double pool_analysis_queue_wait_ms = 0;
    double pool_analysis_busy_pct = 0;
    double serve_poll_ms_p50 = 0;
    double serve_poll_ms_p99 = 0;
    double serve_publish_ms_p50 = 0;
    double serve_wait_ms_p99 = 0;
    double serve_ingest_chunk_us_p99 = 0;
    double analyzer_stream_step_us_p99 = 0;
    double pool_serve_queue_wait_ms = 0;
    double serve_journal_bytes_per_poll = 0;
    double gen_late_ms_p99 = 0;
    double harness_pct = 0; ///< Wall in the benchmark's bookkeeping.
    double trace_overhead_pct = 0;
    Attribution attribution;
};

/** Emit the end-to-end metric set (untraced runs). */
void emitEndToEnd(Outcome &out, const EndToEnd &figures);

/** Emit the per-layer metric set (traced runs). */
void emitLayers(Outcome &out, const Layers &figures);

/** The five Table I runs every workload draws from, in order. */
const std::vector<tpupoint::WorkloadId> &tableOneRuns();

/**
 * Session config of every Table I run: TPUv2 at the default session
 * seed, as tpupoint-profile runs it. The benchmark seed does not
 * reach the simulation: across simulation seeds the analyze
 * workload's peak memory swings by about +-20% (DBSCAN neighbour
 * lists on BERT-SQuAD), which would swamp run-to-run comparison.
 */
tpupoint::SessionConfig sessionConfig();

/** A seeded permutation of 0..n-1 (one pass's input order). */
std::vector<std::size_t> shuffledOrder(SeedStream &rng, std::size_t n);

/** One profiled Table I run, kept as the bytes tpupoint-profile
 * would have written. */
struct Trace
{
    std::string name;
    std::string bytes;
    std::vector<tpupoint::CheckpointInfo> checkpoints;
};

/** Build the five Table I workloads and profile each into memory. */
std::vector<Trace> generateTraces();

/** Flip one payload byte in the middle of @p bytes. */
void corruptTrace(std::string &bytes);

/** Median of @p repeats timed calls of @p setup, in seconds. */
template <typename Fn>
double
timedSetup(int repeats, Fn &&setup)
{
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i) {
        const std::int64_t begin = nowNs();
        setup();
        times.push_back(seconds(nowNs() - begin));
    }
    return median(times);
}

Outcome runProfile(const Options &options);
Outcome runAnalyze(const Options &options);
Outcome runLive(const Options &options);

} // namespace perfbench

#endif // TPUPOINT_PERFBENCH_WORKLOADS_HH
