/**
 * @file
 * tpupoint-serve ingest throughput: how many concurrent live
 * traces one daemon sustains. 120 synthetic sessions spool into a
 * temp directory in interleaved slices (cut mid-chunk on purpose,
 * so every session exercises the truncated-tail "pending, more may
 * come" path between polls) while one SessionManager tail-follows
 * them all on a shared pool. Reports sessions ingested, aggregate
 * sessions/sec and events/sec, and the p99 per-chunk ingest
 * latency from the `serve.ingest_chunk_us` histogram. Sessions
 * evict immediately after finalize (evict TTL 0), so the run also
 * demonstrates bounded memory under churn.
 *
 * Two robustness phases follow the throughput run: a restart-
 * recovery phase (half-ingested journaled sessions, manager
 * dropped cold, rebuild timed — the `recovery_ms` figure) and an
 * overload phase (more sessions than the admission cap, shed then
 * re-admitted to completion — the `shed_rate` figure).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>
#ifdef __unix__
#include <unistd.h>
#endif

#include "bench/common.hh"
#include "core/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/logger.hh"
#include "obs/metrics.hh"
#include "proto/serialize.hh"
#include "serve/serve.hh"
#include "trace/record_stream.hh"

using namespace tpupoint;

namespace {

constexpr std::size_t kSessions = 120;
constexpr std::size_t kRecordsPerSession = 16;
constexpr std::size_t kStepsPerRecord = 8;
constexpr int kSliceRounds = 4;

/** One synthetic profile record: a few ops per step. */
ColumnarRecord
makeRecord(std::uint64_t seq, StepId step_base)
{
    StringInterner &interner = StringInterner::global();
    std::vector<ColumnarOpStats> tpu;
    for (const char *name :
         {"fusion", "MatMul", "InfeedDequeueTuple"})
        tpu.push_back({interner.intern(name), 1, 20 * kUsec});
    std::sort(tpu.begin(), tpu.end(),
              [](const ColumnarOpStats &a, const ColumnarOpStats &b) {
                  return a.op < b.op;
              });
    const ColumnarOpStats host{
        interner.intern("OutfeedDequeueTuple"), 1, 5 * kUsec};

    ColumnarRecord record;
    record.sequence = seq;
    const SimTime span = 100 * kUsec;
    for (std::size_t i = 0; i < kStepsPerRecord; ++i) {
        const StepId step = step_base + static_cast<StepId>(i);
        const SimTime begin = static_cast<SimTime>(step) * span;
        record.appendStep(step, begin, begin + span,
                          3 * 20 * kUsec, 0, 0,
                          OpStatsSpan(&host, 1), tpu);
        record.event_count += 4;
    }
    record.window_begin = record.begin.front();
    record.window_end = record.end.back();
    return record;
}

/** The full wire bytes of one session's stream, multi-chunk. */
std::string
sessionStream()
{
    std::ostringstream out(std::ios::binary);
    RecordStreamOptions options;
    options.chunk_records = 2; // ~8 chunks per session.
    {
        RecordStreamWriter writer(out, options);
        StepId step = 0;
        for (std::size_t seq = 0; seq < kRecordsPerSession;
             ++seq) {
            writer.append(encodeProfileRecord(
                makeRecord(seq, step)));
            step += kStepsPerRecord;
        }
        writer.finish();
    }
    return out.str();
}

std::string
spoolDir()
{
    std::string dir = std::filesystem::temp_directory_path()
                          .string() +
        "/tpupoint_bench_serve";
#ifdef __unix__
    dir += "." + std::to_string(getpid());
#endif
    return dir;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::BenchReport report("bench_serve", argc, argv);
    benchutil::banner(
        "TPUPoint serve: concurrent live-trace ingest",
        "fleet-scale serving of the Section III analyzer "
        "pipeline");

    const std::string stream = sessionStream();
    const std::string dir = spoolDir();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    std::vector<std::string> paths;
    paths.reserve(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i)
        paths.push_back(dir + "/session" + std::to_string(i) +
                        ".tpp");

    serve::ServeOptions options;
    options.spool_dir = dir;
    options.threads = benchutil::sweepThreads();
    options.idle_ttl_ms = 3600 * 1000; // Only finalize on Complete.
    options.evict_ttl_ms = 0;          // Evict as soon as final.
    options.max_finalizes_per_poll = 16;
    serve::SessionManager manager(options);

    const auto started = std::chrono::steady_clock::now();

    // Spool in interleaved slices: every session's file exists
    // from round 0 on, so all kSessions are live simultaneously,
    // and the cut points deliberately land mid-chunk.
    std::size_t previous_cut = 0;
    for (int round = 1; round <= kSliceRounds; ++round) {
        const std::size_t cut = round == kSliceRounds
            ? stream.size()
            : stream.size() * static_cast<std::size_t>(round) /
                kSliceRounds +
                7; // Off a chunk boundary on purpose.
        for (std::size_t i = 0; i < kSessions; ++i) {
            std::ofstream out(paths[i],
                              std::ios::binary | std::ios::app);
            out.write(stream.data() +
                          static_cast<std::ptrdiff_t>(
                              previous_cut),
                      static_cast<std::streamsize>(
                          cut - previous_cut));
        }
        previous_cut = cut;
        manager.poll();
    }

    // Drain: finalizes are capped per poll, so keep polling until
    // every session has been finalized and evicted.
    std::size_t polls = 0;
    while (!manager.stats().drained() && polls < 10000) {
        manager.poll();
        ++polls;
    }

    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - started)
            .count();

    const serve::ServeStats stats = manager.stats();
    const auto snapshot =
        obs::MetricsRegistry::global().snapshot();
    double p99_chunk_ms = 0.0;
    const auto it =
        snapshot.histograms.find("serve.ingest_chunk_us");
    if (it != snapshot.histograms.end())
        p99_chunk_ms =
            obs::histogramQuantile(it->second, 0.99) / 1000.0;

    const double sessions_per_sec =
        wall_s > 0 ? static_cast<double>(stats.finalized +
                                         stats.evicted) /
                wall_s
                   : 0.0;
    const double events_per_sec =
        wall_s > 0 ? static_cast<double>(stats.events) / wall_s
                   : 0.0;

    std::printf("\nsimultaneous sessions   %zu\n", stats.sessions);
    std::printf("finalized + evicted     %zu\n",
                stats.finalized + stats.evicted);
    std::printf("records ingested        %llu\n",
                static_cast<unsigned long long>(stats.records));
    std::printf("events ingested         %llu\n",
                static_cast<unsigned long long>(stats.events));
    std::printf("wall time               %.3f s\n", wall_s);
    std::printf("sessions/sec            %.1f\n",
                sessions_per_sec);
    std::printf("events/sec              %.0f\n", events_per_sec);
    std::printf("p99 chunk ingest        %.3f ms\n",
                p99_chunk_ms);

    std::filesystem::remove_all(dir);

    if (stats.sessions < 100 ||
        stats.finalized + stats.evicted < kSessions) {
        std::fprintf(stderr,
                     "bench_serve: expected %zu sessions "
                     "finalized, got %zu of %zu\n",
                     kSessions, stats.finalized + stats.evicted,
                     stats.sessions);
        return 1;
    }

    // ---- Phase 2: restart recovery -------------------------------
    // Journal half-ingested sessions, drop the manager cold (the
    // "kill -9"), and time how long a rebuild takes to restore
    // every session from its committed offset.
    constexpr std::size_t kRecoverySessions = 32;
    const std::string recovery_dir = dir + ".recovery";
    std::filesystem::remove_all(recovery_dir);
    std::filesystem::create_directories(recovery_dir);
    for (std::size_t i = 0; i < kRecoverySessions; ++i) {
        std::ofstream out(recovery_dir + "/session" +
                              std::to_string(i) + ".tpp",
                          std::ios::binary);
        out.write(stream.data(),
                  static_cast<std::streamsize>(stream.size() / 2));
    }
    serve::ServeOptions recovery_options;
    recovery_options.spool_dir = recovery_dir;
    recovery_options.threads = benchutil::sweepThreads();
    recovery_options.idle_ttl_ms = 3600 * 1000;
    recovery_options.evict_ttl_ms = -1;
    recovery_options.journal_path =
        recovery_dir + "/serve.journal";
    {
        serve::SessionManager first(recovery_options);
        first.poll(); // Ingest the half-streams; journal commits.
    }
    const auto recovery_start = std::chrono::steady_clock::now();
    serve::SessionManager second(recovery_options);
    const double recovery_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - recovery_start)
            .count();
    const std::size_t recovered = second.stats().recovered;

    // Finish the streams to prove recovery resumes, not restarts.
    for (std::size_t i = 0; i < kRecoverySessions; ++i) {
        std::ofstream out(recovery_dir + "/session" +
                              std::to_string(i) + ".tpp",
                          std::ios::binary | std::ios::app);
        out.write(stream.data() +
                      static_cast<std::ptrdiff_t>(
                          stream.size() / 2),
                  static_cast<std::streamsize>(
                      stream.size() - stream.size() / 2));
    }
    std::size_t recovery_polls = 0;
    while (!second.stats().drained() && recovery_polls < 10000) {
        second.poll();
        ++recovery_polls;
    }
    const serve::ServeStats recovered_stats = second.stats();
    std::filesystem::remove_all(recovery_dir);

    std::printf("recovered sessions      %zu of %zu\n", recovered,
                kRecoverySessions);
    std::printf("recovery time           %.3f ms\n", recovery_ms);

    // ---- Phase 3: overload shedding ------------------------------
    // Four times more sessions than the admission cap: the excess
    // is shed at the door, then re-admitted and finished as
    // capacity frees — overload delays work, never loses it.
    constexpr std::size_t kShedSessions = 32;
    const std::string shed_dir = dir + ".shed";
    std::filesystem::remove_all(shed_dir);
    std::filesystem::create_directories(shed_dir);
    for (std::size_t i = 0; i < kShedSessions; ++i) {
        std::ofstream out(shed_dir + "/session" +
                              std::to_string(i) + ".tpp",
                          std::ios::binary);
        out.write(stream.data(),
                  static_cast<std::streamsize>(stream.size()));
    }
    serve::ServeOptions shed_options;
    shed_options.spool_dir = shed_dir;
    shed_options.threads = benchutil::sweepThreads();
    shed_options.idle_ttl_ms = 3600 * 1000;
    shed_options.evict_ttl_ms = 0;
    shed_options.max_finalizes_per_poll = 16;
    shed_options.max_sessions = kShedSessions / 4;
    serve::SessionManager overloaded(shed_options);
    overloaded.poll();
    const std::size_t shed_peak = overloaded.stats().shed;
    const double shed_rate = static_cast<double>(shed_peak) /
        static_cast<double>(kShedSessions);
    std::size_t shed_polls = 0;
    while (!overloaded.stats().drained() && shed_polls < 10000) {
        overloaded.poll();
        ++shed_polls;
    }
    const serve::ServeStats shed_stats = overloaded.stats();
    std::filesystem::remove_all(shed_dir);

    std::printf("shed at peak            %zu of %zu (rate %.2f)\n",
                shed_peak, kShedSessions, shed_rate);
    std::printf("finished after shed     %zu\n",
                shed_stats.finalized + shed_stats.evicted);

    if (recovered != kRecoverySessions ||
        recovered_stats.finalized < kRecoverySessions) {
        std::fprintf(stderr,
                     "bench_serve: recovery restored %zu of %zu "
                     "sessions (%zu finalized)\n",
                     recovered, kRecoverySessions,
                     recovered_stats.finalized);
        return 1;
    }
    if (shed_peak == 0 ||
        shed_stats.finalized + shed_stats.evicted <
            kShedSessions) {
        std::fprintf(stderr,
                     "bench_serve: shed phase finished %zu of %zu "
                     "sessions (peak shed %zu)\n",
                     shed_stats.finalized + shed_stats.evicted,
                     kShedSessions, shed_peak);
        return 1;
    }

    // ---- Phase 4: observability overhead -------------------------
    // The cost of leaving the structured logger on a hot path:
    // events below the stream threshold with the flight recorder
    // off (the production fast path — one level check), the same
    // events with the recorder on (serialize + ring write), and a
    // raw ring write of a pre-serialized payload.
    constexpr std::uint64_t kLogEvents = 200000;
    obs::Logger bench_logger;
    std::FILE *log_sink = std::tmpfile();
    bench_logger.setStream(log_sink);
    bench_logger.setFormat(obs::LogFormat::Json);
    LogConfig::setThreshold(LogLevel::Warn);
    obs::FlightRecorder &flight = obs::FlightRecorder::global();

    const auto timeLogLoop = [&] {
        const auto begin = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < kLogEvents; ++i)
            bench_logger.log(LogLevel::Debug, "bench",
                             "ingest tick",
                             {{"session", "bench"}, {"i", i}});
        return std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - begin)
                   .count() /
            static_cast<double>(kLogEvents);
    };

    flight.disable();
    const double log_off_ns = timeLogLoop();
    flight.enable();
    const double log_on_ns = timeLogLoop();

    const std::string payload =
        "{\"level\":\"debug\",\"component\":\"bench\","
        "\"msg\":\"ingest tick\"}";
    const auto ring_begin = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kLogEvents; ++i)
        flight.record(payload);
    const double ring_ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - ring_begin)
            .count() /
        static_cast<double>(kLogEvents);
    flight.disable();
    LogConfig::setThreshold(LogLevel::Info);
    if (log_sink != nullptr)
        std::fclose(log_sink);

    std::printf("log event, recorder off %.1f ns\n", log_off_ns);
    std::printf("log event, recorder on  %.1f ns\n", log_on_ns);
    std::printf("flight ring write       %.1f ns\n", ring_ns);

    report.figure("sessions",
                  static_cast<double>(stats.sessions));
    report.figure("sessions_per_sec", sessions_per_sec);
    report.figure("events_per_sec", events_per_sec);
    report.figure("p99_chunk_ingest_ms", p99_chunk_ms);
    report.figure("recovery_ms", recovery_ms);
    report.figure("recovered_sessions",
                  static_cast<double>(recovered));
    report.figure("shed_rate", shed_rate);
    report.figure("log_event_flight_off_ns", log_off_ns);
    report.figure("log_event_flight_on_ns", log_on_ns);
    report.figure("flight_record_ns", ring_ns);
    return report.write() ? 0 : 1;
}
