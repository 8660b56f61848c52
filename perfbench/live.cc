/**
 * @file
 * `live`: an open loop against one serve::SessionManager run the
 * way the operator runbook runs tpupoint-serve (journal on, live
 * OLS phases, tool-default TTLs). One generator thread appends the
 * streams of 16 concurrent jobs into the spool on a fixed schedule;
 * the main loop repeats poll() -> publishStatus() ->
 * publishMetrics() back to back. A chunk's lag runs from when it
 * was due to the end of the first status publish whose session
 * covers it, so a stall is charged to every chunk queued behind it.
 */

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/interner.hh"
#include "obs/metrics.hh"
#include "proto/columnar.hh"
#include "serve/serve.hh"
#include "trace/record_stream.hh"
#include "trace/tail_reader.hh"
#include "workloads.hh"

using namespace tpupoint;

namespace perfbench {

namespace {

/** Concurrent jobs; a finished stream is replaced at once. */
constexpr std::size_t kJobs = 16;

/**
 * Aggregate offered byte rate of all jobs. Fixed, so a faster serve
 * shows as lower lag at the same load. At this rate poll() takes
 * about 20% of the main loop and publishing most of the rest; the
 * publish cost grows with every session the daemon has seen, so a
 * higher rate mostly adds sessions, not ingest work.
 */
constexpr double kOfferedBytesPerSecond = 16.0e6;

/** Warm-up before the measured window: every job is mid-stream. */
constexpr double kWarmupSeconds = 1.0;

/**
 * After the window the main loop waits at most this long for the chunks
 * due in it, and then for every session to finalize. The schedule
 * runs on meanwhile: a stream that stopped growing would hit serve's
 * idle TTL and finalize early, on partial data.
 */
constexpr std::int64_t kDrainNs = 30'000'000'000;

/** One Table I trace re-chunked at one record per chunk. */
struct Stream
{
    std::string bytes;
    std::vector<std::uint64_t> chunk_end; ///< Last one = bytes.size().

    /**
     * File sizes at which the writer's bytes reached the file, in
     * order; the last one = bytes.size(). The generator appends in
     * these slices, so a slice ends mid-chunk exactly where the real
     * writer's buffering left the file mid-chunk.
     */
    std::vector<std::uint64_t> write_end;
    std::vector<std::uint64_t> chunk_events;
    std::vector<std::uint64_t> chunk_steps;
    std::uint64_t events = 0;
    std::uint64_t steps = 0;
    std::vector<serve::PhaseSummary> reference; ///< Batch OLS.
};

/**
 * The file buffer of a std::ofstream, as tpupoint-profile writes
 * through, that notes the file's size after every call that can
 * write to the file: the offsets at which a tailing reader can first
 * see the writer's bytes.
 */
class GrowthBuf : public std::filebuf
{
  public:
    explicit GrowthBuf(const std::string &file) : path(file)
    {
        if (!open(path, std::ios::out | std::ios::binary |
                            std::ios::trunc))
            throw std::runtime_error("cannot create " + path);
    }

    std::vector<std::uint64_t> sizes;

  protected:
    std::streamsize
    xsputn(const char *data, std::streamsize n) override
    {
        const std::streamsize written = std::filebuf::xsputn(data, n);
        note();
        return written;
    }

    int_type
    overflow(int_type ch) override
    {
        const int_type result = std::filebuf::overflow(ch);
        note();
        return result;
    }

    int
    sync() override
    {
        const int result = std::filebuf::sync();
        note();
        return result;
    }

  private:
    void
    note()
    {
        struct stat st = {};
        if (::stat(path.c_str(), &st) != 0)
            return;
        const auto size = static_cast<std::uint64_t>(st.st_size);
        if (size > (sizes.empty() ? 0 : sizes.back()))
            sizes.push_back(size);
    }

    std::string path;
};

/**
 * Re-chunk @p trace at one record per chunk with the stream writer
 * into a real file under @p dir, and read the bytes back.
 */
Stream
rechunk(const Trace &trace, const std::string &dir)
{
    Stream stream;
    std::istringstream in(trace.bytes);
    RecordStreamReader reader(in);
    const std::string path = dir + "/rechunk.tpp";
    GrowthBuf file(path);
    std::ostream out(&file);
    RecordStreamOptions options;
    options.chunk_records = 1;
    {
        RecordStreamWriter writer(out, options);
        ColumnarRecord record;
        std::string_view payload;
        while (reader.next(payload) == StreamStatus::Ok) {
            writer.append(payload);
            stream.chunk_end.push_back(
                static_cast<std::uint64_t>(out.tellp()));
            if (!decodeProfileRecordColumnar(payload, record,
                                             StringInterner::global()))
                throw std::runtime_error("undecodable record in " +
                                         trace.name);
            stream.chunk_events.push_back(record.event_count);
            stream.chunk_steps.push_back(record.stepCount());
            stream.events += record.event_count;
            stream.steps += record.stepCount();
        }
        if (reader.status() != StreamStatus::End)
            throw std::runtime_error("cannot re-chunk " + trace.name);
        writer.finish();
    }
    out.flush(); // as tpupoint-profile does before it exits
    file.close();
    {
        std::ifstream back(path, std::ios::binary);
        stream.bytes.assign(std::istreambuf_iterator<char>(back),
                            std::istreambuf_iterator<char>());
    }
    std::filesystem::remove(path);
    stream.chunk_end.back() = stream.bytes.size(); // + end marker
    stream.write_end = std::move(file.sizes);
    if (stream.write_end.empty() ||
        stream.write_end.back() != stream.bytes.size())
        throw std::runtime_error("writer offsets of " + trace.name +
                                 " do not end at the file's end");
    return stream;
}

/** Batch OLS over the stream, summarized the way serve does. */
std::vector<serve::PhaseSummary>
batchPhases(const Stream &stream)
{
    std::istringstream in(stream.bytes);
    RecordStreamReader reader(in);
    AnalysisSession session; // OLS, serve's default detector
    ColumnarRecord record;
    std::string_view payload;
    while (reader.next(payload) == StreamStatus::Ok) {
        decodeProfileRecordColumnar(payload, record,
                                    StringInterner::global());
        session.ingest(record);
    }
    const AnalysisResult result = session.finalize();
    std::vector<serve::PhaseSummary> phases;
    for (const Phase &phase : result.phases) {
        serve::PhaseSummary summary;
        summary.id = phase.id;
        summary.first_step = phase.first_step;
        summary.last_step = phase.last_step;
        summary.steps = phase.size();
        summary.duration_ms =
            static_cast<double>(phase.total_duration) / kMsec;
        summary.noise = phase.is_noise;
        phases.push_back(summary);
    }
    return phases;
}

bool
samePhases(const std::vector<serve::PhaseSummary> &a,
           const std::vector<serve::PhaseSummary> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].id != b[i].id || a[i].first_step != b[i].first_step ||
            a[i].last_step != b[i].last_step ||
            a[i].steps != b[i].steps ||
            a[i].duration_ms != b[i].duration_ms ||
            a[i].noise != b[i].noise)
            return false;
    return true;
}

/** One job: a stream written to its own spool file. */
struct Job
{
    std::string name; ///< File stem = serve session name.
    std::size_t stream = 0;
    std::vector<std::int64_t> chunk_due_ns; ///< From schedule start.
    std::size_t next_chunk = 0;             ///< First not visible.
    std::uint64_t written = 0;              ///< Bytes appended.
    int fd = -1;
    bool removed = false; ///< Spool file deleted once finalized.
};

/** One scheduled append: a job's bytes up to offset `end`. */
struct Append
{
    std::int64_t due_ns = 0;
    std::size_t job = 0;
    std::uint64_t end = 0;
};

/**
 * The whole schedule up to @p horizon_ns: each of kJobs slots runs
 * jobs back to back at an equal share of the offered rate. Each
 * slot starts part way into its first stream, written at once, so
 * the fleet is in steady state when the window opens.
 */
void
buildSchedule(const std::vector<Stream> &streams, std::uint64_t seed,
              std::int64_t horizon_ns, std::vector<Job> *jobs,
              std::vector<Append> *appends)
{
    SeedStream rng(seed ^ 0x6c697665ULL);
    const double slot_rate = kOfferedBytesPerSecond / kJobs;
    // Slots cycle through every trace from evenly spread starting
    // traces and offsets, so the offered mix and the spacing of
    // stream ends barely depend on the seed; the seed jitters the
    // offsets and rotates the traces.
    const std::size_t rotation = rng.next() % streams.size();
    for (std::size_t slot = 0; slot < kJobs; ++slot) {
        double start_offset = (static_cast<double>(slot) + rng.unit()) /
            static_cast<double>(kJobs); // of the first stream
        const std::size_t first_stream =
            (slot + rotation) % streams.size();
        std::int64_t job_start = 0;
        for (std::size_t k = 0; job_start < horizon_ns; ++k) {
            Job job;
            char name[32];
            std::snprintf(name, sizeof(name), "slot%02zu-job%04zu", slot,
                          k);
            job.name = name;
            job.stream = (first_stream + k) % streams.size();
            const Stream &stream = streams[job.stream];
            const double size = static_cast<double>(stream.bytes.size());
            const double skip = start_offset * size;
            start_offset = 0;
            const auto due = [&](std::uint64_t end_offset) {
                const double ahead =
                    std::max(0.0, static_cast<double>(end_offset) - skip);
                return job_start +
                    static_cast<std::int64_t>(ahead / slot_rate * 1e9);
            };

            // Slices end where the writer's bytes reached the file.
            const std::size_t job_index = jobs->size();
            for (const std::uint64_t cut : stream.write_end) {
                const std::int64_t at = due(cut);
                if (at >= horizon_ns)
                    break;
                appends->push_back({at, job_index, cut});
            }
            for (const std::uint64_t end : stream.chunk_end)
                job.chunk_due_ns.push_back(due(end));
            job_start = due(stream.bytes.size());
            jobs->push_back(std::move(job));
        }
    }
    std::stable_sort(appends->begin(), appends->end(),
                     [](const Append &a, const Append &b) {
                         return a.due_ns < b.due_ns;
                     });
}

void
writeSlice(Job &job, const std::string &bytes, std::uint64_t end,
           const std::string &spool)
{
    if (job.fd < 0)
        job.fd = ::open((spool + "/" + job.name + ".tpp").c_str(),
                        O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (job.fd < 0)
        throw std::runtime_error("cannot create spool file " + job.name);
    while (job.written < end) {
        const ssize_t n = ::write(job.fd, bytes.data() + job.written,
                                  end - job.written);
        if (n <= 0)
            throw std::runtime_error("spool write failed: " + job.name);
        job.written += static_cast<std::uint64_t>(n);
    }
    if (job.written == bytes.size()) {
        ::close(job.fd);
        job.fd = -1;
    }
}

double
histogramQuantileOf(const std::string &name, double q)
{
    const auto snapshot = obs::MetricsRegistry::global().snapshot();
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end()
        ? 0
        : obs::histogramQuantile(it->second, q);
}

/**
 * proto and analyzer cost of the chunked path serve takes
 * (TailReader, decodeProfileRecordColumnar, streaming OLS ingest),
 * each call timed; serve's own ingest tasks cannot be split from
 * outside.
 */
void
replayChunked(const std::vector<Stream> &streams, const std::string &dir,
              Layers &layers)
{
    std::int64_t decode_ns = 0, ingest_ns = 0;
    std::uint64_t events = 0;
    for (const Stream &stream : streams) {
        const std::string path = dir + "/replay.tpp";
        {
            std::ofstream file(path, std::ios::binary);
            file << stream.bytes;
        }
        TailReader tail(path);
        AnalyzerOptions options;
        options.streaming = true;
        AnalysisSession session(options);
        ColumnarRecord record;
        tail.poll([&](std::string_view payload) {
            const std::int64_t t0 = nowNs();
            const bool ok = decodeProfileRecordColumnar(
                payload, record, StringInterner::global());
            const std::int64_t t1 = nowNs();
            if (ok)
                session.ingest(record);
            ingest_ns += nowNs() - t1;
            decode_ns += t1 - t0;
            events += record.event_count;
        });
        std::filesystem::remove(path);
    }
    layers.proto_decode_ns_per_event =
        static_cast<double>(decode_ns) / static_cast<double>(events);
    layers.analyzer_ingest_ns_per_event =
        static_cast<double>(ingest_ns) / static_cast<double>(events);
}

} // namespace

Outcome
runLive(const Options &options)
{
    namespace fs = std::filesystem;
    Outcome out;
    Recorder rec(options.trace);
    const std::int64_t window_ns =
        static_cast<std::int64_t>(options.seconds * 1e9);
    const std::int64_t warm_ns =
        static_cast<std::int64_t>(kWarmupSeconds * 1e9);

    std::vector<Stream> streams;
    std::vector<Job> jobs;
    std::vector<Append> appends;
    EndToEnd e2e;
    e2e.setup_s = timedSetup(9, [&]() {
        streams.clear();
        jobs.clear();
        appends.clear();
        for (const Trace &trace : generateTraces())
            streams.push_back(rechunk(trace, options.work_dir));
        buildSchedule(streams, options.seed,
                      warm_ns + window_ns + kDrainNs, &jobs, &appends);
    });
    std::size_t slices = 0, mid_chunk = 0;
    for (Stream &stream : streams) {
        stream.reference = batchPhases(stream);
        slices += stream.write_end.size();
        for (const std::uint64_t end : stream.write_end)
            mid_chunk += !std::binary_search(stream.chunk_end.begin(),
                                             stream.chunk_end.end(), end);
    }
    std::printf("writer: %zu slices over %zu streams, %zu (%.1f%%) end "
                "mid-chunk\n",
                slices, streams.size(), mid_chunk,
                100.0 * static_cast<double>(mid_chunk) /
                    static_cast<double>(slices));
    if (options.corrupt)
        corruptTrace(streams[0].bytes);

    const std::string spool = options.work_dir + "/spool";
    const std::string journal = options.work_dir + "/serve.journal";
    const std::string status = options.work_dir + "/status.json";
    const std::string metrics = status + ".metrics";
    fs::remove_all(spool);
    fs::remove(journal);
    fs::create_directories(spool);

    // Generator, main loop and serve pool share the machine's threads,
    // leaving one idle: with every hardware thread busy, any other
    // load on the machine preempts the main loop and the lag
    // spread across runs doubled.
    serve::ServeOptions serve_options;
    serve_options.spool_dir = spool;
    serve_options.journal_path = journal;
    serve_options.threads =
        hardwareThreads() > 3 ? hardwareThreads() - 3 : 1;
    serve::SessionManager manager(serve_options);
    std::unordered_map<std::string, std::size_t> job_by_name;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        job_by_name[jobs[i].name] = i;

    // The generator: appends on schedule, records how late it ran.
    const std::int64_t t0 = nowNs() + 50'000'000; // 50 ms to start
    std::vector<double> gen_late_ms;
    std::atomic<bool> gen_failed{false};
    std::string gen_error;
    // Spool files of finished streams, unlinked by the generator so
    // the main loop does not pay for it.
    std::mutex retired_guard;
    std::vector<std::string> retired;
    const auto unlinkRetired = [&]() {
        std::vector<std::string> paths;
        {
            std::lock_guard<std::mutex> lock(retired_guard);
            paths.swap(retired);
        }
        for (const std::string &path : paths)
            ::unlink(path.c_str());
    };
    // A jthread: an exception on the main thread stops and joins it.
    std::jthread generator([&](std::stop_token stop) {
        try {
            for (const Append &append : appends) {
                if (stop.stop_requested())
                    return;
                unlinkRetired();
                const std::int64_t target = t0 + append.due_ns;
                std::this_thread::sleep_until(
                    Clock::time_point(std::chrono::nanoseconds(target)));
                if (append.due_ns >= warm_ns)
                    gen_late_ms.push_back(
                        static_cast<double>(nowNs() - target) / 1e6);
                Job &job = jobs[append.job];
                writeSlice(job, streams[job.stream].bytes, append.end,
                           spool);
            }
        } catch (const std::exception &e) {
            gen_error = e.what();
            gen_failed = true;
        }
    });

    const std::int64_t window_begin = t0 + warm_ns;
    const std::int64_t window_end = window_begin + window_ns;
    std::vector<double> lag_ms, wait_ms, poll_ms, publish_ms;
    std::vector<double> traced_iter_ns, untraced_iter_ns;
    double events_in_window = 0, steps_in_window = 0;
    std::uint64_t measured_chunks = 0, polls = 0, journal_bytes = 0;
    std::uintmax_t journal_size = 0;
    bool histograms_reset = false;
    double harness_ns = 0; ///< Main loop time in cover(), in window.
    Layers layers;
    std::map<std::string, double> span_ns, span_count;

    // Coverage: a chunk is visible once its session has consumed its
    // bytes; a stream's last chunk also needs the exact phases. True
    // while some stream waits only on its finalize, which can land in
    // a poll that ingests nothing (finalizes per poll are capped).
    const auto cover = [&](std::int64_t visible_at, double iteration_ns) {
        bool awaiting_finalize = false;
        for (const serve::SessionStatus &s : manager.sessions()) {
            const auto found = job_by_name.find(s.name);
            if (found == job_by_name.end())
                continue;
            Job &job = jobs[found->second];
            const Stream &stream = streams[job.stream];
            const std::size_t last = stream.chunk_end.size() - 1;
            const bool exact = s.phases_exact &&
                (s.state == serve::SessionState::Finalized ||
                 s.state == serve::SessionState::Evicted);
            while (job.next_chunk <= last &&
                   stream.chunk_end[job.next_chunk] <= s.bytes &&
                   (job.next_chunk < last || exact)) {
                const std::int64_t due = t0 + job.chunk_due_ns[job.next_chunk];
                if (due >= window_begin && due < window_end) {
                    const double lag =
                        static_cast<double>(visible_at - due) / 1e6;
                    lag_ms.push_back(lag);
                    wait_ms.push_back(lag - iteration_ns / 1e6);
                    if (visible_at < window_end) {
                        events_in_window += static_cast<double>(
                            stream.chunk_events[job.next_chunk]);
                        steps_in_window += static_cast<double>(
                            stream.chunk_steps[job.next_chunk]);
                    }
                }
                ++job.next_chunk;
            }
            awaiting_finalize |= job.next_chunk == last &&
                stream.chunk_end[last] <= s.bytes;
            // Rotate a finished stream out of the spool, as a spool
            // retention policy would; serve no longer reads it.
            if (job.next_chunk > last && !job.removed) {
                std::lock_guard<std::mutex> lock(retired_guard);
                retired.push_back(spool + "/" + job.name + ".tpp");
                job.removed = true;
            }
        }
        return awaiting_finalize;
    };
    bool awaiting_finalize = false;

    const auto iterate = [&](bool in_window) {
        // Traced runs trace every other half second of the window.
        const bool traced = options.trace && in_window &&
            ((nowNs() - window_begin) / 500'000'000) % 2 == 1;
        Recorder off(false);
        Recorder &r = traced ? rec : off;
        const std::int64_t a = nowNs();
        const std::size_t first_span = rec.size();
        std::size_t progressed = 0;
        {
            ScopedSpan span(r, "serve.poll", "serve");
            progressed = manager.poll();
        }
        const std::int64_t b = nowNs();
        {
            ScopedSpan span(r, "serve.publish_status", "serve");
            if (!serve::publishStatus(manager, status))
                out.fail("status publish failed");
        }
        const std::int64_t c = nowNs();
        {
            ScopedSpan span(r, "serve.publish_metrics", "serve");
            if (!serve::publishMetrics(metrics))
                out.fail("metrics publish failed");
        }
        const std::int64_t d = nowNs();
        if (progressed > 0 || awaiting_finalize || !in_window) {
            ScopedSpan span(r, "bench.cover", "bench");
            awaiting_finalize = cover(c, static_cast<double>(c - a));
        }
        const std::int64_t e = nowNs();
        if (!in_window)
            return;
        ++polls;
        harness_ns += static_cast<double>(e - d);
        poll_ms.push_back(static_cast<double>(b - a) / 1e6);
        publish_ms.push_back(static_cast<double>(d - b) / 1e6);
        if (!options.trace)
            return;
        (traced ? traced_iter_ns : untraced_iter_ns)
            .push_back(static_cast<double>(e - a));
        std::error_code ec;
        const std::uintmax_t size = fs::file_size(journal, ec);
        if (!ec) {
            journal_bytes += size >= journal_size ? size - journal_size
                                                  : size;
            journal_size = size;
        }
        if (!traced) {
            // Same program state as a traced second, minus the spans.
            off.collect();
            return;
        }
        rec.collect();
        const std::vector<Span> spans = rec.spans(first_span);
        layers.attribution.add(spans, a, e);
        for (const Span &span : spans) {
            span_ns[span.name] +=
                static_cast<double>(span.end_ns - span.begin_ns);
            span_count[span.name] += 1;
        }
    };

    while (nowNs() < window_end && !gen_failed) {
        const bool in_window = nowNs() >= window_begin;
        if (in_window && !histograms_reset) {
            obs::MetricsRegistry::global().reset();
            resetPeakRss();
            histograms_reset = true;
        }
        iterate(in_window);
    }
    e2e.peak_rss_mb.push_back(peakRssMb());
    const auto queue_wait = [](const char *name) {
        const auto &h = obs::MetricsRegistry::global().histogram(name);
        return h.count() ? static_cast<double>(h.sum()) /
                static_cast<double>(h.count()) / 1e3
                         : 0.0;
    };
    layers.serve_ingest_chunk_us_p99 =
        histogramQuantileOf("serve.ingest_chunk_us", 0.99);
    layers.analyzer_stream_step_us_p99 =
        histogramQuantileOf("analyzer.stream_step_us{detector=OLS}", 0.99);
    layers.pool_serve_queue_wait_ms = queue_wait("pool.serve.queue_wait_us");

    // Chunks due in the window must all become visible while the
    // schedule runs on; then the generator stops and the rest of every
    // stream is written so every session finalizes.
    for (const Job &job : jobs)
        for (const std::int64_t due : job.chunk_due_ns)
            if (t0 + due >= window_begin && t0 + due < window_end)
                ++measured_chunks;
    const auto settle = [&](const auto &done) {
        const std::int64_t give_up = nowNs() + kDrainNs;
        while (!done() && nowNs() < give_up)
            iterate(false);
    };
    settle([&]() {
        return std::all_of(jobs.begin(), jobs.end(), [&](const Job &job) {
            return job.next_chunk >= job.chunk_due_ns.size() ||
                t0 + job.chunk_due_ns[job.next_chunk] >= window_end;
        });
    });
    generator.request_stop();
    generator.join();
    if (gen_failed)
        out.fail("generator: " + gen_error);
    for (Job &job : jobs)
        if (job.written > 0 && job.written < streams[job.stream].bytes.size())
            writeSlice(job, streams[job.stream].bytes,
                       streams[job.stream].bytes.size(), spool);
    settle([&]() {
        return std::all_of(jobs.begin(), jobs.end(), [&](const Job &job) {
            return job.written == 0 ||
                job.next_chunk == job.chunk_due_ns.size();
        });
    });

    // Checks: every chunk visible, every session finalized with the
    // batch phases, nothing dropped, undecodable or quarantined.
    for (std::uint64_t i = 0; i < measured_chunks; ++i)
        out.attempt(i < lag_ms.size(), "chunk due in the window never "
                                       "became visible");
    std::size_t started = 0;
    for (const serve::SessionStatus &s : manager.sessions()) {
        const auto found = job_by_name.find(s.name);
        if (found == job_by_name.end()) {
            out.fail("unknown session " + s.name);
            continue;
        }
        ++started;
        const Stream &stream = streams[jobs[found->second].stream];
        const bool finalized = s.state == serve::SessionState::Finalized ||
            s.state == serve::SessionState::Evicted;
        std::string why;
        if (!finalized)
            why = std::string("ended ") + serve::sessionStateName(s.state);
        else if (!s.phases_exact || !samePhases(s.phases, stream.reference))
            why = "exact phases differ from batch OLS";
        else if (s.chunks_dropped || s.bytes_skipped || s.records_dropped ||
                 s.decode_failures)
            why = "dropped or undecodable data";
        else if (s.events != stream.events)
            why = "ingested " + std::to_string(s.events) + " of " +
                std::to_string(stream.events) + " events";
        out.attempt(why.empty(), s.name + ": " + why);
    }
    std::size_t expected = 0;
    for (const Job &job : jobs)
        expected += job.written > 0;
    if (started != expected)
        out.fail("sessions: " + std::to_string(started) + " of " +
                 std::to_string(expected));

    std::printf("live: %zu jobs, %llu chunks due in the window, %llu "
                "polls; offered %.0f B/s\n",
                expected, static_cast<unsigned long long>(measured_chunks),
                static_cast<unsigned long long>(polls),
                kOfferedBytesPerSecond);
    double poll_total = 0;
    for (const double ms : poll_ms)
        poll_total += ms;
    std::printf("serve loop: %.1f%% of the window in poll(), %.2f%% in "
                "the benchmark's coverage bookkeeping; poll p50 %.3f ms, "
                "publish p50 %.3f ms\n",
                100 * poll_total / 1e3 / options.seconds,
                100 * harness_ns / 1e9 / options.seconds,
                percentile(poll_ms, 0.5), percentile(publish_ms, 0.5));
    fs::remove_all(spool);

    const double window_s = seconds(window_ns);
    if (!options.trace) {
        e2e.steps_per_s = steps_in_window / window_s;
        e2e.events_per_s = events_in_window / window_s;
        e2e.latency_ms = lag_ms;
        std::printf("live_lag_ms_p50 = %.17g, live_lag_ms_p90 = %.17g, "
                    "live_lag_ms_p99 = %.17g over %zu chunks; "
                    "live_events_per_s = %.17g\n",
                    percentile(lag_ms, 0.50), percentile(lag_ms, 0.90),
                    percentile(lag_ms, 0.99), lag_ms.size(),
                    e2e.events_per_s);
        emitEndToEnd(out, e2e);
        return out;
    }

    double stream_bytes = 0, stream_steps = 0;
    for (const Stream &stream : streams) {
        stream_bytes += static_cast<double>(stream.bytes.size());
        stream_steps += static_cast<double>(stream.steps);
    }
    layers.trace_bytes_per_step = stream_bytes / stream_steps;
    replayChunked(streams, options.work_dir, layers);
    const auto mean_ms = [&](const char *name) {
        return span_count[name] > 0
            ? span_ns[name] / span_count[name] / 1e6
            : 0.0;
    };
    layers.analyzer_finalize_ms = mean_ms("serve.finalize");
    layers.analyzer_ols_ms = mean_ms("analyze.OLS");
    layers.serve_poll_ms_p50 = percentile(poll_ms, 0.50);
    layers.serve_poll_ms_p99 = percentile(poll_ms, 0.99);
    layers.serve_publish_ms_p50 = percentile(publish_ms, 0.50);
    layers.serve_wait_ms_p99 = percentile(wait_ms, 0.99);
    layers.serve_journal_bytes_per_poll =
        static_cast<double>(journal_bytes) / static_cast<double>(polls);
    layers.gen_late_ms_p99 = percentile(gen_late_ms, 0.99);
    layers.harness_pct = layers.attribution.pct("bench");
    double traced_mean = 0, untraced_mean = 0;
    for (const double ns : traced_iter_ns)
        traced_mean += ns / static_cast<double>(traced_iter_ns.size());
    for (const double ns : untraced_iter_ns)
        untraced_mean += ns / static_cast<double>(untraced_iter_ns.size());
    layers.trace_overhead_pct = 100 * (traced_mean / untraced_mean - 1);

    std::string error;
    if (!rec.writeTrace(options.work_dir + "/spans-live.json", 200000,
                        &error))
        out.fail("span trace: " + error);
    emitLayers(out, layers);
    return out;
}

} // namespace perfbench
