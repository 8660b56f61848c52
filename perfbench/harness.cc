#include "harness.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <utility>

#include "core/json.hh"
#include "obs/span.hh"
#include "obs/trace_export.hh"

namespace perfbench {

void
Outcome::attempt(bool ok, const std::string &why)
{
    ++attempted;
    if (!ok)
        fail(why);
}

void
Outcome::fail(const std::string &why)
{
    ++failed;
    // Keep the first few reasons; a broken run can fail thousands
    // of checks for one cause.
    if (failures.size() < 20)
        failures.push_back(why);
}

void
Outcome::metric(const std::string &name, double value,
                const std::string &unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0;
    }
    metrics.push_back({name, value, unit});
}

void
Outcome::print() const
{
    for (const auto &why : failures)
        std::printf("FAIL: %s\n", why.c_str());
    const double error_rate = attempted == 0
        ? 1.0
        : static_cast<double>(failed) /
            static_cast<double>(attempted);
    std::printf("error_rate = %.17g (%llu failed / %llu attempted)\n",
                error_rate, static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const auto &m : metrics)
        std::printf("%-34s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    // The last line: one JSON object, values with every digit.
    std::ostringstream json;
    json << "{\"correct\": "
         << (failed == 0 && attempted > 0 ? "true" : "false")
         << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
         << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      metrics[i].value);
        json << (i ? ", " : "") << '"' << metrics[i].name
             << "\": {\"value\": " << value << ", \"unit\": \""
             << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = rank < 1
        ? 0
        : std::min(values.size() - 1,
                   static_cast<std::size_t>(rank) - 1);
    return values[index];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::uint64_t
SeedStream::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SeedStream::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

Recorder::Recorder(bool enabled)
    : on(enabled), own(enabled ? std::size_t{1} << 20 : 1)
{
}

namespace {

/**
 * Layer and nesting depth of a span the program records itself.
 * Pool task wrappers sit one level below the benchmark's call
 * spans, the detector passes inside them one level further.
 */
bool
programSpanLayer(const std::string &name, std::string *layer,
                 int *depth)
{
    if (name == "analyze.detector") {
        *layer = "runtime";
        *depth = 2;
    } else if (name.rfind("analyze.", 0) == 0) {
        *layer = "analyzer";
        *depth = 3;
    } else if (name == "serve.ingest" || name == "serve.finalize") {
        *layer = "serve";
        *depth = 2;
    } else {
        return false;
    }
    return true;
}

} // namespace

void
Recorder::collect()
{
    auto &program = tpupoint::obs::SpanBuffer::global();
    if (!on) {
        program.clear();
        return;
    }
    std::vector<tpupoint::obs::SpanRecord> records = own.snapshot();
    own.clear();
    for (auto &record : program.snapshot())
        records.push_back(std::move(record));
    program.clear();
    for (auto &record : records) {
        Span span;
        span.name = std::move(record.name);
        span.depth = 0; // in the trace file, never attributed
        for (const auto &[key, value] : record.args) {
            if (key == "layer")
                span.layer = value;
            else if (key == "depth")
                span.depth = std::stoi(value);
            else if (key == "queue_wait_us")
                span.pool_task = true;
        }
        if (span.layer.empty())
            programSpanLayer(span.name, &span.layer, &span.depth);
        span.thread_id = record.thread_id;
        span.begin_ns = record.begin_ns;
        span.end_ns = record.end_ns;
        store.push_back(std::move(span));
    }
}

std::vector<Span>
Recorder::spans(std::size_t from) const
{
    if (from >= store.size())
        return {};
    return std::vector<Span>(
        store.begin() + static_cast<std::ptrdiff_t>(from), store.end());
}

bool
Recorder::writeTrace(const std::string &path, std::size_t limit,
                     std::string *error) const
{
    std::vector<tpupoint::obs::SpanRecord> records;
    const std::size_t n = std::min(limit, store.size());
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        tpupoint::obs::SpanRecord record;
        record.name = store[i].name;
        record.thread_id = store[i].thread_id;
        record.begin_ns = store[i].begin_ns;
        record.end_ns = store[i].end_ns;
        if (!store[i].layer.empty())
            record.args.emplace_back("layer", store[i].layer);
        records.push_back(std::move(record));
    }
    {
        std::ofstream out(path, std::ios::binary);
        tpupoint::obs::writeSpanTrace(records, out);
        if (!out) {
            *error = "cannot write " + path;
            return false;
        }
    }
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    return tpupoint::validateJson(text, error);
}

ScopedSpan::ScopedSpan(Recorder &recorder, const char *name,
                       const char *layer, int depth)
    : begin(nowNs())
{
    if (recorder.enabled()) {
        span.emplace(name, recorder.buffer());
        span->arg("layer", layer).arg("depth",
                                      static_cast<std::int64_t>(depth));
    }
}

std::int64_t
ScopedSpan::finish()
{
    if (end == 0) {
        end = nowNs();
        if (span)
            span->finish();
    }
    return end - begin;
}

void
Attribution::add(const std::vector<Span> &spans, std::int64_t begin_ns,
                 std::int64_t end_ns)
{
    if (end_ns <= begin_ns)
        return;
    wall_ns += static_cast<double>(end_ns - begin_ns);

    // Boundary events of every attributable span clipped to the
    // interval: +1 at its start, -1 at its end.
    struct Event
    {
        std::int64_t at;
        int delta;
        int depth;
        const std::string *layer;
    };
    std::vector<Event> events;
    for (const Span &span : spans) {
        if (span.depth <= 0 || span.layer.empty())
            continue;
        const std::int64_t b = std::max(span.begin_ns, begin_ns);
        const std::int64_t e = std::min(span.end_ns, end_ns);
        if (e <= b)
            continue;
        events.push_back({b, +1, span.depth, &span.layer});
        events.push_back({e, -1, span.depth, &span.layer});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  return a.at < b.at;
              });

    // active[depth][layer] = spans of that layer open at that depth.
    std::map<int, std::map<std::string, int>> active;
    std::int64_t cursor = begin_ns;
    const auto charge = [&](std::int64_t until) {
        const double length = static_cast<double>(until - cursor);
        if (length <= 0)
            return;
        for (auto it = active.rbegin(); it != active.rend(); ++it) {
            int total = 0;
            for (const auto &[layer, count] : it->second)
                total += count;
            if (total == 0)
                continue;
            for (const auto &[layer, count] : it->second)
                if (count > 0)
                    layer_ns[layer] += length * count / total;
            return;
        }
        unattributed_ns += length;
    };
    for (const Event &event : events) {
        charge(event.at);
        cursor = event.at;
        active[event.depth][*event.layer] += event.delta;
    }
    charge(end_ns);
}

double
Attribution::pct(const std::string &layer) const
{
    const auto it = layer_ns.find(layer);
    return it == layer_ns.end() || wall_ns <= 0
        ? 0
        : 100 * it->second / wall_ns;
}

double
Attribution::unattributedPct() const
{
    return wall_ns <= 0 ? 0 : 100 * unattributed_ns / wall_ns;
}

double
poolBusyPct(const std::vector<Span> &spans, double executors,
            std::int64_t begin_ns, std::int64_t end_ns)
{
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        by_thread;
    for (const Span &span : spans) {
        const std::int64_t b = std::max(span.begin_ns, begin_ns);
        const std::int64_t e = std::min(span.end_ns, end_ns);
        if (span.pool_task && e > b)
            by_thread[span.thread_id].emplace_back(b, e);
    }
    double busy = 0;
    for (auto &[thread, intervals] : by_thread) {
        std::sort(intervals.begin(), intervals.end());
        std::int64_t covered_to = begin_ns;
        for (const auto &[b, e] : intervals) {
            const std::int64_t from = std::max(b, covered_to);
            if (e > from)
                busy += static_cast<double>(e - from);
            covered_to = std::max(covered_to, e);
        }
    }
    const double span = static_cast<double>(end_ns - begin_ns);
    return span <= 0 ? 0 : 100 * busy / (executors * span);
}

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> names = {
        "sim", "profiler", "trace", "proto",
        "analyzer", "runtime", "serve"};
    return names;
}

} // namespace perfbench
