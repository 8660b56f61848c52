#include "analyzer/compare.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/strings.hh"

namespace tpupoint {

namespace {

/** Duration share of every op in @p ops, keyed by name. */
std::map<std::string, double>
shares(OpStatsSpan ops)
{
    SimTime total = 0;
    for (const ColumnarOpStats &entry : ops)
        total += entry.total_duration;
    std::map<std::string, double> out;
    if (total == 0)
        return out;
    const StringInterner &interner = StringInterner::global();
    for (const ColumnarOpStats &entry : ops) {
        out[std::string(interner.view(entry.op))] =
            static_cast<double>(entry.total_duration) /
            static_cast<double>(total);
    }
    return out;
}

std::vector<OpShareDelta>
mergeShares(OpStatsSpan a, OpStatsSpan b)
{
    const auto sa = shares(a);
    const auto sb = shares(b);
    std::map<std::string, OpShareDelta> merged;
    for (const auto &[name, share] : sa) {
        merged[name].name = name;
        merged[name].share_a = share;
    }
    for (const auto &[name, share] : sb) {
        merged[name].name = name;
        merged[name].share_b = share;
    }
    std::vector<OpShareDelta> out;
    out.reserve(merged.size());
    for (auto &[name, delta] : merged)
        out.push_back(std::move(delta));
    std::sort(out.begin(), out.end(),
              [](const OpShareDelta &x, const OpShareDelta &y) {
                  return std::max(x.share_a, x.share_b) >
                      std::max(y.share_a, y.share_b);
              });
    return out;
}

} // namespace

std::vector<OpShareDelta>
AnalysisComparison::movers(double threshold) const
{
    std::vector<OpShareDelta> out;
    for (const auto &delta : tpu_ops)
        if (std::fabs(delta.delta()) >= threshold)
            out.push_back(delta);
    for (const auto &delta : host_ops)
        if (std::fabs(delta.delta()) >= threshold)
            out.push_back(delta);
    std::sort(out.begin(), out.end(),
              [](const OpShareDelta &x, const OpShareDelta &y) {
                  return std::fabs(x.delta()) >
                      std::fabs(y.delta());
              });
    return out;
}

AnalysisComparison
compareAnalyses(const AnalysisResult &a, const AnalysisResult &b,
                std::string label_a, std::string label_b)
{
    AnalysisComparison comparison;
    comparison.label_a = std::move(label_a);
    comparison.label_b = std::move(label_b);
    comparison.phases_a = a.phases.size();
    comparison.phases_b = b.phases.size();

    const Phase *longest_a = a.longest();
    const Phase *longest_b = b.longest();
    const OpStatsSpan tpu_a =
        longest_a ? OpStatsSpan(longest_a->tpu_ops) : OpStatsSpan();
    const OpStatsSpan tpu_b =
        longest_b ? OpStatsSpan(longest_b->tpu_ops) : OpStatsSpan();
    const OpStatsSpan host_a =
        longest_a ? OpStatsSpan(longest_a->host_ops) : OpStatsSpan();
    const OpStatsSpan host_b =
        longest_b ? OpStatsSpan(longest_b->host_ops) : OpStatsSpan();

    comparison.tpu_ops = mergeShares(tpu_a, tpu_b);
    comparison.host_ops = mergeShares(host_a, host_b);

    const auto top_a = topOps(tpu_a, 1);
    const auto top_b = topOps(tpu_b, 1);
    comparison.same_top_tpu_op = !top_a.empty() &&
        !top_b.empty() && top_a[0].name == top_b[0].name;
    return comparison;
}

void
writeComparison(const AnalysisComparison &comparison,
                std::ostream &out, std::size_t top_n)
{
    out << "phases: " << comparison.label_a << "="
        << comparison.phases_a << "  " << comparison.label_b
        << "=" << comparison.phases_b << "\n";
    out << "top TPU operator consistent: "
        << (comparison.same_top_tpu_op ? "yes" : "no") << "\n";

    auto dump = [&](const char *title,
                    const std::vector<OpShareDelta> &deltas) {
        out << title << " (" << comparison.label_a << " -> "
            << comparison.label_b << "):\n";
        std::size_t shown = 0;
        for (const auto &delta : deltas) {
            if (shown++ >= top_n)
                break;
            out << "  " << padRight(delta.name, 30)
                << padLeft(formatDouble(100 * delta.share_a, 1),
                           7)
                << "% ->"
                << padLeft(formatDouble(100 * delta.share_b, 1),
                           7)
                << "%  ("
                << (delta.delta() >= 0 ? "+" : "")
                << formatDouble(100 * delta.delta(), 1)
                << " pp)\n";
        }
    };
    dump("TPU operators", comparison.tpu_ops);
    dump("host operators", comparison.host_ops);
}

} // namespace tpupoint
