#include "analyzer/phases.hh"

#include <algorithm>
#include <map>

#include "core/interner.hh"
#include "core/logging.hh"

namespace tpupoint {

namespace {

/** Fold row @p index of @p table into @p phase. */
void
foldStep(Phase &phase, const StepTable &table, std::size_t index,
         std::vector<ColumnarOpStats> &scratch)
{
    const StepId sid = table.stepId(index);
    if (phase.members.empty()) {
        phase.first_step = sid;
        phase.last_step = sid;
    } else {
        phase.first_step = std::min(phase.first_step, sid);
        phase.last_step = std::max(phase.last_step, sid);
    }
    phase.members.push_back(index);
    phase.total_duration += table.span(index);
    mergeOpRuns(phase.host_ops, table.hostOps(index), scratch);
    mergeOpRuns(phase.tpu_ops, table.tpuOps(index), scratch);
}

} // namespace

std::vector<Phase>
phasesFromLabels(const StepTable &table,
                 const std::vector<int> &labels)
{
    if (labels.size() != table.size())
        panic("phasesFromLabels: label/step count mismatch");
    std::map<int, Phase> by_label;
    std::vector<ColumnarOpStats> scratch;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const int key = labels[i] < 0 ? -1 : labels[i];
        Phase &phase = by_label[key];
        if (phase.members.empty()) {
            phase.id = key;
            phase.is_noise = key < 0;
        }
        foldStep(phase, table, i, scratch);
    }
    std::vector<Phase> out;
    out.reserve(by_label.size());
    for (auto &[key, phase] : by_label)
        out.push_back(std::move(phase));
    return out;
}

std::vector<Phase>
phasesFromGroups(const StepTable &table,
                 const std::vector<OnlineLinearScan::Group> &groups)
{
    std::vector<Phase> out;
    out.reserve(groups.size());
    std::vector<ColumnarOpStats> scratch;

    // Map each step to its group by span membership. Spans are
    // disjoint across groups, so a per-step scan suffices.
    for (const auto &group : groups) {
        Phase phase;
        phase.id = static_cast<int>(out.size());
        std::size_t index = 0;
        for (const auto &span : group.spans) {
            // Spans arrive in ascending step order per group.
            while (index < table.size() &&
                   table.stepId(index) < span.first_step)
                ++index;
            while (index < table.size() &&
                   table.stepId(index) <= span.last_step) {
                foldStep(phase, table, index, scratch);
                ++index;
            }
        }
        if (!phase.members.empty())
            out.push_back(std::move(phase));
    }
    return out;
}

std::vector<const Phase *>
phasesByDuration(const std::vector<Phase> &phases)
{
    std::vector<const Phase *> sorted;
    sorted.reserve(phases.size());
    for (const auto &phase : phases)
        sorted.push_back(&phase);
    std::sort(sorted.begin(), sorted.end(),
              [](const Phase *a, const Phase *b) {
                  return a->total_duration > b->total_duration;
              });
    return sorted;
}

double
topPhaseCoverage(const std::vector<Phase> &phases,
                 std::size_t top_n)
{
    SimTime total = 0;
    for (const auto &phase : phases)
        total += phase.total_duration;
    if (total == 0)
        return 0.0;
    const auto sorted = phasesByDuration(phases);
    SimTime covered = 0;
    for (std::size_t i = 0; i < sorted.size() && i < top_n; ++i)
        covered += sorted[i]->total_duration;
    return static_cast<double>(covered) /
        static_cast<double>(total);
}

const Phase *
longestPhase(const std::vector<Phase> &phases)
{
    const Phase *best = nullptr;
    for (const auto &phase : phases) {
        if (!best || phase.total_duration > best->total_duration)
            best = &phase;
    }
    return best;
}

std::vector<RankedOp>
topOps(OpStatsSpan ops, std::size_t n)
{
    SimTime total = 0;
    for (const ColumnarOpStats &entry : ops)
        total += entry.total_duration;

    const StringInterner &interner = StringInterner::global();
    std::vector<RankedOp> ranked;
    ranked.reserve(ops.size());
    for (const ColumnarOpStats &entry : ops) {
        RankedOp op;
        op.name = std::string(interner.view(entry.op));
        op.total_duration = entry.total_duration;
        op.count = entry.count;
        op.share = total
            ? static_cast<double>(entry.total_duration) /
                static_cast<double>(total)
            : 0.0;
        ranked.push_back(std::move(op));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedOp &a, const RankedOp &b) {
                  if (a.total_duration != b.total_duration)
                      return a.total_duration > b.total_duration;
                  return a.name < b.name;
              });
    if (ranked.size() > n)
        ranked.resize(n);
    return ranked;
}

} // namespace tpupoint
