/** @file Synthetic step/record builders shared by analyzer tests. */

#ifndef TPUPOINT_TESTS_ANALYZER_SYNTHETIC_HH
#define TPUPOINT_TESTS_ANALYZER_SYNTHETIC_HH

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analyzer/ols.hh"
#include "proto/columnar.hh"

namespace tpupoint {
namespace testutil {

/**
 * One synthetic step row: the scalar columns of a ColumnarRecord
 * step plus its id-sorted host/TPU op runs (names interned in the
 * global interner).
 */
struct SyntheticStep
{
    StepId step = 0;
    SimTime begin = 0;
    SimTime end = 0;
    SimTime tpu_busy = 0;
    SimTime tpu_idle = 0;
    SimTime mxu_active = 0;
    std::vector<ColumnarOpStats> host_ops;
    std::vector<ColumnarOpStats> tpu_ops;

    SimTime span() const { return end > begin ? end - begin : 0; }

    /** The step's sorted OLS operator keys. */
    std::vector<std::uint64_t>
    keys() const
    {
        return OnlineLinearScan::opKeys(host_ops, tpu_ops);
    }
};

/** Id-sorted op run: one entry per name, interned globally. */
inline std::vector<ColumnarOpStats>
opRun(const std::vector<std::pair<std::string, ColumnarOpStats>>
          &named)
{
    std::vector<ColumnarOpStats> run;
    for (const auto &[name, stats] : named) {
        ColumnarOpStats entry = stats;
        entry.op = StringInterner::global().intern(name);
        run.push_back(entry);
    }
    std::sort(run.begin(), run.end(),
              [](const ColumnarOpStats &a, const ColumnarOpStats &b) {
                  return a.op < b.op;
              });
    return run;
}

/** The entry named @p name in @p ops, or nullptr. */
inline const ColumnarOpStats *
findOp(OpStatsSpan ops, std::string_view name)
{
    std::uint32_t id = 0;
    if (!StringInterner::global().lookup(name, id))
        return nullptr;
    for (const ColumnarOpStats &entry : ops)
        if (entry.op == id)
            return &entry;
    return nullptr;
}

/**
 * Build one step with the given TPU op labels (each one
 * invocation of 10us-ish) and a step span of @p span.
 */
inline SyntheticStep
makeStep(StepId step, const std::vector<std::string> &tpu_ops,
         const std::vector<std::string> &host_ops = {},
         SimTime span = 100 * kUsec)
{
    SyntheticStep s;
    s.step = step;
    s.begin = static_cast<SimTime>(step) * span;
    s.end = s.begin + span;
    // Earlier-listed ops are the most time-consuming, so the
    // first label (e.g. "fusion") tops the phase rankings.
    SimTime weight = static_cast<SimTime>(tpu_ops.size());
    std::vector<std::pair<std::string, ColumnarOpStats>> tpu, host;
    for (const auto &name : tpu_ops) {
        tpu.push_back({name, {0, 1, 10 * kUsec * weight}});
        s.tpu_busy += 10 * kUsec * weight;
        --weight;
    }
    for (const auto &name : host_ops)
        host.push_back({name, {0, 1, 5 * kUsec}});
    s.tpu_ops = opRun(tpu);
    s.host_ops = opRun(host);
    return s;
}

/** Wrap steps (ascending) into a single profile record. */
inline ColumnarRecord
makeRecord(const std::vector<SyntheticStep> &steps,
           std::uint64_t seq = 0)
{
    ColumnarRecord record;
    record.sequence = seq;
    if (!steps.empty()) {
        record.window_begin = steps.front().begin;
        record.window_end = steps.back().end;
    }
    for (const auto &s : steps) {
        record.event_count += s.tpu_ops.size() + s.host_ops.size();
        record.appendStep(s.step, s.begin, s.end, s.tpu_busy,
                          s.tpu_idle, s.mxu_active, s.host_ops,
                          s.tpu_ops);
    }
    return record;
}

/**
 * A canonical three-phase run: init step, N train steps, M eval
 * steps, then N more train steps — the structure TPUPoint's
 * workloads exhibit.
 */
inline std::vector<SyntheticStep>
threePhaseRun(std::size_t train_steps = 40,
              std::size_t eval_steps = 8)
{
    const std::vector<std::string> init_ops{};
    const std::vector<std::string> init_host{
        "InitializeHostForDistributedTpu", "StartProgram",
        "RestoreV2"};
    const std::vector<std::string> train_ops{
        "fusion", "MatMul", "Reshape", "Conv2DBackpropFilter",
        "Conv2DBackpropInput", "all-reduce",
        "InfeedDequeueTuple", "OutfeedEnqueueTuple"};
    const std::vector<std::string> train_host{
        "OutfeedDequeueTuple", "TransferBufferToInfeedLocked",
        "Recv", "LinearizeX32"};
    const std::vector<std::string> eval_ops{
        "fusion", "MatMul", "Reshape", "ArgMax", "Equal",
        "Squeeze", "InfeedDequeueTuple", "OutfeedEnqueueTuple"};
    const std::vector<std::string> eval_host{
        "OutfeedDequeueTuple", "TransferBufferToInfeedLocked",
        "ArgMax", "Equal", "Mean", "ConcatV2", "Squeeze"};

    std::vector<SyntheticStep> steps;
    StepId id = 0;
    steps.push_back(makeStep(id++, init_ops, init_host,
                             5000 * kUsec));
    for (std::size_t i = 0; i < train_steps; ++i)
        steps.push_back(makeStep(id++, train_ops, train_host));
    for (std::size_t i = 0; i < eval_steps; ++i)
        steps.push_back(makeStep(id++, eval_ops, eval_host,
                                 60 * kUsec));
    for (std::size_t i = 0; i < train_steps; ++i)
        steps.push_back(makeStep(id++, train_ops, train_host));
    return steps;
}

} // namespace testutil
} // namespace tpupoint

#endif // TPUPOINT_TESTS_ANALYZER_SYNTHETIC_HH
