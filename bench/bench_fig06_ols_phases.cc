/**
 * @file
 * Figure 6: OLS phase counts for similarity thresholds 0%..100%.
 * The paper finds most workloads condense to ~3 phases at the 70%
 * threshold, with phase counts growing sharply above it; at 100%
 * most workloads still stay under 15 phases, except the
 * RetinaNet-COCO and ResNet-ImageNet workloads.
 */

#include <cstdio>

#include "analyzer/ols.hh"
#include "analyzer/step_table.hh"
#include "bench/common.hh"

using namespace tpupoint;

int
main()
{
    benchutil::banner("Figure 6: OLS phases vs similarity "
                      "threshold",
                      "Figure 6 + Observation 1");

    const double thresholds[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                 0.6, 0.7, 0.8, 0.9, 1.0};
    std::printf("%-16s", "threshold =");
    for (const double t : thresholds)
        std::printf(" %5.0f%%", 100.0 * t);
    std::printf("\n");

    for (const WorkloadId id : allWorkloads()) {
        const RuntimeWorkload w = benchutil::buildScaled(id);
        const auto run =
            benchutil::profiledRun(w, TpuGeneration::V2);
        const StepTable table =
            StepTable::fromRecords(run.records);

        std::printf("%-16s", workloadName(id));
        for (const double t : thresholds) {
            OnlineLinearScan ols(OlsOptions{t});
            for (std::size_t i = 0; i < table.size(); ++i)
                ols.addStep(table.stepId(i), table.span(i),
                            OnlineLinearScan::opKeys(
                                table.hostOps(i), table.tpuOps(i)));
            ols.finish();
            std::printf(" %6zu", ols.phases().size());
        }
        std::printf("\n");
    }
    std::printf("\nPaper: ~3 phases at the 70%% threshold for most "
                "workloads; counts grow significantly above 70%%.\n");
    return 0;
}
