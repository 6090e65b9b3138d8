#include "save/frequency.h"

#include <algorithm>

namespace save {

GemmConfig
vpuProbe(const GemmConfig &cfg, int probe_fraction)
{
    GemmConfig probe = cfg;
    probe.kSteps = std::max(16, cfg.kSteps / probe_fraction);
    probe.tiles = std::max(1, cfg.tiles / 2);
    return probe;
}

VpuChoice
chooseVpusByCounters(const GemmConfig &probe, const KernelResult &r2,
                     const KernelResult &r1)
{
    VpuChoice choice;
    double cycles = static_cast<double>(r2.cycles);
    choice.vpuUtilization =
        cycles > 0 ? r2.stats.get("vpu_ops") / (2.0 * cycles) : 0.0;
    double total_lanes = static_cast<double>(probe.macs()) /
                         (probe.precision == Precision::Bf16 ? 2.0 : 1.0);
    double issued = r2.stats.get("coalesced_lanes") +
                    r2.stats.get("hc_lanes") +
                    16.0 * r2.stats.get("baseline_vfma_issues");
    choice.effectualFraction =
        total_lanes > 0 ? issued / total_lanes : 1.0;
    choice.vpus = r1.timeNs < r2.timeNs ? 1 : 2;
    return choice;
}

} // namespace save
