#include "save/frequency.h"

#include <algorithm>
#include <cmath>
#include <limits>

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
    // A probe that failed for good (NaN time, 0 cycles, no counters)
    // measured nothing: NaN, which fails the point that reports it.
    if (std::isnan(r2.timeNs) || std::isnan(r1.timeNs))
        choice.vpuUtilization = std::numeric_limits<double>::quiet_NaN();
    else if (cycles > 0)
        choice.vpuUtilization = r2.stats.get("vpu_ops") / (2.0 * cycles);
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
