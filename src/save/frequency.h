/**
 * @file
 * Power saving and frequency boosting (paper SecIV-D).
 *
 * At high sparsity there are not enough effectual lanes to keep both
 * VPUs busy, so SAVE can disable one VPU and let the power manager
 * raise the core clock (1.7GHz with 2 VPUs -> 2.1GHz with 1). The
 * paper selects the VPU count "either statically through control
 * registers, or dynamically through heuristics from performance
 * counters"; this module provides that counter heuristic plus a
 * relative VPU energy model.
 */

#ifndef SAVE_SAVE_FREQUENCY_H
#define SAVE_SAVE_FREQUENCY_H

#include "engine/engine.h"

namespace save {

/** Relative VPU energy model (arbitrary units; 1.0 = one 512-bit op). */
struct VpuPowerModel
{
    /** Dynamic energy per issued 512-bit VPU operation. */
    double opEnergy = 1.0;
    /** Static leakage per active VPU per core cycle. */
    double leakPerVpuCycle = 0.02;

    /** Total VPU energy of a finished run. */
    double
    energy(const KernelResult &r, int active_vpus) const
    {
        return r.stats.get("vpu_ops") * opEnergy +
               static_cast<double>(r.cycles) * active_vpus *
                   leakPerVpuCycle;
    }
};

/** Outcome of the performance-counter heuristic. */
struct VpuChoice
{
    /** Chosen VPU count (1 or 2). */
    int vpus = 2;
    /** Measured fraction of cycles each VPU issued an op. */
    double vpuUtilization = 0.0;
    /** Measured effectual-lane density (issued / total MAC lanes). */
    double effectualFraction = 1.0;
};

/**
 * The paper's dynamic selection via performance counters, realized as
 * two-phase sampling: run a shortened probe of the kernel in each VPU
 * configuration (a few microseconds each, as a DVFS governor would),
 * compare wall times, and lock in the faster one. Pure utilization
 * thresholds misfire on kernels whose 1-VPU slowdown comes from
 * halved per-lane coalescing capacity rather than raw op throughput;
 * sampling sees the real effect.
 *
 * vpuProbe is the probe of `cfg`: `1/probe_fraction` of its K depth
 * (at least 16 steps) and half its tiles. The caller runs it on one
 * core of the SAVE machine with 2 VPUs (`r2`) and with 1 (`r1`) — a
 * sweep point through its session, so the probes are memoized like
 * any slice — and chooseVpusByCounters picks from the two runs,
 * reading its counters from the 2-VPU one. A probe that failed (NaN
 * time) leaves the utilization NaN.
 */
GemmConfig vpuProbe(const GemmConfig &cfg, int probe_fraction = 4);

VpuChoice chooseVpusByCounters(const GemmConfig &probe,
                               const KernelResult &r2,
                               const KernelResult &r1);

} // namespace save

#endif // SAVE_SAVE_FREQUENCY_H
