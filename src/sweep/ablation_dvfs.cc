/**
 * @file
 * Ablation: the paper's dynamic VPU-count selection (SecIV-D) via
 * performance-counter heuristics. For each sparsity point we compare
 * the counter heuristic's choice against the oracle (simulate both,
 * keep the faster), and report the time lost to wrong choices plus
 * the VPU energy saved by disabling a VPU at high sparsity.
 *
 * A point is one BS bin: the heuristic's utilization and choice, the
 * 2-VPU and 1-VPU times, and the VPU energy of 2 VPUs and of the
 * chosen count.
 */

#include "save/frequency.h"
#include "serve/session.h"
#include "sweep/sweep.h"

namespace save {

namespace {

KernelSpec
kernel()
{
    return resnetKernel("resnet2_2b", Phase::Forward);
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    std::vector<SweepPoint> out;
    for (int a : gridBins(k)) {
        const GemmConfig g = sliceFor(kernel(), Precision::Fp32, a * 0.1,
                                      0.0, k, 101 + static_cast<uint64_t>(a));
        std::string key;
        appendf(key, "a%d", a);
        out.push_back({key, [g](SimSession &s) {
                           auto run = [&s](const GemmConfig &x, int v) {
                               return s.runGemm(
                                   {s.machine(), SaveConfig{}, x, 1, v});
                           };
                           const GemmConfig p = vpuProbe(g);
                           const KernelResult p2 = run(p, 2);
                           const KernelResult p1 = run(p, 1);
                           const VpuChoice c = chooseVpusByCounters(p, p2, p1);
                           const KernelResult r2 = run(g, 2);
                           const KernelResult r1 = run(g, 1);
                           const VpuPowerModel power;
                           return std::vector<double>{
                               c.vpuUtilization,
                               static_cast<double>(c.vpus), r2.timeNs,
                               r1.timeNs, power.energy(r2, 2),
                               power.energy(c.vpus == 1 ? r1 : r2, c.vpus)};
                       }});
    }
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    std::string out;
    appendf(out,
            "Counter-driven VPU selection on %s, sweeping activation "
            "sparsity (weights dense):\n\n"
            "%-5s %-6s %-7s %-8s %-8s %-8s %-10s %s\n",
            kernel().name.c_str(), "BS", "util", "choice", "t2(us)",
            "t1(us)", "oracle", "heuristic", "VPU energy vs 2-VPU");
    int correct = 0;
    for (size_t i = 0; i < r.size(); ++i) {
        const std::vector<double> &p = r[i];
        const int vpus = static_cast<int>(p[1]);
        const int oracle = p[3] < p[2] ? 1 : 2;
        correct += vpus == oracle;
        appendf(out,
                "%3d%%  %5.2f  %d VPU   %8.2f %8.2f  %d VPU    "
                "%d VPU      %+5.1f%%\n",
                gridBins(k)[i] * 10, p[0], vpus, p[2] / 1000, p[3] / 1000,
                oracle, vpus, 100 * (p[5] - p[4]) / p[4]);
    }
    appendf(out,
            "\nheuristic agreement with oracle: %d/%zu points\n"
            "The heuristic needs one short probe run; the oracle needs "
            "both full configurations. Disabling a VPU cuts leakage "
            "roughly in half while the op count is unchanged.\n",
            correct, r.size());
    return out;
}

} // namespace

extern const SweepSpec kAblationDvfsSweep = {
    "ablation_dvfs", {2}, 6, points, render};

} // namespace save
