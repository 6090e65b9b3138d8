/**
 * @file
 * Fig. 15 reproduction: SAVE speedup over the baseline on the
 * mixed-precision forward propagation of ResNet2_2, swept over
 * non-broadcasted (weight) and broadcasted (activation) sparsity at
 * 10% intervals, with (a) 2 VPUs @1.7GHz and (b) 1 VPU @2.1GHz.
 *
 * Point 0 is the dense baseline slice; every other point is one
 * (VPUs, NBS, BS) cell's SAVE time.
 */

#include "sweep/sweep.h"

namespace save {

namespace {

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    const KernelSpec spec = resnetKernel("resnet2_2b", Phase::Forward);
    std::vector<SweepPoint> out = {
        gemmTime("dense", SaveConfig::baseline(),
                 sliceFor(spec, Precision::Bf16, 0, 0, k), 2)};
    for (int vpus : {2, 1})
        for (int w : gridBins(k))
            for (int a : gridBins(k))
                out.push_back(gemmTime(
                    "vpus" + std::to_string(vpus) + "/w" +
                        std::to_string(w) + "/a" + std::to_string(a),
                    SaveConfig{},
                    sliceFor(spec, Precision::Bf16, a * 0.1, w * 0.1, k,
                             7 + static_cast<uint64_t>(w * 10 + a)),
                    vpus));
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    std::string out;
    size_t next = 1;
    for (int vpus : {2, 1}) {
        appendf(out, "=== Fig. 15%s: %d VPU(s) at %.1fGHz ===\n",
                vpus == 2 ? "a" : "b", vpus,
                MachineConfig{}.coreFreqGhz(vpus));
        appendf(out, "%8s", "NBS\\BS");
        for (int a : gridBins(k))
            appendf(out, " %5d%%", a * 10);
        for (int w : gridBins(k)) {
            appendf(out, "\n%7d%%", w * 10);
            for (size_t a = 0; a < gridBins(k).size(); ++a)
                appendf(out, " %6.2f", r[0][0] / r[next++][0]);
        }
        appendf(out, "\n\n");
    }
    appendf(out, "Paper: 2 VPUs cap ~1.49x (reached near 60%% of either "
                 "type); 1 VPU starts at 0.71x dense, reaches ~1.96x, "
                 "and beats 2 VPUs when either sparsity exceeds "
                 "~70%%.\n");
    return out;
}

} // namespace

extern const SweepSpec kFig15Sweep = {"fig15", {1}, 1, points, render};

} // namespace save
