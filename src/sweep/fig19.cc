/**
 * @file
 * Fig. 19 reproduction: SAVE's mixed-precision multiplicand-lane
 * compression (SecV) on the MP back-propagation of input of
 * ResNet4_1a, with 1 VPU, swept over non-broadcasted sparsity.
 * Speedups are over the 2-VPU baseline.
 *
 * Point 0 is the dense baseline slice, then one SAVE time per NBS bin
 * without the technique, then one per bin with it.
 */

#include "sweep/sweep.h"

namespace save {

namespace {

KernelSpec
kernel()
{
    return resnetKernel("resnet4_1a", Phase::BwdInput);
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    const KernelSpec spec = kernel();
    std::vector<SweepPoint> out = {
        gemmTime("dense", SaveConfig::baseline(),
                 sliceFor(spec, Precision::Bf16, 0, 0, k), 2)};
    for (bool mp : {false, true})
        for (int w : gridBins(k)) {
            SaveConfig s;
            s.mpCompress = mp;
            out.push_back(gemmTime(
                std::string(mp ? "mp" : "nomp") + "/w" + std::to_string(w),
                s,
                sliceFor(spec, Precision::Bf16, 0.0, w * 0.1, k,
                         71 + static_cast<uint64_t>(w)),
                1));
        }
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    const KernelSpec spec = kernel();
    std::string out;
    appendf(out, "kernel %s: %dx%d mixed precision\n\n%-18s",
            spec.name.c_str(), spec.shape.mr, spec.shape.nrVecs * 16,
            "NBS");
    for (int w : gridBins(k))
        appendf(out, " %5d%%", w * 10);
    size_t next = 1;
    for (const char *label : {"w/o MP technique", "w/ MP technique"}) {
        appendf(out, "\n%-18s", label);
        for (size_t w = 0; w < gridBins(k).size(); ++w)
            appendf(out, " %6.2f", r[0][0] / r[next++][0]);
    }
    appendf(out, "\n\nPaper: the MP technique improves speedup at every "
                 "sparsity level, sometimes substantially (exploitable "
                 "sparsity without it is only the square of the ML "
                 "sparsity).\n");
    return out;
}

} // namespace

extern const SweepSpec kFig19Sweep = {"fig19", {1}, 1, points, render};

} // namespace save
