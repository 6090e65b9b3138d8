/**
 * @file
 * Fig. 18 reproduction: VPU lane load-balancing techniques — VC, RVC,
 * VC+LWD, RVC+LWD, and the impractical HC reference — on the two
 * paper kernels: the FP32 back-propagation of input of ResNet3_2
 * (28 accumulators, full B reuse, effective CW ~ 1) and of ResNet5_1a
 * (21 accumulators, B reuse 7, effective CW ~ 3), with 1 VPU and
 * non-broadcasted sparsity only. Speedups are over the 2-VPU
 * baseline.
 *
 * Each layer's points start with its dense baseline slice, followed
 * by one SAVE time per (variant, NBS) cell.
 */

#include "sweep/sweep.h"

namespace save {

namespace {

struct Variant
{
    SchedPolicy policy;
    bool lwd;
    const char *label;
};

const Variant kVariants[] = {
    {SchedPolicy::VC, false, "VC"},
    {SchedPolicy::RVC, false, "RVC"},
    {SchedPolicy::VC, true, "VC+LWD"},
    {SchedPolicy::RVC, true, "RVC+LWD"},
    {SchedPolicy::HC, true, "HC"},
};

const char *const kLayers[] = {"resnet3_2b", "resnet5_1a"};

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    std::vector<SweepPoint> out;
    for (const char *layer : kLayers) {
        const KernelSpec spec = resnetKernel(layer, Phase::BwdInput);
        out.push_back(gemmTime(std::string(layer) + "/dense",
                               SaveConfig::baseline(),
                               sliceFor(spec, Precision::Fp32, 0, 0, k),
                               2));
        for (const Variant &v : kVariants)
            for (int w : gridBins(k)) {
                SaveConfig s;
                s.policy = v.policy;
                s.laneWiseDep = v.lwd;
                out.push_back(gemmTime(
                    std::string(layer) + "/pol" +
                        std::to_string(static_cast<int>(v.policy)) +
                        "/lwd" + std::to_string(v.lwd ? 1 : 0) + "/w" +
                        std::to_string(w),
                    s,
                    sliceFor(spec, Precision::Fp32, 0.0, w * 0.1, k,
                             53 + static_cast<uint64_t>(w)),
                    1));
            }
    }
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    std::string out;
    size_t next = 0;
    for (const char *layer : kLayers) {
        const KernelSpec spec = resnetKernel(layer, Phase::BwdInput);
        appendf(out, "=== %s: %dx%d, effective CW ~ %d ===\n%-9s",
                spec.name.c_str(), spec.shape.mr,
                spec.shape.nrVecs * 16,
                spec.shape.mr * spec.shape.nrVecs / spec.shape.mr, "NBS");
        const double base = r[next++][0];
        for (int w : gridBins(k))
            appendf(out, " %5d%%", w * 10);
        for (const Variant &v : kVariants) {
            appendf(out, "\n%-9s", v.label);
            for (size_t w = 0; w < gridBins(k).size(); ++w)
                appendf(out, " %6.2f", base / r[next++][0]);
        }
        appendf(out, "\n\n");
    }
    appendf(out, "Paper: with CW~1, plain VC suffers badly and RVC "
                 "recovers; with CW~3, VC+LWD catches up to RVC; "
                 "RVC+LWD is best everywhere and close to HC.\n");
    return out;
}

} // namespace

extern const SweepSpec kFig18Sweep = {"fig18", {1}, 1, points, render};

} // namespace save
