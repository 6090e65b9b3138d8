/**
 * @file
 * Fig. 17 reproduction: broadcast-cache designs on an
 * embedded-broadcast kernel — the FP32 back-propagation of weights of
 * ResNet3_2 with 2 VPUs — at 0% and 40% broadcasted sparsity, swept
 * over non-broadcasted sparsity.
 *
 * Point 0 is the dense baseline slice; every other point is one
 * (BS, design, NBS) cell's SAVE time.
 */

#include "sweep/sweep.h"

namespace save {

namespace {

struct Design
{
    BcastCacheKind kind;
    const char *label;
};

const Design kDesigns[] = {
    {BcastCacheKind::None, "No B$"},
    {BcastCacheKind::Mask, "B$ w/ masks"},
    {BcastCacheKind::Data, "B$ w/ data"},
};

KernelSpec
kernel()
{
    return resnetKernel("resnet3_2b", Phase::BwdWeights);
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    const KernelSpec spec = kernel();
    std::vector<SweepPoint> out = {
        gemmTime("dense", SaveConfig::baseline(),
                 sliceFor(spec, Precision::Fp32, 0, 0, k), 2)};
    for (double bs : {0.0, 0.4})
        for (const Design &d : kDesigns)
            for (int w : gridBins(k)) {
                SaveConfig s;
                s.bcache = d.kind;
                out.push_back(gemmTime(
                    "bs" + std::to_string(bs) + "/bc" +
                        std::to_string(static_cast<int>(d.kind)) + "/w" +
                        std::to_string(w),
                    s,
                    sliceFor(spec, Precision::Fp32, bs, w * 0.1, k,
                             31 + static_cast<uint64_t>(w)),
                    2));
            }
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    const KernelSpec spec = kernel();
    std::string out;
    appendf(out, "kernel %s: %dx%d %s\n\n", spec.name.c_str(),
            spec.shape.mr, spec.shape.nrVecs * 16,
            spec.shape.pattern == BroadcastPattern::Embedded
                ? "embedded-broadcast"
                : "explicit-broadcast");
    size_t next = 1;
    for (double bs : {0.0, 0.4}) {
        appendf(out, "BS = %s:\n%-13s", fmtPct(bs).c_str(), "NBS");
        for (int w : gridBins(k))
            appendf(out, " %5d%%", w * 10);
        for (const Design &d : kDesigns) {
            appendf(out, "\n%-13s", d.label);
            for (size_t w = 0; w < gridBins(k).size(); ++w)
                appendf(out, " %6.2f", r[0][0] / r[next++][0]);
        }
        appendf(out, "\n\n");
    }
    appendf(out, "Paper: without a B$ there is no speedup at any "
                 "sparsity; the data design keeps gaining with NBS "
                 "while the mask design is limited by L1 bandwidth on "
                 "non-zero broadcasts.\n");
    return out;
}

} // namespace

extern const SweepSpec kFig17Sweep = {"fig17", {1}, 1, points, render};

} // namespace save
