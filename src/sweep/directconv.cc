/**
 * @file
 * Cross-validation of the kernel abstraction: the figure benches
 * model conv layers as im2col GEMM slices; here the same layer runs
 * as a true direct convolution (padded halos, strided broadcast
 * streams, kh x kw x ic loop nest) and the SAVE speedups are compared
 * across activation sparsity.
 *
 * Each kernel form's points start with its dense baseline, followed
 * by one SAVE time per BS bin. Direct-convolution points run on one
 * core's share of the machine, outside the result store.
 */

#include "dnn/networks.h"
#include "kernels/directconv.h"
#include "serve/session.h"
#include "sweep/sweep.h"

namespace save {

namespace {

ConvLayer
layer()
{
    ConvLayer l = findConvLayer(resnet50Pruned(), "resnet3_2b");
    l.ih = l.iw = 14; // a slice of the 28x28 plane
    return l;
}

/** Direct-convolution time (ns) of the layer at BS bin `a`. */
SweepPoint
directTime(std::string key, const SaveConfig &scfg, int a)
{
    return {std::move(key), [scfg, a](SimSession &s) {
                DirectConvConfig c;
                c.layer = layer();
                c.ohRows = 2;
                c.actSparsity = a * 0.1;
                c.seed = 500 + static_cast<uint64_t>(a);
                MemoryImage image;
                DirectConvWorkload w = buildDirectConv(c, image);
                return std::vector<double>{
                    Engine(s.machine(), scfg)
                        .runKernel(image, {std::move(w.trace)},
                                   w.warmRanges(), 2, 100'000'000)
                        .timeNs};
            }};
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    const KernelSpec spec = makeConvKernel(layer(), Phase::Forward,
                                           resnet50Pruned().batch);
    std::vector<SweepPoint> out = {
        directTime("direct/dense", SaveConfig::baseline(), 0)};
    for (int a : gridBins(k))
        out.push_back(
            directTime("direct/a" + std::to_string(a), SaveConfig{}, a));
    out.push_back(gemmTime("gemm/dense", SaveConfig::baseline(),
                           sliceFor(spec, Precision::Fp32, 0, 0, k), 2));
    for (int a : gridBins(k))
        out.push_back(gemmTime("gemm/a" + std::to_string(a), SaveConfig{},
                               sliceFor(spec, Precision::Fp32, a * 0.1, 0.0,
                                        k, 520 + static_cast<uint64_t>(a)),
                               2));
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    const ConvLayer l = layer();
    std::string out;
    appendf(out,
            "Direct convolution vs im2col-GEMM abstraction, "
            "%s (3x3, %d->%d channels), forward, 2 VPUs.\n"
            "SAVE speedup over the dense baseline, sweeping "
            "activation sparsity (weights dense):\n\n%-18s",
            l.name.c_str(), l.inC, l.outC, "BS");
    for (int a : gridBins(k))
        appendf(out, " %5d%%", a * 10);
    size_t next = 0;
    for (const char *label : {"direct conv", "im2col GEMM"}) {
        const double base = r[next++][0];
        appendf(out, "\n%-18s", label);
        for (size_t a = 0; a < gridBins(k).size(); ++a)
            appendf(out, " %5.2f", base / r[next++][0]);
    }
    appendf(out, "\n\nBoth kernel forms expose the same broadcast "
                 "sparsity to SAVE; the direct form adds padding-halo "
                 "zeros and strided broadcast streams, which the B$ "
                 "and the MGU handle identically.\n");
    return out;
}

} // namespace

extern const SweepSpec kDirectconvSweep = {
    "directconv", {2}, 1, points, render};

} // namespace save
