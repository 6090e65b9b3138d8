/**
 * @file
 * Ablation: Broadcast Cache sizing. The paper argues 32 entries (one
 * per architectural vector register, bounding the accumulation
 * buffers) with 4 read ports gives >90% hit rates on all kernels. We
 * sweep entries and ports on an embedded-broadcast kernel.
 *
 * Every point is a B$ hit rate and a time: point 0 is the baseline
 * run of the same slice (hit rate 0), every other point one (layout,
 * entries, ports) design.
 */

#include "serve/session.h"
#include "sweep/sweep.h"

namespace save {

namespace {

const ALayout kLayouts[] = {ALayout::PackedKMajor, ALayout::RowMajor};
const int kEntries[] = {4, 8, 16, 32, 64};
const int kPorts[] = {2, 4};

KernelSpec
kernel()
{
    return resnetKernel("resnet3_2b", Phase::BwdWeights);
}

const char *
layoutName(ALayout layout)
{
    return layout == ALayout::PackedKMajor ? "packed" : "rowmaj";
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    const GemmConfig g = sliceFor(kernel(), Precision::Fp32, 0.2, 0.5, k);
    std::vector<SweepPoint> out = {{"baseline", [g](SimSession &s) {
        return std::vector<double>{
            0.0,
            s.runGemm({s.machine(), SaveConfig::baseline(), g, 1, 2}).timeNs};
    }}};
    for (ALayout layout : kLayouts)
        for (int entries : kEntries)
            for (int ports : kPorts) {
                GemmConfig gl = g;
                gl.aLayout = layout;
                out.push_back(
                    {std::string(layoutName(layout)) + "/e" +
                         std::to_string(entries) + "/p" +
                         std::to_string(ports),
                     [gl, entries, ports](SimSession &s) {
                         MachineConfig m = s.machine();
                         m.bcacheEntries = entries;
                         m.bcachePorts = ports;
                         const KernelResult r =
                             s.runGemm({m, SaveConfig{}, gl, 1, 2});
                         return std::vector<double>{
                             r.stats.get("bcache_hit_rate"), r.timeNs};
                     }});
            }
    return out;
}

std::string
render(const SweepKnobs &, const SweepResults &r)
{
    std::string out;
    appendf(out,
            "B$ sizing on %s (embedded broadcast, BS=20%% NBS=50%%), "
            "data design, 2 VPUs:\n\n%-8s %-7s %-6s %-9s %s\n",
            kernel().name.c_str(), "layout", "entries", "ports",
            "hit rate", "speedup over baseline");
    size_t next = 1;
    for (ALayout layout : kLayouts)
        for (int entries : kEntries)
            for (int ports : kPorts) {
                const std::vector<double> &p = r[next++];
                appendf(out, "%-8s %-7d %-6d %7.1f%%  %6.2fx\n",
                        layoutName(layout), entries, ports, 100 * p[0],
                        r[0][1] / p[1]);
            }
    appendf(out, "\nPaper: 32 direct-mapped entries suffice (>90%% hit "
                 "rate) because the accumulation buffers bound the "
                 "live broadcast lines; 4 ports cover the VFMA "
                 "throughput. With the DNNL packed panel even a tiny "
                 "B$ hits; an unpacked row-major panel conflicts in a "
                 "direct-mapped B$ at any size — the locality the "
                 "paper's design exploits is created by the kernel's "
                 "data layout.\n");
    return out;
}

} // namespace

extern const SweepSpec kAblationBcacheSweep = {"ablation_bcache", 1, 2,
                                               points, render};

} // namespace save
