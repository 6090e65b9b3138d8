/**
 * @file
 * Comparison with the software state of the art (paper SecVIII):
 * SparseTrain-style software skipping exploits only broadcasted
 * sparsity; SAVE exploits both kinds in hardware and composes with
 * the software scheme. Speedups over the dense baseline on an
 * explicit-broadcast forward kernel, 2 VPUs.
 *
 * Point 0 is the dense baseline; then each row's time per BS bin;
 * then the two NBS-check runs. Every point runs on one core's share
 * of the machine, outside the result store: SparseTrain's kernels
 * are transformed traces, not GEMM slices.
 */

#include "kernels/sparsetrain.h"
#include "serve/session.h"
#include "sweep/sweep.h"

namespace save {

namespace {

/** A report row: the kernel it times and the machine it runs on. */
struct Row
{
    const char *key;
    const char *label;
    bool sw;   // SparseTrain trace transform
    bool save; // SAVE hardware
};

constexpr Row kRows[] = {
    {"sw", "software only", true, false},
    {"save", "SAVE only", false, true},
    {"both", "SAVE + software", true, true},
};

GemmConfig
denseConfig(const SweepKnobs &k)
{
    GemmConfig g;
    g.mr = 4;
    g.nrVecs = 6;
    g.kSteps = k.kSteps;
    g.tiles = k.tiles;
    return g;
}

/** Point `key`: the time (ns) of `g`, software-skipped when `sw`, on
 *  SAVE when `save`. */
SweepPoint
timed(std::string key, const GemmConfig &g, bool sw, bool save)
{
    return {std::move(key), [g, sw, save](SimSession &s) {
                MemoryImage image;
                GemmWorkload w = sw ? buildSparseTrainGemm(g, image)
                                    : buildGemm(g, image);
                return std::vector<double>{
                    Engine(s.machine(),
                           save ? SaveConfig{} : SaveConfig::baseline())
                        .runKernel(image, {std::move(w.trace)},
                                   w.warmRanges(), 2, 100'000'000)
                        .timeNs};
            }};
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    std::vector<SweepPoint> out = {
        timed("dense", denseConfig(k), false, false)};
    for (const Row &row : kRows)
        for (int a : gridBins(k)) {
            GemmConfig g = denseConfig(k);
            g.bsSparsity = a * 0.1;
            g.seed = 300 + static_cast<uint64_t>(a);
            out.push_back(timed(std::string(row.key) + "/a" +
                                    std::to_string(a),
                                g, row.sw, row.save));
        }
    GemmConfig nbs = denseConfig(k);
    nbs.nbsSparsity = 0.6;
    out.push_back(timed("nbs/sw", nbs, true, false));
    out.push_back(timed("nbs/save", nbs, false, true));
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    const GemmConfig g = denseConfig(k);
    std::string out;
    appendf(out,
            "Software (SparseTrain-style) vs hardware (SAVE) "
            "sparsity skipping, %dx%d explicit kernel, 2 VPUs.\n"
            "Speedup over the dense baseline; BS = broadcast "
            "(activation) sparsity, weights dense.\n\n",
            g.mr, g.nrVecs * 16);
    appendf(out, "%-22s", "BS");
    for (int a : gridBins(k))
        appendf(out, " %5d%%", a * 10);
    appendf(out, "\n");

    const double t_base = r[0][0];
    size_t next = 1;
    for (const Row &row : kRows) {
        appendf(out, "%-22s", row.label);
        for (size_t a = 0; a < gridBins(k).size(); ++a)
            appendf(out, " %5.2f", t_base / r[next++][0]);
        appendf(out, "\n");
    }

    appendf(out, "\nNBS column check (60%% weight sparsity, BS=0): "
                 "software cannot exploit it, SAVE can.\n");
    appendf(out, "  software only: %.2fx   SAVE only: %.2fx\n",
            t_base / r[next][0], t_base / r[next + 1][0]);
    appendf(out, "\nPaper SecVIII: \"SparseTrain only leverages "
                 "broadcasted sparsity while SAVE exploits both "
                 "broadcasted and non-broadcasted sparsity.\"\n");
    return out;
}

} // namespace

extern const SweepSpec kSparsetrainSweep = {"sparsetrain", {1}, 1, points,
                                            render};

} // namespace save
