/**
 * @file
 * Methodology validation (DESIGN.md substitution 5): the figure
 * benches estimate layer time as steady-state-slice time x MAC scale,
 * with the B panel pre-warmed into L3. Here we simulate complete
 * cache-blocked layer GEMMs — cold B, real panel loop, real store
 * traffic — and compare against the slice extrapolation, for the
 * baseline and for SAVE.
 *
 * --ksteps and --tiles shape the full layer; the slice keeps the
 * estimator's 6 tiles. Each NBS level has four points: the layer on
 * the baseline and on SAVE, then the slice on each, all on one core's
 * share of the machine and outside the result store.
 */

#include "serve/session.h"
#include "sweep/sweep.h"

namespace save {

namespace {

/** N panels of the full layer. */
constexpr int kPanels = 8;
/** M tiles of the slice. */
constexpr int kSliceTiles = 6;

constexpr double kNbs[] = {0.0, 0.5, 0.8};

GemmConfig
layerConfig(const SweepKnobs &k, double nbs)
{
    GemmConfig g;
    g.mr = 7;
    g.nrVecs = 3;
    g.kSteps = k.kSteps;
    g.tiles = k.tiles;
    g.pattern = BroadcastPattern::Embedded;
    g.nbsSparsity = nbs;
    g.seed = 400 + static_cast<uint64_t>(nbs * 10);
    return g;
}

/** Point `key`: the time (ns) of layer `g` on features `scfg`, as the
 *  whole blocked layer with only A warm (`full`), or as the slice. */
SweepPoint
timed(std::string key, const GemmConfig &g, bool full,
      const SaveConfig &scfg)
{
    return {std::move(key), [g, full, scfg](SimSession &s) {
                MemoryImage image;
                GemmConfig slice = g;
                slice.tiles = kSliceTiles;
                GemmWorkload w = full ? buildBlockedGemm(g, kPanels, image)
                                      : buildGemm(slice, image);
                // Paper warm-up: A (the producing phase's output) is
                // hot in L3; B is only pre-warmed for the slices.
                const WarmRanges warm =
                    full ? WarmRanges{{w.aBase, w.aBytes}} : w.warmRanges();
                return std::vector<double>{
                    Engine(s.machine(), scfg)
                        .runKernel(image, {std::move(w.trace)}, warm, 2,
                                   1'000'000'000)
                        .timeNs};
            }};
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    std::vector<SweepPoint> out;
    for (double nbs : kNbs) {
        const GemmConfig g = layerConfig(k, nbs);
        std::string at;
        appendf(at, "nbs%.0f/", 100 * nbs);
        out.push_back(timed(at + "full/base", g, true,
                            SaveConfig::baseline()));
        out.push_back(timed(at + "full/save", g, true, SaveConfig{}));
        out.push_back(timed(at + "slice/base", g, false,
                            SaveConfig::baseline()));
        out.push_back(timed(at + "slice/save", g, false, SaveConfig{}));
    }
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    std::string out;
    appendf(out, "Slice-extrapolation vs full blocked-layer "
                 "simulation (7x48 embedded kernel, one core's share "
                 "of the machine).\n\n");
    appendf(out,
            "full layer: %d N-panels x %d M-tiles x %d K steps "
            "(B cold, %d KB streamed)\n\n",
            kPanels, k.tiles, k.kSteps, kPanels * k.kSteps * 3 * 64 / 1024);
    appendf(out, "%-8s %-10s %-12s %-12s %-8s %-10s\n", "NBS", "config",
            "full(us)", "slice est.", "error", "speedup f/s");

    // The slice's time scaled by the layer's MACs over the slice's.
    const double scale = static_cast<double>(kPanels) *
                         static_cast<double>(k.tiles) / kSliceTiles;
    size_t next = 0;
    for (double nbs : kNbs) {
        const double full_base = r[next][0];
        const double full_save = r[next + 1][0];
        const double est_base = scale * r[next + 2][0];
        const double est_save = scale * r[next + 3][0];
        next += 4;

        auto row = [&](const char *cfg, double full, double est) {
            appendf(out, "%5.0f%%   %-10s %10.1f %12.1f %6.1f%%\n",
                    100 * nbs, cfg, full / 1000, est / 1000,
                    100 * (est - full) / full);
        };
        row("baseline", full_base, est_base);
        row("SAVE", full_save, est_save);
        appendf(out, "%-8s %-10s full %.2fx   slice-est %.2fx\n\n", "",
                "speedup", full_base / full_save, est_base / est_save);
    }
    appendf(out, "The reproduction target is the speedup ratio; the "
                 "slice method's absolute-time error reflects the cold "
                 "weight streaming it deliberately amortizes away.\n");
    return out;
}

} // namespace

extern const SweepSpec kValidationSweep = {"validation", {3, 128, 24}, 1,
                                           points, render};

} // namespace save
