/**
 * @file
 * SweepSpec: one paper table or figure as data (DESIGN.md §16).
 *
 * Each of the seventeen reports is a spec: points(knobs) lists its
 * points in canonical order — a point's index is its wire index —
 * each with a stable key and a function computing it alone;
 * render(knobs, results) prints the whole report from the results in
 * point order. Points are independent and seeded, so who runs a
 * point, and when, never changes its value, and render is the only
 * printer: a sweep run in-process, sharded across daemons, or served
 * to `save-ctl` prints the same bytes. A report that simulates
 * nothing (tables I-III, Figs. 12-13) is a spec with no points.
 * ShardCoordinator (shard/coordinator.h) runs every spec, behind each
 * `bench_<name>` binary.
 */

#ifndef SAVE_SWEEP_SWEEP_H
#define SAVE_SWEEP_SWEEP_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "kernels/conv.h"

namespace save {

class SimSession;

/**
 * The five knobs every sweep takes; the member defaults are
 * `bench_fig14`'s, and each spec names its own (SweepSpec::defaults).
 * Threads and isolation belong to whoever runs the points.
 * Trivially copyable: travels as raw bytes in the serve protocol.
 */
struct SweepKnobs
{
    int32_t gridStep = 3;
    int32_t kSteps = 192;
    int32_t tiles = 6;
    int32_t cores = 1;
    uint64_t seed = 7;

    /** Throws ConfigError on a knob no sweep can run with (a grid
     *  stride outside [1, 9] never ends a grid loop).
     *  EstimatorOptions::validate makes the same check. */
    void validate() const;
};

/** The name perfbench uses for SweepKnobs. */
using Fig14Knobs = SweepKnobs;

/** One point: its key, and how to compute its `width` doubles. */
struct SweepPoint
{
    std::string key;
    std::function<std::vector<double>(SimSession &)> run;
};

/** One value list per point, in point order. */
using SweepResults = std::vector<std::vector<double>>;

struct SweepSpec
{
    /** `table1` ... `directconv`: the bench binary is bench_<name>. */
    const char *name;
    /** The knobs of a run that sets none. */
    SweepKnobs defaults;
    /** Doubles in one point's result (0 when there are no points). */
    size_t width;
    std::vector<SweepPoint> (*points)(const SweepKnobs &knobs);
    std::string (*render)(const SweepKnobs &knobs,
                          const SweepResults &results);
};

/** Every sweep, in the order the README lists the figures. */
const std::vector<const SweepSpec *> &allSweeps();

/** The sweep called `name`; throws ConfigError on an unknown name. */
const SweepSpec &findSweep(const std::string &name);

/** The keys of spec.points(knobs). */
std::vector<std::string> sweepKeys(const SweepSpec &spec,
                                   const SweepKnobs &knobs);

/** The 10% sparsity bins the grid stride visits: 0, step, ... < 10. */
std::vector<int> gridBins(const SweepKnobs &knobs);

/** Pruned ResNet-50 layer `layer`'s kernel in `phase`. */
KernelSpec resnetKernel(const char *layer, Phase phase);

/** Slice of `spec` for a one-off kernel sweep at the knobs' kSteps
 *  and tiles. */
GemmConfig sliceFor(const KernelSpec &spec, Precision prec, double bs,
                    double nbs, const SweepKnobs &knobs,
                    uint64_t seed = 7);

/** Point `key`: the time (ns) of slice `g` on `vpus` VPUs of the
 *  session's machine with features `scfg`, through the store. */
SweepPoint gemmTime(std::string key, const SaveConfig &scfg,
                    const GemmConfig &g, int vpus);

/** `s` as a whole percentage ("40%"). */
std::string fmtPct(double s);

/** printf onto the end of `out`. */
void appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace save

#endif // SAVE_SWEEP_SWEEP_H
