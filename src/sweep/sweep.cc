#include "sweep/sweep.h"

#include <cstdarg>
#include <cstdio>

#include "dnn/networks.h"
#include "serve/session.h"
#include "util/error.h"

namespace save {

extern const SweepSpec kTable1Sweep;
extern const SweepSpec kTable2Sweep;
extern const SweepSpec kTable3Sweep;
extern const SweepSpec kFig12Sweep;
extern const SweepSpec kFig13Sweep;
extern const SweepSpec kFig14Sweep;
extern const SweepSpec kFig15Sweep;
extern const SweepSpec kFig16Sweep;
extern const SweepSpec kFig17Sweep;
extern const SweepSpec kFig18Sweep;
extern const SweepSpec kFig19Sweep;
extern const SweepSpec kAblationRotationSweep;
extern const SweepSpec kAblationDvfsSweep;
extern const SweepSpec kAblationBcacheSweep;
extern const SweepSpec kSparsetrainSweep;
extern const SweepSpec kValidationSweep;
extern const SweepSpec kDirectconvSweep;

void
SweepKnobs::validate() const
{
    if (gridStep < 1 || gridStep > 9)
        throw ConfigError("gridStep must be in [1, 9] (got " +
                          std::to_string(gridStep) + ")");
    if (kSteps < 1)
        throw ConfigError("kSteps must be >= 1 (got " +
                          std::to_string(kSteps) + ")");
    if (tiles < 1)
        throw ConfigError("tiles must be >= 1 (got " +
                          std::to_string(tiles) + ")");
    if (cores < 1)
        throw ConfigError("cores must be >= 1 (got " +
                          std::to_string(cores) + ")");
}

const std::vector<const SweepSpec *> &
allSweeps()
{
    static const std::vector<const SweepSpec *> specs = {
        &kTable1Sweep,
        &kTable2Sweep,
        &kTable3Sweep,
        &kFig12Sweep,
        &kFig13Sweep,
        &kFig14Sweep,
        &kFig15Sweep,
        &kFig16Sweep,
        &kFig17Sweep,
        &kFig18Sweep,
        &kFig19Sweep,
        &kAblationRotationSweep,
        &kAblationDvfsSweep,
        &kAblationBcacheSweep,
        &kSparsetrainSweep,
        &kValidationSweep,
        &kDirectconvSweep,
    };
    return specs;
}

const SweepSpec &
findSweep(const std::string &name)
{
    std::string known;
    for (const SweepSpec *s : allSweeps()) {
        if (name == s->name)
            return *s;
        known += known.empty() ? "" : ", ";
        known += s->name;
    }
    throw ConfigError("unknown sweep '" + name + "' (known: " + known +
                      ")");
}

std::vector<std::string>
sweepKeys(const SweepSpec &spec, const SweepKnobs &knobs)
{
    std::vector<std::string> keys;
    for (SweepPoint &p : spec.points(knobs))
        keys.push_back(std::move(p.key));
    return keys;
}

std::vector<int>
gridBins(const SweepKnobs &knobs)
{
    std::vector<int> bins;
    for (int b = 0; b < 10; b += knobs.gridStep)
        bins.push_back(b);
    return bins;
}

KernelSpec
resnetKernel(const char *layer, Phase phase)
{
    const NetworkModel net = resnet50Pruned();
    return makeConvKernel(findConvLayer(net, layer), phase, net.batch);
}

SweepPoint
gemmTime(std::string key, const SaveConfig &scfg, const GemmConfig &g,
         int vpus)
{
    return {std::move(key), [=](SimSession &s) {
                return std::vector<double>{
                    s.runGemm({s.machine(), scfg, g, 1, vpus}).timeNs};
            }};
}

GemmConfig
sliceFor(const KernelSpec &spec, Precision prec, double bs, double nbs,
         const SweepKnobs &knobs, uint64_t seed)
{
    GemmConfig g = spec.slice(prec, bs, nbs, knobs.kSteps, seed);
    g.tiles = knobs.tiles;
    return g;
}

std::string
fmtPct(double s)
{
    std::string out;
    appendf(out, "%.0f%%", 100 * s);
    return out;
}

void
appendf(std::string &out, const char *fmt, ...)
{
    va_list ap, again;
    va_start(ap, fmt);
    va_copy(again, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n > 0) {
        const size_t at = out.size();
        out.resize(at + static_cast<size_t>(n) + 1);
        std::vsnprintf(out.data() + at, static_cast<size_t>(n) + 1, fmt,
                       again);
        out.resize(at + static_cast<size_t>(n));
    }
    va_end(again);
}

} // namespace save
