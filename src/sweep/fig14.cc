/**
 * @file
 * Fig. 14 reproduction: whole-network inference and end-to-end
 * training time, normalized to the baseline (2 VPUs @1.7GHz, no
 * SAVE), for:
 *   (a) CNN inference   (b) GNMT inference
 *   (c) CNN training    (d) GNMT training
 * across {SAVE 2 VPUs, SAVE 1 VPU @2.1GHz, static, dynamic} in FP32
 * and mixed precision, with the paper's phase breakdown (first layer
 * split out; forward / backward-input / backward-weights).
 *
 * A point is one network evaluation of fig14Points() through the
 * session's estimator, packed as the 20 doubles of a NetResult; the
 * entry tables and every output format live in dnn/fig14_report.h.
 * --grid=1 reproduces the paper's full 10% sparsity sampling
 * (slower); the default --grid=3 samples every 30% and interpolates.
 */

#include "dnn/fig14_report.h"
#include "serve/session.h"
#include "sweep/sweep.h"

namespace save {

namespace {

PhaseBreakdown NetResult::*const kConfigs[] = {
    &NetResult::baseline2, &NetResult::save2, &NetResult::save1,
    &NetResult::saveStatic, &NetResult::saveDynamic};

std::vector<double>
pack(const NetResult &r)
{
    std::vector<double> v;
    for (PhaseBreakdown NetResult::*c : kConfigs)
        v.insert(v.end(), {(r.*c).firstLayer, (r.*c).forward,
                           (r.*c).bwdInput, (r.*c).bwdWeights});
    return v;
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    std::vector<SweepPoint> out;
    for (const Fig14Point &p : fig14Points())
        out.push_back({p.key, [&p, k](SimSession &s) {
                           TrainingEstimator &est = s.estimator(k);
                           return pack(
                               p.training
                                   ? est.training(p.entry.net, p.entry.prec)
                                   : est.inference(p.entry.net,
                                                   p.entry.prec));
                       }});
    return out;
}

std::string
render(const SweepKnobs &, const SweepResults &results)
{
    std::vector<NetResult> nets(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const double *v = results[i].data();
        for (PhaseBreakdown NetResult::*c : kConfigs) {
            nets[i].*c = {v[0], v[1], v[2], v[3]};
            v += 4;
        }
    }
    return fig14Report(nets);
}

} // namespace

extern const SweepSpec kFig14Sweep = {"fig14", {3}, 20, points, render};

} // namespace save
