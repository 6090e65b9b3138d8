/**
 * @file
 * Fig. 16 reproduction: histogram of per-kernel speedup caps across
 * the paper's 93 studied kernels (VGG16 + ResNet-50 conv layers and
 * GNMT LSTM cells), for FP32 / mixed precision with 2 VPUs or 1 VPU.
 *
 * A kernel's cap is its speedup over the baseline at saturating
 * sparsity (90% of both kinds), the asymptote of Fig. 15. Kernels
 * that share a slice shape share a point, so a point is one unique
 * (shape, K steps, precision, VPUs) cap.
 */

#include <cmath>
#include <map>
#include <set>

#include "dnn/networks.h"
#include "serve/session.h"
#include "stats/stats.h"
#include "sweep/sweep.h"

namespace save {

namespace {

struct Config
{
    Precision prec;
    int vpus;
    const char *label;
};

const Config kConfigs[] = {
    {Precision::Fp32, 2, "FP32 2 VPUs"},
    {Precision::Fp32, 1, "FP32 1 VPU"},
    {Precision::Bf16, 2, "MP 2 VPUs"},
    {Precision::Bf16, 1, "MP 1 VPU"},
};

const std::vector<KernelSpec> &
kernels()
{
    static const std::vector<KernelSpec> k = allStudiedKernels();
    return k;
}

/** The point key of a kernel's cap: its slice shape and config. */
std::string
capKey(const KernelSpec &spec, const Config &cfg, const SweepKnobs &k)
{
    const GemmConfig g = sliceFor(spec, cfg.prec, 0.9, 0.9, k);
    return "mr" + std::to_string(g.mr) + "/nr" +
           std::to_string(g.nrVecs) + "/ks" + std::to_string(g.kSteps) +
           "/pat" +
           std::to_string(static_cast<int>(g.pattern)) + "/prec" +
           std::to_string(static_cast<int>(cfg.prec)) + "/vpus" +
           std::to_string(cfg.vpus);
}

std::vector<SweepPoint>
points(const SweepKnobs &k)
{
    std::vector<SweepPoint> out;
    std::set<std::string> seen;
    for (const Config &cfg : kConfigs)
        for (const KernelSpec &spec : kernels()) {
            std::string key = capKey(spec, cfg, k);
            if (!seen.insert(key).second)
                continue;
            const GemmConfig g = sliceFor(spec, cfg.prec, 0.9, 0.9, k);
            out.push_back({key, [g, vpus = cfg.vpus](SimSession &s) {
                               GemmConfig dense = g;
                               dense.bsSparsity = dense.nbsSparsity = 0.0;
                               return std::vector<double>{speedup(
                                   s.runGemm({s.machine(),
                                              SaveConfig::baseline(), dense,
                                              1, 2}),
                                   s.runGemm({s.machine(), SaveConfig{}, g,
                                              1, vpus}))};
                           }});
        }
    return out;
}

std::string
render(const SweepKnobs &k, const SweepResults &r)
{
    std::map<std::string, double> cap;
    const std::vector<SweepPoint> pts = points(k);
    for (size_t i = 0; i < pts.size(); ++i)
        cap[pts[i].key] = r[i][0];

    std::string out;
    appendf(out,
            "studied kernels: %zu (13 VGG16 + 53 ResNet-50 conv, "
            "27 GNMT cells)\n\n",
            kernels().size());
    const std::vector<double> edges{1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 99.0};
    for (const Config &cfg : kConfigs) {
        Histogram conv_h(edges), lstm_h(edges);
        double log_sum = 0;
        for (const KernelSpec &spec : kernels()) {
            const double s = cap.at(capKey(spec, cfg, k));
            (spec.name.rfind("gnmt", 0) == 0 ? lstm_h : conv_h).sample(s);
            log_sum += std::log(s);
        }
        appendf(out, "%s  (geomean cap %.2fx)\n", cfg.label,
                std::exp(log_sum / kernels().size()));
        for (int b = 0; b < conv_h.bucketCount(); ++b)
            appendf(out, "  %-9s conv: %2lu  lstm: %2lu\n",
                    (b == conv_h.bucketCount() - 1
                         ? ">2.0x"
                         : (conv_h.bucketLabel(b) + "x").c_str()),
                    static_cast<unsigned long>(conv_h.count(b)),
                    static_cast<unsigned long>(lstm_h.count(b)));
        appendf(out, "\n");
    }
    appendf(out, "Paper geomean caps: FP32 1.39x (2 VPUs) / 1.62x "
                 "(1 VPU); MP 1.48x / 1.77x.\n");
    return out;
}

} // namespace

extern const SweepSpec kFig16Sweep = {"fig16", 1, 1, points, render};

} // namespace save
