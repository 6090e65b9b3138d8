/**
 * @file
 * Fig. 16 reproduction: histogram of per-kernel speedup caps across
 * the paper's 93 studied kernels (VGG16 + ResNet-50 conv layers and
 * GNMT LSTM cells), for FP32 / mixed precision with 2 VPUs or 1 VPU.
 *
 * A kernel's cap is its speedup over the baseline at saturating
 * sparsity (90% of both kinds), the asymptote of Fig. 15.
 */

#include <map>

#include "bench_util.h"
#include "stats/stats.h"

using namespace save;

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);
    SweepRunner runner(sweepOptions(flags));
    MachineConfig m;
    Engine base(m, SaveConfig::baseline());
    Engine sv(m, SaveConfig{});
    ResultStore store(storeOptions(flags));

    std::vector<KernelSpec> kernels = allStudiedKernels();
    std::printf("studied kernels: %zu (13 VGG16 + 53 ResNet-50 conv, "
                "27 GNMT cells)\n\n",
                kernels.size());

    // Dedup per (shape, kSteps) so the 93 kernels reuse slice sims,
    // then fan the unique cap simulations across the thread pool.
    struct Key
    {
        int mr, nr, ks;
        uint8_t pattern, prec, vpus;
        auto operator<=>(const Key &) const = default;
    };
    std::map<Key, double> cache;

    std::vector<double> edges{1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 99.0};
    struct Config
    {
        Precision prec;
        int vpus;
        const char *label;
    };
    const Config configs[] = {
        {Precision::Fp32, 2, "FP32 2 VPUs"},
        {Precision::Fp32, 1, "FP32 1 VPU"},
        {Precision::Bf16, 2, "MP 2 VPUs"},
        {Precision::Bf16, 1, "MP 1 VPU"},
    };

    auto keyFor = [&](const KernelSpec &spec, Precision prec,
                      int vpus) {
        GemmConfig g = sliceFor(spec, prec, 0.9, 0.9, flags);
        return Key{g.mr, g.nrVecs, g.kSteps,
                   static_cast<uint8_t>(g.pattern),
                   static_cast<uint8_t>(prec),
                   static_cast<uint8_t>(vpus)};
    };

    std::vector<Key> unique_keys;
    std::vector<const KernelSpec *> unique_specs;
    for (const Config &cfg : configs)
        for (const KernelSpec &spec : kernels) {
            Key key = keyFor(spec, cfg.prec, cfg.vpus);
            if (!cache.count(key)) {
                cache.emplace(key, 0.0); // placeholder marks it queued
                unique_keys.push_back(key);
                unique_specs.push_back(&spec);
            }
        }

    std::vector<double> caps = parallelSweep(
        static_cast<int>(unique_keys.size()), [&](int i) {
            const Key &key = unique_keys[static_cast<size_t>(i)];
            std::string jkey =
                "mr" + std::to_string(key.mr) + "/nr" +
                std::to_string(key.nr) + "/ks" +
                std::to_string(key.ks) + "/pat" +
                std::to_string(key.pattern) + "/prec" +
                std::to_string(key.prec) + "/vpus" +
                std::to_string(key.vpus);
            return runner.point<double>(jkey, [&] {
                GemmConfig g = sliceFor(
                    *unique_specs[static_cast<size_t>(i)],
                    static_cast<Precision>(key.prec), 0.9, 0.9, flags);
                GemmConfig dense = g;
                dense.bsSparsity = dense.nbsSparsity = 0.0;
                auto rb = memoRunGemm(store, base, dense, 1, 2);
                auto rs = memoRunGemm(store, sv, g, 1, key.vpus);
                return speedup(rb, rs);
            });
        });
    for (size_t i = 0; i < unique_keys.size(); ++i)
        cache[unique_keys[i]] = caps[i];

    auto cap = [&](const KernelSpec &spec, Precision prec, int vpus) {
        return cache.at(keyFor(spec, prec, vpus));
    };

    for (const Config &cfg : configs) {
        Histogram conv_h(edges), lstm_h(edges);
        double log_sum = 0;
        for (const KernelSpec &spec : kernels) {
            double s = cap(spec, cfg.prec, cfg.vpus);
            bool is_lstm = spec.name.rfind("gnmt", 0) == 0;
            (is_lstm ? lstm_h : conv_h).sample(s);
            log_sum += std::log(s);
        }
        std::printf("%s  (geomean cap %.2fx)\n", cfg.label,
                    std::exp(log_sum / kernels.size()));
        for (int b = 0; b < conv_h.bucketCount(); ++b) {
            std::printf("  %-9s conv: %2lu  lstm: %2lu\n",
                        (b == conv_h.bucketCount() - 1
                             ? ">2.0x"
                             : (conv_h.bucketLabel(b) + "x").c_str()),
                        static_cast<unsigned long>(conv_h.count(b)),
                        static_cast<unsigned long>(lstm_h.count(b)));
        }
        std::printf("\n");
    }
    std::printf("Paper geomean caps: FP32 1.39x (2 VPUs) / 1.62x "
                "(1 VPU); MP 1.48x / 1.77x.\n");
    maybePrintCacheStats(flags, &store);
    return runner.finish();
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
