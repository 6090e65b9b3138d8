#include "dnn/fig14_report.h"

#include "sweep/sweep.h"

namespace save {

namespace {

void
printRow(std::string &out, const char *cfg, const PhaseBreakdown &bd,
         double base_total)
{
    appendf(out,
            "  %-9s %6.2fx  (1st %5.1f%%, fwd %5.1f%%, bwd-in "
            "%5.1f%%, bwd-w %5.1f%%)\n",
            cfg, base_total / bd.total(),
            100 * bd.firstLayer / bd.total(),
            100 * bd.forward / bd.total(),
            100 * bd.bwdInput / bd.total(),
            100 * bd.bwdWeights / bd.total());
}

void
printNet(std::string &out, const char *title, const NetResult &r,
         bool training)
{
    double base = r.baseline2.total();
    appendf(out, "%s  (baseline: %.3f ms)\n", title, base / 1e6);
    printRow(out, "baseline", r.baseline2, base);
    printRow(out, "2 VPUs", r.save2, base);
    printRow(out, "1 VPU", r.save1, base);
    if (training)
        printRow(out, "static", r.saveStatic, base);
    printRow(out, "dynamic", r.saveDynamic, base);
}

} // namespace

int
fig14PointCount()
{
    return static_cast<int>(fig14Points().size());
}

const std::vector<Fig14Point> &
fig14Points()
{
    static const std::vector<Fig14Point> points = [] {
        const std::vector<Fig14Entry> cnn = {
            {vgg16Dense(), Precision::Fp32, "VGG16 FP32 dense"},
            {resnet50Dense(), Precision::Fp32, "ResNet-50 FP32 dense"},
            {resnet50Pruned(), Precision::Fp32, "ResNet-50 FP32 pruned"},
            {vgg16Dense(), Precision::Bf16, "VGG16 MP dense"},
            {resnet50Dense(), Precision::Bf16, "ResNet-50 MP dense"},
            {resnet50Pruned(), Precision::Bf16, "ResNet-50 MP pruned"},
        };
        const std::vector<Fig14Entry> gnmt = {
            {gnmtPruned(), Precision::Fp32, "GNMT FP32 pruned"},
            {gnmtPruned(), Precision::Bf16, "GNMT MP pruned"},
        };
        struct Section
        {
            const char *heading;
            const std::vector<Fig14Entry> &entries;
            bool training;
        };
        const Section sections[] = {
            {"=== Fig. 14a: CNN inference ===\n", cnn, false},
            {"\n=== Fig. 14b: GNMT inference ===\n", gnmt, false},
            {"\n=== Fig. 14c: CNN end-to-end training ===\n", cnn, true},
            {"\n=== Fig. 14d: GNMT end-to-end training ===\n", gnmt,
             true},
        };
        std::vector<Fig14Point> p;
        for (const Section &s : sections) {
            const char *heading = s.heading;
            for (const Fig14Entry &e : s.entries) {
                p.push_back({e, s.training,
                             std::string(s.training ? "train/"
                                                    : "infer/") +
                                 e.label,
                             heading});
                heading = nullptr;
            }
        }
        return p;
    }();
    return points;
}

std::string
fig14Report(const Fig14Eval &eval)
{
    std::string out;
    out.reserve(8192);
    for (const Fig14Point &p : fig14Points()) {
        if (p.heading != nullptr)
            out += p.heading;
        printNet(out, p.entry.label, eval(p.key, p.entry, p.training),
                 p.training);
    }
    appendf(out,
            "\nPaper (dynamic, MP): inference 1.68x/1.37x/1.59x "
            "(VGG/ResNet/ResNet-pruned), 1.39x GNMT; training "
            "1.64x/1.29x/1.42x, 1.28x GNMT.\n");
    // Callers keep reports (a benchmark keeps one per unit): return
    // the text without the reserve's slack.
    out.shrink_to_fit();
    return out;
}

std::string
fig14Report(const std::vector<NetResult> &results)
{
    size_t next = 0;
    return fig14Report([&](const std::string &, const Fig14Entry &,
                           bool) { return results.at(next++); });
}

} // namespace save
