/**
 * @file
 * The five reports that simulate nothing, so have no points: the
 * architecture and storage tables (I, II), the sparsity types each
 * network exhibits (III), and the sparsity inputs of the estimator,
 * activation sparsity during training (Fig. 12) and the pruning
 * schedules (Fig. 13). Each ignores the knobs.
 */

#include <algorithm>
#include <cstdio>

#include "dnn/networks.h"
#include "mem/broadcast_cache.h"
#include "stats/stats.h"
#include "sweep/sweep.h"
#include "util/bitutil.h"

namespace save {

namespace {

std::vector<SweepPoint>
none(const SweepKnobs &)
{
    return {};
}

/** Table I: the modeled architecture, MachineConfig's defaults. */
std::string
table1(const SweepKnobs &, const SweepResults &)
{
    MachineConfig m;
    TextTable t({"component", "configuration"});
    char buf[160];

    std::snprintf(buf, sizeof(buf),
                  "%d cores, no SMT, %d RS entries, %d ROB entries, "
                  "%d-issue, 1 VPU at %.1fGHz or %d VPUs at %.1fGHz",
                  m.cores, m.rsEntries, m.robEntries, m.issueWidth,
                  m.freq1VpuGhz, m.numVpus, m.freq2VpuGhz);
    t.addRow({"Core", buf});
    std::snprintf(buf, sizeof(buf),
                  "%d lines direct-mapped, with data or with masks",
                  m.bcacheEntries);
    t.addRow({"B$", buf});
    std::snprintf(buf, sizeof(buf), "%dKB/core private, %d-way, LRU",
                  m.l1SizeKb, m.l1Ways);
    t.addRow({"L1-D/I", buf});
    std::snprintf(buf, sizeof(buf),
                  "%dMB/core private, inclusive, %d-way, LRU",
                  m.l2SizeKb / 1024, m.l2Ways);
    t.addRow({"L2", buf});
    std::snprintf(buf, sizeof(buf),
                  "%.3fMB/core, shared, inclusive, %d-way, SRRIP, NUCA",
                  m.l3SizeKbPerCore / 1024.0, m.l3Ways);
    t.addRow({"L3", buf});
    std::snprintf(buf, sizeof(buf),
                  "2D-mesh, XY routing, %d-cycle hop", m.nocHopCycles);
    t.addRow({"NoC", buf});
    std::snprintf(buf, sizeof(buf),
                  "%.1fGB/s BW, %d channels, %.0fns latency", m.dramGBps,
                  m.dramChannels, m.dramLatNs);
    t.addRow({"Memory", buf});

    std::string out;
    appendf(out, "Table I: Architecture configuration.\n\n%s\n",
            t.render().c_str());
    appendf(out,
            "VFMA latency: FP32 %d cycles, mixed-precision %d "
            "cycles (paper SecVI).\n",
            m.fp32FmaLatency, m.mpFmaLatency);
    return out;
}

uint64_t
tempBookkeepingBytes(int lanes, int pipe_stages, int rs_entries)
{
    return static_cast<uint64_t>(lanes) *
           static_cast<uint64_t>(pipe_stages) *
           static_cast<uint64_t>(ceilLog2(
               static_cast<uint64_t>(rs_entries))) /
           8;
}

/**
 * Table II: SAVE's storage structures at 22nm. Sizes are computed
 * from first principles:
 *  - temp bookkeeping per VPU: one source id per lane per pipeline
 *    stage, V * P * log2(N_RS) bits (paper SecIII); the
 *    mixed-precision pipeline tracks multiplicand lanes (32) over the
 *    deeper 6-stage pipe.
 *  - B$ with masks: per entry one tag + one zero bit per element.
 *  - B$ with data: per entry one tag + a 64B line.
 *
 * Leakage power and access energy come from the paper's CACTI 7.0
 * runs at 22nm; CACTI is external tooling, so those two columns are
 * reproduced as the paper's reported constants (DESIGN.md
 * substitution 4).
 */
std::string
table2(const SweepKnobs &, const SweepResults &)
{
    MachineConfig m;
    MemoryImage img;
    BroadcastCache bc_mask(BcastCacheKind::Mask, m.bcacheEntries, &img);
    BroadcastCache bc_data(BcastCacheKind::Data, m.bcacheEntries, &img);

    uint64_t t_fp32 =
        tempBookkeepingBytes(kVecLanes, m.fp32FmaLatency, m.rsEntries);
    uint64_t t_mp =
        tempBookkeepingBytes(kMlLanes, m.mpFmaLatency, m.rsEntries);

    std::string out;
    appendf(out, "Table II: Storage structures in SAVE modeled at "
                 "22nm.\n\n");
    TextTable t({"structure", "FP32-only size", "FP32+MP size",
                 "P_leak", "E_access"});
    t.addRow({"T per VPU", std::to_string(t_fp32) + "B",
              std::to_string(t_mp) + "B", "n/a", "n/a"});
    // Mask payload: 16 bits (FP32 elements) or 32 bits (BF16 elements).
    uint64_t mask_fp32 = bc_mask.storageBytes();
    uint64_t mask_mp = static_cast<uint64_t>(m.bcacheEntries) *
                       (42 + 32 + 1) / 8;
    t.addRow({"B$ w/ mask", std::to_string(mask_fp32) + "B",
              std::to_string(mask_mp) + "B", "0.24/0.29mW",
              "2.9e-4/3.8e-4nJ"});
    t.addRow({"B$ w/ data", std::to_string(bc_data.storageBytes()) + "B",
              std::to_string(bc_data.storageBytes()) + "B", "3.2mW",
              "1.6e-2nJ"});
    appendf(out, "%s\n", t.render().c_str());

    appendf(out, "Paper reference values: T 56B/168B; B$ mask "
                 "276B/340B; B$ data 2260B. Power/energy columns are "
                 "the paper's CACTI 7.0 @22nm constants.\n");
    return out;
}

const char *
mark(bool b)
{
    return b ? "X" : ".";
}

/**
 * Table III: which sparsity types (broadcasted BS / non-broadcasted
 * NBS) each network exhibits per training phase, from the operand-role
 * model the estimator uses (activations broadcast, weights/gradients
 * in vector lanes) evaluated late in training, as in SecVI.
 */
std::string
table3(const SweepKnobs &, const SweepResults &)
{
    struct Presence
    {
        bool bs = false;
        bool nbs = false;
    };

    std::string out;
    appendf(out, "Table III: Types of sparsity in the evaluated "
                 "networks (X = present).\n\n");

    TextTable cnn({"CNN", "fwd BS", "fwd NBS", "bwd-in BS", "bwd-in NBS",
                   "bwd-w BS", "bwd-w NBS"});
    for (const NetworkModel &net :
         {vgg16Dense(), resnet50Dense(), resnet50Pruned()}) {
        ActivationProfile act = net.profile();
        int64_t step = net.steps() - 1;
        double ws = net.schedule.sparsityAt(step);
        Presence fwd, bwd_in, bwd_w;
        for (int i = 1; i < net.numKernels(); ++i) {
            double a = act.at(i, step);
            double grad = net.sparseGradients
                ? act.at(std::min(i + 1, net.numKernels() - 1), step)
                : 0.0;
            fwd.bs |= a > 0;
            fwd.nbs |= ws > 0;
            bwd_in.bs |= grad > 0;
            bwd_in.nbs |= ws > 0;
            bwd_w.bs |= a > 0;
            bwd_w.nbs |= grad > 0;
        }
        cnn.addRow({net.name, mark(fwd.bs), mark(fwd.nbs),
                    mark(bwd_in.bs), mark(bwd_in.nbs), mark(bwd_w.bs),
                    mark(bwd_w.nbs)});
    }
    appendf(out, "%s\n", cnn.render().c_str());

    TextTable lstm({"LSTM", "fwd BS", "fwd NBS", "bwd BS", "bwd NBS"});
    {
        NetworkModel net = gnmtPruned();
        ActivationProfile act = net.profile();
        int64_t step = net.steps() - 1;
        double ws = net.schedule.sparsityAt(step);
        double a = act.at(1, step);
        lstm.addRow({net.name, mark(a > 0), mark(ws > 0), mark(a > 0),
                     mark(ws > 0)});
    }
    appendf(out, "%s\n", lstm.render().c_str());

    appendf(out,
            "Paper: dense VGG16 -> fwd BS, bwd-in BS, bwd-w BS+NBS; dense "
            "ResNet-50 -> fwd BS, bwd-w BS; pruned ResNet-50 -> fwd "
            "BS+NBS, bwd-in NBS only, bwd-w BS; pruned GNMT -> all "
            "four.\n");
    return out;
}

/** Fig. 12 samples five epochs per network, first and last included. */
constexpr int kSamples = 5;

int64_t
sampledEpoch(const NetworkModel &net, int s)
{
    return net.steps() > 1 ? s * (net.steps() - 1) / (kSamples - 1) : 0;
}

/** Fig. 12: each conv layer's activation sparsity during end-to-end
 *  training, at the sampled epochs (the paper plots first to last). */
std::string
fig12(const SweepKnobs &, const SweepResults &)
{
    std::string out;
    for (const NetworkModel &net :
         {vgg16Dense(), resnet50Dense(), resnet50Pruned()}) {
        ActivationProfile act = net.profile();
        appendf(out,
                "%s training: input-activation sparsity "
                "(epochs sampled: first..last)\n",
                net.name.c_str());
        appendf(out, "%-14s", "layer");
        for (int s = 0; s < kSamples; ++s)
            appendf(out, " ep%-4ld",
                    static_cast<long>(sampledEpoch(net, s)));
        appendf(out, "\n");
        for (int l = 0; l < net.numKernels(); ++l) {
            appendf(out, "%-14s",
                    net.convLayers[static_cast<size_t>(l)].name.c_str());
            for (int s = 0; s < kSamples; ++s)
                appendf(out, " %5.1f%%",
                        100 * act.at(l, sampledEpoch(net, s)));
            appendf(out, "\n");
        }
        appendf(out, "\n");
    }
    appendf(out, "GNMT omitted as in the paper: activation sparsity is "
                 "constantly 20%% (dropout).\n");
    return out;
}

/** Fig. 13: the weight-pruning schedules (Zhu-Gupta ramps) of
 *  ResNet-50 (epochs) and GNMT (iterations). */
std::string
fig13(const SweepKnobs &, const SweepResults &)
{
    std::string out;
    const PruningSchedule r = PruningSchedule::resnet50();
    appendf(out, "ResNet-50 training with pruning (epoch -> weight "
                 "sparsity):\n");
    for (int64_t e = 0; e < r.totalSteps; e += 4)
        appendf(out, "  epoch %3ld: %5.1f%%\n", static_cast<long>(e),
                100 * r.sparsityAt(e));
    appendf(out, "  epoch %3ld: %5.1f%%  (final)\n",
            static_cast<long>(r.totalSteps - 1), 100 * r.finalSparsity());
    appendf(out, "\n");
    const PruningSchedule g = PruningSchedule::gnmt();
    appendf(out, "GNMT training with pruning (iteration -> weight "
                 "sparsity):\n");
    for (int64_t s = 0; s < g.totalSteps; s += 2)
        appendf(out, "  iter %6ldK: %5.1f%%\n", static_cast<long>(s * 10),
                100 * g.sparsityAt(s));
    appendf(out, "  iter %6ldK: %5.1f%%  (final)\n",
            static_cast<long>((g.totalSteps - 1) * 10),
            100 * g.finalSparsity());
    appendf(out, "\nPaper: ResNet-50 ramps from epoch 32 to 80%% at "
                 "epoch 60; GNMT ramps from iteration 40K to 90%% at "
                 "190K.\n");
    return out;
}

} // namespace

extern const SweepSpec kTable1Sweep = {"table1", {}, 0, none, table1};
extern const SweepSpec kTable2Sweep = {"table2", {}, 0, none, table2};
extern const SweepSpec kTable3Sweep = {"table3", {}, 0, none, table3};
extern const SweepSpec kFig12Sweep = {"fig12", {}, 0, none, fig12};
extern const SweepSpec kFig13Sweep = {"fig13", {}, 0, none, fig13};

} // namespace save
