#include "kernels/directconv.h"

#include <algorithm>

#include "kernels/sparsity.h"
#include "util/bitutil.h"
#include "util/logging.h"

namespace save {

namespace {

/** Padding for a 'same' convolution. */
int
padOf(const ConvLayer &l)
{
    return l.kh / 2;
}

uint64_t
inAddr(const DirectConvWorkload &w, int ic, int y, int x)
{
    // Padded [IC][padH][padW] FP32 plane; (y, x) are padded coords.
    uint64_t idx = (static_cast<uint64_t>(ic) *
                        static_cast<uint64_t>(w.padH) +
                    static_cast<uint64_t>(y)) *
                       static_cast<uint64_t>(w.padW) +
                   static_cast<uint64_t>(x);
    return w.inBase + 4 * idx;
}

uint64_t
wAddr(const DirectConvWorkload &w, int kh, int kw, int ic, int oc)
{
    // [KH][KW][IC][OCpadded] FP32, OC innermost: a 16-lane weight
    // vector is one contiguous, 64B-aligned run.
    const ConvLayer &l = w.cfg.layer;
    uint64_t idx = ((static_cast<uint64_t>(kh) *
                         static_cast<uint64_t>(l.kw) +
                     static_cast<uint64_t>(kw)) *
                        static_cast<uint64_t>(l.inC) +
                    static_cast<uint64_t>(ic)) *
                       static_cast<uint64_t>(w.ocPadded) +
                   static_cast<uint64_t>(oc);
    return w.wBase + 4 * idx;
}

} // namespace

uint64_t
DirectConvWorkload::outAddr(int ocb, int oy, int ox) const
{
    // [OC/16][OH][OW] of 16-lane vectors.
    const ConvLayer &l = cfg.layer;
    uint64_t idx = (static_cast<uint64_t>(ocb) *
                        static_cast<uint64_t>(l.oh()) +
                    static_cast<uint64_t>(oy)) *
                       static_cast<uint64_t>(l.ow()) +
                   static_cast<uint64_t>(ox);
    return outBase + kLineBytes * idx;
}

uint64_t
DirectConvWorkload::macs() const
{
    const ConvLayer &l = cfg.layer;
    return static_cast<uint64_t>(cfg.ohRows) *
           static_cast<uint64_t>(l.ow()) *
           static_cast<uint64_t>(cfg.ocBlocks) * kVecLanes *
           static_cast<uint64_t>(l.inC) *
           static_cast<uint64_t>(l.kh) * static_cast<uint64_t>(l.kw);
}

WarmRanges
DirectConvWorkload::warmRanges() const
{
    return {{inBase, inBytes}, {wBase, wBytes}};
}

DirectConvWorkload
buildDirectConv(const DirectConvConfig &cfg, MemoryImage &mem)
{
    const ConvLayer &l = cfg.layer;
    SAVE_ASSERT(cfg.owBlock >= 1 && cfg.ocBlocks >= 1 &&
                cfg.ohRows >= 1, "degenerate direct-conv config");
    SAVE_ASSERT(cfg.owBlock * cfg.ocBlocks + cfg.ocBlocks + 2 <=
                kLogicalVecRegs, "register tile too big");
    SAVE_ASSERT(l.stride == 1, "direct-conv slice models stride 1");

    DirectConvWorkload w;
    w.cfg = cfg;
    int pad = padOf(l);
    w.padW = l.iw + 2 * pad;
    w.padH = l.ih + 2 * pad;
    w.ocPadded = static_cast<int>(
        divCeil<uint64_t>(static_cast<uint64_t>(
            cfg.ocBlocks * kVecLanes), kVecLanes) * kVecLanes);

    Rng rng(cfg.seed);

    // Padded input: interior filled at the activation sparsity,
    // borders zero (the padding halo).
    uint64_t in_elems = static_cast<uint64_t>(l.inC) *
                        static_cast<uint64_t>(w.padH) *
                        static_cast<uint64_t>(w.padW);
    w.inBytes = 4 * in_elems;
    w.inBase = mem.allocRegion((w.inBytes + kLineBytes - 1) /
                               kLineBytes * kLineBytes);
    for (int ic = 0; ic < l.inC; ++ic)
        for (int y = pad; y < pad + l.ih; ++y)
            for (int x = pad; x < pad + l.iw; ++x) {
                float v = rng.chance(cfg.actSparsity)
                    ? 0.0f
                    : rng.nonZeroValue();
                mem.writeF32(inAddr(w, ic, y, x), v);
            }

    uint64_t w_elems = static_cast<uint64_t>(l.kh) *
                       static_cast<uint64_t>(l.kw) *
                       static_cast<uint64_t>(l.inC) *
                       static_cast<uint64_t>(w.ocPadded);
    w.wBytes = 4 * w_elems;
    w.wBase = mem.allocRegion((w.wBytes + kLineBytes - 1) /
                              kLineBytes * kLineBytes);
    fillF32(mem, w.wBase, w_elems, cfg.weightSparsity, rng);

    uint64_t out_vecs = static_cast<uint64_t>(cfg.ocBlocks) *
                        static_cast<uint64_t>(l.oh()) *
                        static_cast<uint64_t>(l.ow());
    w.outBytes = out_vecs * kLineBytes;
    w.outBase = mem.allocRegion(w.outBytes);

    // Register plan: accumulators 0..owBlock*ocBlocks-1 column-major
    // (rotation-friendly, as with the GEMM kernels), then weight
    // vectors, then 2 broadcast registers.
    const int acc_regs = cfg.owBlock * cfg.ocBlocks;
    auto acc = [&](int ow, int n) { return n * cfg.owBlock + ow; };
    auto wreg = [&](int n) { return acc_regs + n; };
    auto xreg = [&](int ow) { return acc_regs + cfg.ocBlocks +
                                     (ow & 1); };

    std::vector<Uop> &out = w.trace;
    for (int oy = 0; oy < cfg.ohRows; ++oy) {
        for (int owb = 0; owb * cfg.owBlock < l.ow(); ++owb) {
            int ow0 = owb * cfg.owBlock;
            int cols = std::min(cfg.owBlock, l.ow() - ow0);
            // Zero accumulators by loading the (zero) output tile.
            for (int c = 0; c < cols; ++c)
                for (int n = 0; n < cfg.ocBlocks; ++n)
                    out.push_back(Uop::loadVec(
                        acc(c, n), w.outAddr(n, oy, ow0 + c)));

            for (int kh = 0; kh < l.kh; ++kh) {
                for (int kw = 0; kw < l.kw; ++kw) {
                    for (int ic = 0; ic < l.inC; ++ic) {
                        for (int n = 0; n < cfg.ocBlocks; ++n)
                            out.push_back(Uop::loadVec(
                                wreg(n), wAddr(w, kh, kw, ic,
                                               n * kVecLanes)));
                        for (int c = 0; c < cols; ++c) {
                            // Padded coords: oy+kh, ow+kw.
                            out.push_back(Uop::broadcastLoad(
                                xreg(c),
                                inAddr(w, ic, oy + kh,
                                       ow0 + c + kw)));
                            for (int n = 0; n < cfg.ocBlocks; ++n)
                                out.push_back(Uop::vfma(
                                    acc(c, n), xreg(c), wreg(n)));
                        }
                        out.push_back(Uop::alu());
                    }
                }
            }
            for (int c = 0; c < cols; ++c)
                for (int n = 0; n < cfg.ocBlocks; ++n)
                    out.push_back(Uop::storeVec(
                        acc(c, n), w.outAddr(n, oy, ow0 + c)));
        }
    }
    return w;
}

float
referenceConvOutput(const DirectConvWorkload &w, const MemoryImage &mem,
                    int oc, int oy, int ox)
{
    const ConvLayer &l = w.cfg.layer;
    float acc = 0.0f;
    for (int kh = 0; kh < l.kh; ++kh)
        for (int kw = 0; kw < l.kw; ++kw)
            for (int ic = 0; ic < l.inC; ++ic) {
                float x =
                    mem.readF32(inAddr(w, ic, oy + kh, ox + kw));
                float ww = mem.readF32(wAddr(w, kh, kw, ic, oc));
                if (x != 0.0f && ww != 0.0f)
                    acc += x * ww;
            }
    return acc;
}

} // namespace save
