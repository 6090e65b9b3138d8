#include "kernels/gemm.h"

#include "kernels/sparsity.h"
#include "mem/hierarchy.h"
#include "util/error.h"
#include "util/logging.h"

namespace save {

namespace {

/**
 * A-panel geometry. The panel is stored packed and k-major, as DNNL
 * packs the broadcast operand: the mr scalars (32-bit words: one FP32
 * value or one BF16 pair) broadcast within one k step are contiguous.
 * This is the spatial locality the Broadcast Cache exploits (paper
 * SecIV-A: "different scalar values in the same cache line are
 * broadcasted nearby in time").
 */
uint64_t
aWords(const GemmConfig &cfg)
{
    return static_cast<uint64_t>(cfg.tiles) *
           static_cast<uint64_t>(cfg.kSteps) *
           static_cast<uint64_t>(cfg.mr);
}

/**
 * Register plan. Column-major accumulator numbering: VFMAs sharing a
 * B register (same n, varying m) get consecutive accumulator numbers,
 * so their R-states (dst mod 3) differ and rotate-vertical coalescing
 * can break their identical sparsity patterns apart (paper SecIV-B).
 */
struct RegPlan
{
    int mr;
    int nr;
    int cReg(int m, int n) const { return n * mr + m; }
    int bReg(int n) const { return mr * nr + n; }
    int aReg(int m) const { return mr * nr + nr + (m & 1); }
};

/** Place and fill one core's B panel(s) and C tile(s) after the
 *  shared A panel; the workload's trace stays empty. */
GemmWorkload
fillWith(const GemmConfig &cfg, MemoryImage &mem, uint64_t a_base,
         uint64_t a_bytes, Rng &rng, int n_panels = 1)
{
    const int mr = cfg.mr;
    const int nr = cfg.nrVecs;
    if (n_panels < 1)
        throw ConfigError("GEMM panel count must be >= 1 (got " +
                          std::to_string(n_panels) + ")");

    GemmWorkload w;
    w.cfg = cfg;
    w.aBase = a_base;
    w.aBytes = a_bytes;
    w.panels = n_panels;

    const bool mp = cfg.precision == Precision::Bf16;
    uint64_t b_vecs = static_cast<uint64_t>(n_panels) *
                      static_cast<uint64_t>(cfg.kSteps) *
                      static_cast<uint64_t>(nr);
    w.bBytes = b_vecs * kLineBytes;
    w.bBase = mem.allocRegion(w.bBytes);
    uint64_t c_vecs = static_cast<uint64_t>(n_panels) *
                      static_cast<uint64_t>(cfg.tiles) *
                      static_cast<uint64_t>(mr) *
                      static_cast<uint64_t>(nr);
    w.cBytes = c_vecs * kLineBytes;
    w.cBase = mem.allocRegion(w.cBytes);

    if (mp) {
        fillBf16(mem, w.bBase, b_vecs * kMlLanes, cfg.nbsSparsity, rng);
    } else {
        fillF32(mem, w.bBase, b_vecs * kVecLanes, cfg.nbsSparsity, rng);
    }
    // Dense random C so accumulation bugs cannot hide behind zeros.
    fillF32(mem, w.cBase, c_vecs * kVecLanes, 0.0, rng);
    return w;
}

/** Fill the workload's trace from its stream. */
void
drain(GemmWorkload &w)
{
    GemmStream stream(w);
    for (Uop u; stream.next(u);)
        w.trace.push_back(u);
}

} // namespace

void
GemmConfig::validate() const
{
    auto at_least = [](const char *field, int value, int min) {
        if (value < min)
            throw ConfigError(std::string("GemmConfig.") + field +
                              " must be >= " + std::to_string(min) +
                              " (got " + std::to_string(value) + ")");
    };
    at_least("mr", mr, 1);
    at_least("nrVecs", nrVecs, 1);
    at_least("kSteps", kSteps, 1);
    at_least("tiles", tiles, 1);
    auto fraction = [](const char *field, double value) {
        if (!(value >= 0.0 && value <= 1.0))
            throw ConfigError(std::string("GemmConfig.") + field +
                              " must be in [0, 1] (got " +
                              std::to_string(value) + ")");
    };
    fraction("bsSparsity", bsSparsity);
    fraction("nbsSparsity", nbsSparsity);
    // The register plan needs mr*nr accumulators, nr B registers, and
    // two A rotation slots for the explicit-broadcast pattern.
    int regs_needed =
        mr * nrVecs + nrVecs +
        (pattern == BroadcastPattern::Explicit ? 2 : 0);
    if (regs_needed > kLogicalVecRegs)
        throw ConfigError(
            "GemmConfig register tile too big: " + std::to_string(mr) +
            "x" + std::to_string(nrVecs) + " needs " +
            std::to_string(regs_needed) + " of " +
            std::to_string(kLogicalVecRegs) +
            " logical vector registers; shrink mr or nrVecs");
    if (useWriteMask && writeMask == 0)
        throw ConfigError("GemmConfig.writeMask must be non-zero when "
                          "useWriteMask is set (an all-masked kernel "
                          "does no work)");
}

GemmStream::GemmStream(const GemmWorkload &w)
    : cfg_(w.cfg), aBase_(w.aBase), bBase_(w.bBase), cBase_(w.cBase),
      panels_(w.panels)
{
    // The largest block is a K step: nr B loads, mr broadcasts, mr*nr
    // VFMAs and the loop ALU op.
    block_.reserve(static_cast<size_t>(cfg_.nrVecs +
                                       cfg_.mr * (cfg_.nrVecs + 1) + 1));
    if (cfg_.useWriteMask)
        block_.push_back(Uop::setMask(1, cfg_.writeMask));
}

bool
GemmStream::next(Uop &u)
{
    if (pos_ == block_.size() && !refill())
        return false;
    u = block_[pos_++];
    return true;
}

uint64_t
GemmStream::aAddr(int m) const
{
    const uint64_t mr = static_cast<uint64_t>(cfg_.mr);
    const uint64_t k = static_cast<uint64_t>(cfg_.kSteps);
    const uint64_t tile = static_cast<uint64_t>(tile_);
    const uint64_t step = static_cast<uint64_t>(step_);
    // Packed: the mr scalars of one k step are contiguous. Row-major:
    // row (tile*mr + m), column step.
    const uint64_t word = cfg_.aLayout == ALayout::PackedKMajor
        ? (tile * k + step) * mr + static_cast<uint64_t>(m)
        : (tile * mr + static_cast<uint64_t>(m)) * k + step;
    return aBase_ + word * 4;
}

uint64_t
GemmStream::bAddr(int n) const
{
    const uint64_t vec = (static_cast<uint64_t>(panel_) *
                              static_cast<uint64_t>(cfg_.kSteps) +
                          static_cast<uint64_t>(step_)) *
                             static_cast<uint64_t>(cfg_.nrVecs) +
                         static_cast<uint64_t>(n);
    return bBase_ + vec * kLineBytes;
}

uint64_t
GemmStream::cAddr(int m, int n) const
{
    const uint64_t row = (static_cast<uint64_t>(panel_) *
                              static_cast<uint64_t>(cfg_.tiles) +
                          static_cast<uint64_t>(tile_)) *
                             static_cast<uint64_t>(cfg_.mr) +
                         static_cast<uint64_t>(m);
    return cBase_ + (row * static_cast<uint64_t>(cfg_.nrVecs) +
                     static_cast<uint64_t>(n)) *
                        kLineBytes;
}

bool
GemmStream::refill()
{
    if (panel_ == panels_)
        return false;
    block_.clear();
    pos_ = 0;
    const int mr = cfg_.mr;
    const int nr = cfg_.nrVecs;
    const RegPlan plan{mr, nr};
    const bool mp = cfg_.precision == Precision::Bf16;
    const int wm = cfg_.useWriteMask ? 1 : -1;

    if (step_ < 0) {
        // Load the C tile into the accumulator registers.
        for (int m = 0; m < mr; ++m)
            for (int n = 0; n < nr; ++n)
                block_.push_back(
                    Uop::loadVec(plan.cReg(m, n), cAddr(m, n)));
    } else if (step_ < cfg_.kSteps) {
        for (int n = 0; n < nr; ++n)
            block_.push_back(Uop::loadVec(plan.bReg(n), bAddr(n)));
        if (cfg_.pattern == BroadcastPattern::Explicit) {
            for (int m = 0; m < mr; ++m) {
                const int areg = plan.aReg(m);
                block_.push_back(Uop::broadcastLoad(areg, aAddr(m)));
                for (int n = 0; n < nr; ++n) {
                    const int c = plan.cReg(m, n);
                    const int b = plan.bReg(n);
                    block_.push_back(mp ? Uop::vdp(c, areg, b, wm)
                                        : Uop::vfma(c, areg, b, wm));
                }
            }
        } else {
            for (int m = 0; m < mr; ++m) {
                const uint64_t addr = aAddr(m);
                for (int n = 0; n < nr; ++n) {
                    const int c = plan.cReg(m, n);
                    const int b = plan.bReg(n);
                    block_.push_back(mp ? Uop::vdpBcast(c, addr, b, wm)
                                        : Uop::vfmaBcast(c, addr, b, wm));
                }
            }
        }
        block_.push_back(Uop::alu()); // loop bookkeeping
    } else {
        for (int m = 0; m < mr; ++m)
            for (int n = 0; n < nr; ++n)
                block_.push_back(
                    Uop::storeVec(plan.cReg(m, n), cAddr(m, n)));
    }

    if (++step_ > cfg_.kSteps) {
        step_ = -1;
        if (++tile_ == cfg_.tiles) {
            tile_ = 0;
            ++panel_;
        }
    }
    return true;
}

namespace {

/** Allocate and fill the packed A panel. */
uint64_t
buildAPanel(const GemmConfig &cfg, MemoryImage &mem, Rng &rng,
            uint64_t &a_bytes)
{
    cfg.validate();
    uint64_t words = aWords(cfg);
    a_bytes = words * 4;
    uint64_t a_base = mem.allocRegion((a_bytes + kLineBytes - 1) /
                                      kLineBytes * kLineBytes);
    if (cfg.precision == Precision::Bf16)
        fillBf16(mem, a_base, 2 * words, cfg.bsSparsity, rng);
    else
        fillF32(mem, a_base, words, cfg.bsSparsity, rng);
    return a_base;
}

} // namespace

GemmWorkload
buildGemm(const GemmConfig &cfg, MemoryImage &mem)
{
    Rng rng(cfg.seed);
    uint64_t a_bytes = 0;
    uint64_t a_base = buildAPanel(cfg, mem, rng, a_bytes);

    GemmWorkload w = fillWith(cfg, mem, a_base, a_bytes, rng);
    drain(w);
    return w;
}

GemmWorkload
buildBlockedGemm(const GemmConfig &cfg, int n_panels, MemoryImage &mem)
{
    Rng rng(cfg.seed);
    uint64_t a_bytes = 0;
    uint64_t a_base = buildAPanel(cfg, mem, rng, a_bytes);

    GemmWorkload w = fillWith(cfg, mem, a_base, a_bytes, rng, n_panels);
    drain(w);
    return w;
}

std::vector<GemmWorkload>
fillShardedGemm(const GemmConfig &cfg, MemoryImage &mem, int cores)
{
    // All cores broadcast from the same A panel (the GEMM's shared
    // operand); each owns a private B panel and C tile.
    Rng rng(cfg.seed);
    uint64_t a_bytes = 0;
    uint64_t a_base = buildAPanel(cfg, mem, rng, a_bytes);

    std::vector<GemmWorkload> out;
    for (int c = 0; c < cores; ++c) {
        GemmConfig per = cfg;
        per.seed = cfg.seed + 77770 + static_cast<uint64_t>(c);
        Rng core_rng(per.seed);
        out.push_back(fillWith(per, mem, a_base, a_bytes, core_rng));
    }
    return out;
}

std::vector<GemmWorkload>
buildShardedGemm(const GemmConfig &cfg, MemoryImage &mem, int cores)
{
    std::vector<GemmWorkload> out = fillShardedGemm(cfg, mem, cores);
    for (GemmWorkload &w : out)
        drain(w);
    return out;
}

WarmRanges
GemmWorkload::warmRanges() const
{
    // Activations (A) are warm in L3 per the paper's protocol (the
    // previous operation produced them). The B panel is also placed in
    // L3: a slice models the steady state of the layer's M loop, where
    // the panel has been touched by earlier register tiles and its
    // cold DRAM transfer is amortized over the whole M dimension
    // (DESIGN.md substitution 5). C (the layer's output) stays cold.
    return {{aBase, aBytes}, {bBase, bBytes}};
}

void
GemmWorkload::warmup(MemHierarchy &mem) const
{
    mem.warmL3(warmRanges());
}

} // namespace save
