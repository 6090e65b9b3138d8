/**
 * @file
 * Register-tiled GEMM micro-kernel generator in the style of the
 * Intel DNNL kernels the paper evaluates (SecII-A/B).
 *
 * The micro-kernel keeps an mr x nrVecs tile of C in accumulator
 * registers and walks the K dimension. Operand roles follow the paper:
 * A is the broadcasted multiplicand (source of broadcasted sparsity,
 * BS); B is the vector multiplicand (source of non-broadcasted
 * sparsity, NBS).
 *
 * Two instruction patterns (SecII-B):
 *  - Explicit broadcast: VBROADCASTSS fills a register that several
 *    VFMAs reuse. High A reuse, more register pressure.
 *  - Embedded broadcast: each VFMA carries a broadcast memory operand.
 *    Denser code, but every VFMA costs an L1/B$ read.
 */

#ifndef SAVE_KERNELS_GEMM_H
#define SAVE_KERNELS_GEMM_H

#include <cstdint>
#include <vector>

#include "isa/uop.h"
#include "mem/memory_image.h"
#include "util/random.h"

namespace save {

class MemHierarchy;

/** Broadcast style of the inner loop (SecII-B). */
enum class BroadcastPattern : uint8_t { Explicit, Embedded };

/** Element precision of the multiplicands. */
enum class Precision : uint8_t { Fp32, Bf16 };

/** Layout of the broadcast (A) panel. */
enum class ALayout : uint8_t
{
    /** DNNL-style packed panel: the mr scalars of one k step are
     *  contiguous. The broadcast cache's friendly case. */
    PackedKMajor,
    /** Plain row-major A[m][k]: each row's broadcasts live in a
     *  different line, so up to mr lines are hot at once — stresses
     *  B$ capacity/conflicts (used by ablations). */
    RowMajor,
};

/** Micro-kernel and data configuration. */
struct GemmConfig
{
    /** Register-tile rows (broadcast side). */
    int mr = 4;
    /** Register-tile vector columns (16 FP32 lanes each). */
    int nrVecs = 6;
    /** K steps in the generated slice (one B row load per step;
     *  covers 2 K-elements per step for BF16). */
    int kSteps = 128;
    /** Number of register tiles walked (the M/N loop of the slice). */
    int tiles = 1;
    BroadcastPattern pattern = BroadcastPattern::Explicit;
    Precision precision = Precision::Fp32;
    ALayout aLayout = ALayout::PackedKMajor;
    /** Zero probability of A elements (broadcasted sparsity). */
    double bsSparsity = 0.0;
    /** Zero probability of B elements (non-broadcasted sparsity). */
    double nbsSparsity = 0.0;
    uint64_t seed = 1;
    /** Express A-side pruning through an AVX-512 write mask register
     *  instead of zero data (exercises the WM path; tests only). */
    bool useWriteMask = false;
    uint16_t writeMask = 0xffffu;

    /** FP32 lanes of MAC work per VFMA. */
    int lanesPerVfma() const { return 16; }

    /**
     * Check the configuration is buildable: positive tile/slice
     * dimensions, sparsities in [0,1], and a register tile that fits
     * the 32 logical vector registers. Throws ConfigError with the
     * offending field; called by the workload builders.
     */
    void validate() const;

    /** Total multiply-accumulates encoded in the slice. */
    uint64_t
    macs() const
    {
        uint64_t per_step = static_cast<uint64_t>(mr) *
                            static_cast<uint64_t>(nrVecs) * 16 *
                            (precision == Precision::Bf16 ? 2 : 1);
        return per_step * static_cast<uint64_t>(kSteps) *
               static_cast<uint64_t>(tiles);
    }
};

/** A generated slice: trace plus data placement. */
struct GemmWorkload
{
    GemmConfig cfg;
    /** The kernel's uops; empty from fillShardedGemm, whose kernels a
     *  GemmStream emits instead. */
    std::vector<Uop> trace;
    uint64_t aBase = 0;
    uint64_t bBase = 0;
    uint64_t cBase = 0;
    uint64_t aBytes = 0;
    uint64_t bBytes = 0;
    uint64_t cBytes = 0;
    /** B/C panels the kernel walks (buildBlockedGemm; else 1). */
    int panels = 1;

    /** The slice's warm-up protocol: A, then the B panel. */
    WarmRanges warmRanges() const;

    /** Warm warmRanges() into L3. */
    void warmup(MemHierarchy &mem) const;
};

/**
 * One workload's kernel as a uop stream: the uops of its trace, in
 * order, emitted one block at a time (a tile's C loads, one K step, a
 * tile's C stores), so a run holds no trace vector. Reads only the
 * workload's configuration and placement, which it copies.
 */
class GemmStream : public TraceSource
{
  public:
    explicit GemmStream(const GemmWorkload &w);

    bool next(Uop &u) override;

  private:
    /** Emit the next block into block_; false past the last tile. */
    bool refill();
    uint64_t aAddr(int m) const;
    uint64_t bAddr(int n) const;
    uint64_t cAddr(int m, int n) const;

    GemmConfig cfg_;
    uint64_t aBase_, bBase_, cBase_;
    int panels_;
    /** Position of the next block: step_ -1 is the tile's C loads,
     *  0..kSteps-1 a K step, kSteps its C stores. */
    int panel_ = 0, tile_ = 0, step_ = -1;
    std::vector<Uop> block_;
    size_t pos_ = 0;
};

/**
 * Build a GEMM slice: registers matrices in `mem`, fills them with
 * the configured sparsity, and emits the uop trace.
 */
GemmWorkload buildGemm(const GemmConfig &cfg, MemoryImage &mem);

/**
 * Fill one slice per core for a data-parallel layer into `mem`: cores
 * share the broadcast operand A and own disjoint B/C tiles. Returns
 * each core's placement with an empty trace; a GemmStream emits its
 * kernel. The fill is a pure function of (cfg, cores) and a fresh
 * `mem`, so a copy of one fill serves every run of the same data.
 */
std::vector<GemmWorkload> fillShardedGemm(const GemmConfig &cfg,
                                          MemoryImage &mem, int cores);

/** fillShardedGemm, with each core's trace drained from its
 *  GemmStream. */
std::vector<GemmWorkload> buildShardedGemm(const GemmConfig &cfg,
                                           MemoryImage &mem, int cores);

/**
 * Build a complete cache-blocked GEMM: an outer loop over `n_panels`
 * panels of B/C (each nrVecs vectors wide) around the usual M-tile and
 * K loops. Unlike the steady-state slices, nothing is pre-warmed by
 * construction: the cold streaming of B amortizes over the M loop the
 * way a real layer's does. Used to validate the slice-extrapolation
 * methodology (DESIGN.md substitution 5).
 */
GemmWorkload buildBlockedGemm(const GemmConfig &cfg, int n_panels,
                              MemoryImage &mem);

} // namespace save

#endif // SAVE_KERNELS_GEMM_H
