/**
 * @file
 * Direct convolution kernels in the DNNL style the paper evaluates
 * (SecII-A cites direct convolution as a series of small GEMMs [18]).
 *
 * Layout: NCHW-like with output channels in vector lanes. The
 * micro-kernel holds an owBlock x ocBlocks tile of output pixels in
 * accumulators (7x3 = the paper's 21-accumulator kernel) and walks
 * the kh x kw x ic reduction: per step it loads ocBlocks weight
 * vectors and broadcasts one input pixel per output column.
 *
 * Activation sparsity (ReLU) appears in the broadcast operand (BS);
 * weight pruning appears in the vector operand (NBS). The input is
 * zero-padded, so halo reads are real zero broadcasts — border
 * micro-kernels get extra BS skipping for free, exactly as a real
 * padded convolution would.
 */

#ifndef SAVE_KERNELS_DIRECTCONV_H
#define SAVE_KERNELS_DIRECTCONV_H

#include <cstdint>
#include <vector>

#include "isa/uop.h"
#include "kernels/conv.h"
#include "mem/memory_image.h"
#include "util/random.h"

namespace save {

/** Direct-convolution slice configuration. */
struct DirectConvConfig
{
    ConvLayer layer;
    /** Output pixels per micro-kernel row (accumulator columns). */
    int owBlock = 7;
    /** Output-channel vectors per micro-kernel (16 lanes each). */
    int ocBlocks = 3;
    /** Output rows simulated (slice size; the full layer scales). */
    int ohRows = 1;
    double actSparsity = 0.0;
    double weightSparsity = 0.0;
    uint64_t seed = 1;
};

/** A generated direct-convolution slice. */
struct DirectConvWorkload
{
    DirectConvConfig cfg;
    std::vector<Uop> trace;
    uint64_t inBase = 0;
    uint64_t inBytes = 0;
    uint64_t wBase = 0;
    uint64_t wBytes = 0;
    uint64_t outBase = 0;
    uint64_t outBytes = 0;

    /** Padded input plane width/height. */
    int padW = 0;
    int padH = 0;
    /** Output-channel count rounded to the vector width. */
    int ocPadded = 0;

    /** MACs encoded in the slice. */
    uint64_t macs() const;

    /** Address of output pixel (oc lane base ocb, oy, ox). */
    uint64_t outAddr(int ocb, int oy, int ox) const;

    /** The warm-up protocol: activations (the previous layer's
     *  output), then the weight tensor, as with the GEMM slices. */
    WarmRanges warmRanges() const;
};

/** Build the slice: register tensors, fill them, emit the trace. */
DirectConvWorkload buildDirectConv(const DirectConvConfig &cfg,
                                   MemoryImage &mem);

/**
 * Independent reference: compute the same output region directly
 * from the tensors in `mem` with the MGU's zero-skip semantics and
 * the trace's accumulation order. Returns the expected FP32 value of
 * output (oc, oy, ox).
 */
float referenceConvOutput(const DirectConvWorkload &w,
                          const MemoryImage &mem, int oc, int oy,
                          int ox);

} // namespace save

#endif // SAVE_KERNELS_DIRECTCONV_H
