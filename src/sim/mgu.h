/**
 * @file
 * Mask Generation Unit (paper SecIII, Fig. 4).
 *
 * For each lane the MGU checks the corresponding elements of the two
 * multiplicands: the lane is effectual iff both are non-zero and the
 * write-mask bit (when present) is set. FP32 VFMAs get a 16-bit ELM;
 * mixed-precision VFMAs get a 32-bit per-multiplicand-lane ELM.
 *
 * MGUs are replicated to match the issue width, so ELM generation is
 * never a throughput bottleneck; the core charges one cycle between
 * operand readiness and ELM validity.
 */

#ifndef SAVE_SIM_MGU_H
#define SAVE_SIM_MGU_H

#include <cstdint>

#include "isa/vec.h"
#include "util/simd.h"

namespace save {

/** 16-bit effectual-lane mask for an FP32 VFMA. Zero detection is over
 *  the actual operand values (+-0.0 both count: the product is exactly
 *  zero and the accumulation is ineffectual); the oracle shares this
 *  lane math (util/simd.h). */
inline uint16_t
elmF32(const VecReg &a, const VecReg &b, uint16_t wm)
{
    return simd::elmF32(a, b, wm);
}

/** 32-bit effectual-multiplicand-lane mask for a mixed-precision VFMA.
 *  The write mask is per accumulator lane and masks both of its MLs. */
inline uint32_t
elmMp(const VecReg &a, const VecReg &b, uint16_t wm)
{
    return simd::elmMp(a, b, wm);
}

/** Accumulator lanes that have at least one effectual ML: OR each ML
 *  pair onto its even bit, then gather the even bits (the inverse of
 *  simd::expandMask16to32). */
constexpr uint16_t
mpAlMask(uint32_t ml_mask)
{
    uint32_t x = (ml_mask | (ml_mask >> 1)) & 0x55555555u;
    x = (x | (x >> 1)) & 0x33333333u;
    x = (x | (x >> 2)) & 0x0f0f0f0fu;
    x = (x | (x >> 4)) & 0x00ff00ffu;
    x = (x | (x >> 8)) & 0x0000ffffu;
    return static_cast<uint16_t>(x);
}

} // namespace save

#endif // SAVE_SIM_MGU_H
