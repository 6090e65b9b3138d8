/**
 * @file
 * Whole-register lane math for the simulator's functional model: the
 * isa/bf16.h scalar helpers applied across one 512-bit VecReg. The
 * pipeline (MGU, VPU issue) and the ArchExecutor oracle both call
 * these, so they share one definition of the FP contract:
 *
 *  - zero-skip MAC: a (signed-)zero multiplicand leaves the
 *    accumulator bit-identical (NaN payloads pass through untouched);
 *  - effectual lanes compute prod = a*b and acc + prod as two separate
 *    IEEE-754 single-precision roundings (-ffp-contract=off, so the
 *    compiler never fuses them into an FMA);
 *  - a *computed* NaN result collapses to the canonical quiet NaN
 *    0x7fc00000;
 *  - BF16 lanes widen exactly (<<16) and accumulate in FP32.
 *
 * The mixed-precision MAC is deliberately not modelled on the native
 * AVX512-BF16 VDPBF16PS instruction: that contracts the two products
 * of an accumulator lane into one rounding (and flushes denormal
 * inputs), while the simulator defines sequential round-to-nearest
 * accumulation, even ML then odd ML.
 */

#ifndef SAVE_UTIL_SIMD_H
#define SAVE_UTIL_SIMD_H

#include <cstdint>

#include "isa/bf16.h"
#include "isa/vec.h"

namespace save::simd {

/** Name of the lane-math implementation, for fingerprint lines. */
inline const char *
backendName()
{
    return "generic";
}

/** Duplicate each of 16 mask bits into an adjacent pair: bit i of m
 *  sets bits 2i and 2i+1 (AL write mask -> ML mask). */
constexpr uint32_t
expandMask16to32(uint16_t m)
{
    uint32_t x = m;
    x = (x | (x << 8)) & 0x00ff00ffu;
    x = (x | (x << 4)) & 0x0f0f0f0fu;
    x = (x | (x << 2)) & 0x33333333u;
    x = (x | (x << 1)) & 0x55555555u;
    return x | (x << 1);
}

/** Per-lane macSkipF32(c, a, b) for lanes set in wm; other lanes keep
 *  c bit-exactly. */
inline VecReg
macSkipF32Vec(const VecReg &a, const VecReg &b, const VecReg &c,
              uint16_t wm)
{
    VecReg r = c;
    for (int lane = 0; lane < kVecLanes; ++lane) {
        if ((wm >> lane) & 1)
            r.setF32(lane,
                     macSkipF32(c.f32(lane), a.f32(lane), b.f32(lane)));
    }
    return r;
}

/**
 * Per-AL mixed-precision MAC: for each accumulator lane, apply
 * bf16MacSkip for its even ML then its odd ML (sequential FP32
 * roundings, VDPBF16PS program order), restricted to the MLs set in
 * ml_mask. ALs with no ML selected keep c bit-exactly.
 */
inline VecReg
bf16MacSkipVec(const VecReg &a, const VecReg &b, const VecReg &c,
               uint32_t ml_mask)
{
    VecReg r = c;
    for (int lane = 0; lane < kVecLanes; ++lane) {
        if (!((ml_mask >> (kMlPerAl * lane)) & 0x3u))
            continue;
        float v = c.f32(lane);
        for (int s = 0; s < kMlPerAl; ++s) {
            int ml = kMlPerAl * lane + s;
            if ((ml_mask >> ml) & 1)
                v = bf16MacSkip(v, a.bf16(ml), b.bf16(ml));
        }
        r.setF32(lane, v);
    }
    return r;
}

/** Effectual-lane mask: bit i set iff a.f32(i) != 0 && b.f32(i) != 0
 *  (NaN counts as nonzero), ANDed with wm. */
inline uint16_t
elmF32(const VecReg &a, const VecReg &b, uint16_t wm)
{
    uint16_t elm = 0;
    for (int lane = 0; lane < kVecLanes; ++lane) {
        unsigned eff = static_cast<unsigned>(a.f32(lane) != 0.0f) &
                       static_cast<unsigned>(b.f32(lane) != 0.0f);
        elm |= static_cast<uint16_t>(eff << lane);
    }
    return elm & wm;
}

/** Mixed-precision ELM: bit ml set iff neither bf16 multiplicand is a
 *  signed zero and the AL's wm bit is set. Both BF16 halves of each
 *  32-bit word are tested with masks, so there is no per-ML loop. */
inline uint32_t
elmMp(const VecReg &a, const VecReg &b, uint16_t wm)
{
    uint32_t elm = 0;
    for (int lane = 0; lane < kVecLanes; ++lane) {
        const uint32_t wa = a.word(lane);
        const uint32_t wb = b.word(lane);
        const uint32_t lo = static_cast<uint32_t>((wa & 0x7fffu) != 0) &
                            static_cast<uint32_t>((wb & 0x7fffu) != 0);
        const uint32_t hi =
            static_cast<uint32_t>((wa & 0x7fff0000u) != 0) &
            static_cast<uint32_t>((wb & 0x7fff0000u) != 0);
        elm |= (lo | hi << 1) << (kMlPerAl * lane);
    }
    return elm & expandMask16to32(wm);
}

/** Bit i set iff FP32 lane i of v is a (signed) zero. */
inline uint16_t
zeroMaskF32(const VecReg &v)
{
    uint16_t m = 0;
    for (int lane = 0; lane < kVecLanes; ++lane) {
        if (v.f32(lane) == 0.0f)
            m |= static_cast<uint16_t>(1u << lane);
    }
    return m;
}

/** Bit ml set iff BF16 lane ml of v is a (signed) zero. */
inline uint32_t
zeroMaskBf16(const VecReg &v)
{
    uint32_t m = 0;
    for (int ml = 0; ml < kMlLanes; ++ml) {
        if (bf16IsZero(v.bf16(ml)))
            m |= 1u << ml;
    }
    return m;
}

} // namespace save::simd

#endif // SAVE_UTIL_SIMD_H
