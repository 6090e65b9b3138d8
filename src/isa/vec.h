/**
 * @file
 * A 512-bit vector register value with FP32-lane and BF16-lane views.
 *
 * The same 64 bytes back both views: FP32 lane i is 32-bit word i;
 * BF16 multiplicand lane j is the low (j even) or high (j odd) half of
 * word j/2. This mirrors the AVX-512 register layout that VDPBF16PS
 * operates on (two adjacent BF16 lanes form the group feeding one FP32
 * accumulator lane).
 */

#ifndef SAVE_ISA_VEC_H
#define SAVE_ISA_VEC_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "isa/bf16.h"

namespace save {

/** FP32 lanes in a 512-bit vector. */
constexpr int kVecLanes = 16;
/** BF16 multiplicand lanes in a 512-bit vector. */
constexpr int kMlLanes = 32;
/** BF16 multiplicand lanes per FP32 accumulator lane. */
constexpr int kMlPerAl = 2;

/** 512-bit register value. */
class VecReg
{
  public:
    VecReg() { words_.fill(0); }

    float
    f32(int lane) const
    {
        return std::bit_cast<float>(words_[static_cast<size_t>(lane)]);
    }

    void
    setF32(int lane, float v)
    {
        words_[static_cast<size_t>(lane)] = std::bit_cast<uint32_t>(v);
    }

    Bf16
    bf16(int ml) const
    {
        uint32_t w = words_[static_cast<size_t>(ml / 2)];
        return static_cast<Bf16>((ml & 1) ? (w >> 16) : (w & 0xffffu));
    }

    void
    setBf16(int ml, Bf16 v)
    {
        uint32_t &w = words_[static_cast<size_t>(ml / 2)];
        if (ml & 1)
            w = (w & 0x0000ffffu) | (static_cast<uint32_t>(v) << 16);
        else
            w = (w & 0xffff0000u) | v;
    }

    uint32_t word(int i) const { return words_[static_cast<size_t>(i)]; }
    void setWord(int i, uint32_t v) { words_[static_cast<size_t>(i)] = v; }

    /** Fill every FP32 lane with the same scalar (broadcast). */
    static VecReg
    broadcastF32(float v)
    {
        VecReg r;
        for (int i = 0; i < kVecLanes; ++i)
            r.setF32(i, v);
        return r;
    }

    /** Fill every 32-bit word with the same bits (embedded broadcast:
     *  one FP32 scalar, or one BF16 pair for VDPBF16PS). */
    static VecReg
    broadcastWord(uint32_t w)
    {
        VecReg r;
        for (int i = 0; i < kVecLanes; ++i)
            r.setWord(i, w);
        return r;
    }

    /** Fill every BF16 pair with the same two scalars (32-bit bcast). */
    static VecReg
    broadcastBf16Pair(Bf16 lo, Bf16 hi)
    {
        VecReg r;
        for (int i = 0; i < kVecLanes; ++i) {
            r.setBf16(2 * i, lo);
            r.setBf16(2 * i + 1, hi);
        }
        return r;
    }

    bool
    operator==(const VecReg &o) const
    {
        return words_ == o.words_;
    }

  private:
    std::array<uint32_t, kVecLanes> words_;
};

} // namespace save

#endif // SAVE_ISA_VEC_H
