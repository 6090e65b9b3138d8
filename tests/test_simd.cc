/**
 * @file
 * Lane-math tests (isa/bf16.h, util/simd.h).
 *
 * The pipeline and the ArchExecutor oracle share the whole-register
 * helpers of util/simd.h, so the differential fuzzer cannot catch a
 * bug in them: both sides would agree on the wrong bits. This suite
 * pins them down directly:
 *
 *  - exhaustive 2^16 BF16 widen/narrow round-trip (the only values
 *    that may change are signaling NaNs, which pick up the quiet bit);
 *  - round-to-nearest-even boundaries of f32ToBf16, including the
 *    overflow-to-infinity edge;
 *  - NaN canonicalization: computed NaNs collapse to 0x7fc00000,
 *    pass-through NaNs keep their payload bit-exactly;
 *  - randomized VecRegs (zeros, denormals, infinities, NaN payloads)
 *    through every helper, compared word-for-word against an
 *    independent scalar model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>

#include "isa/bf16.h"
#include "isa/vec.h"
#include "util/simd.h"

namespace save {
namespace {

TEST(Bf16, RoundTripExhaustive)
{
    // Widen-then-narrow is the identity for every BF16 value except
    // signaling NaNs, which f32ToBf16 quiets (payload kept, quiet bit
    // forced) exactly as the hardware conversion does.
    for (uint32_t v = 0; v <= 0xffffu; ++v) {
        Bf16 in = static_cast<Bf16>(v);
        Bf16 out = f32ToBf16(bf16ToF32(in));
        bool is_nan = (v & 0x7f80u) == 0x7f80u && (v & 0x007fu);
        Bf16 expect = is_nan ? static_cast<Bf16>(v | 0x0040u) : in;
        ASSERT_EQ(out, expect) << "bf16 0x" << std::hex << v;
    }
}

TEST(Bf16, RoundToNearestEvenBoundaries)
{
    struct Case
    {
        uint32_t f32Bits;
        Bf16 expect;
    };
    // Guard/round/sticky boundaries around 1.0 + n ULPs, negative
    // ties, and the overflow-to-infinity edge at FLT_MAX.
    const Case cases[] = {
        {0x3f808000u, 0x3f80}, // exact tie, even lane: stays
        {0x3f818000u, 0x3f82}, // exact tie, odd lane: up to even
        {0x3f808001u, 0x3f81}, // just above the tie: up
        {0x3f807fffu, 0x3f80}, // just below the tie: down
        {0x3f80ffffu, 0x3f81}, // top of the interval: up
        {0xbf808000u, 0xbf80}, // negative tie, even: stays
        {0xbf818000u, 0xbf82}, // negative tie, odd: away from zero
        {0x7f7fffffu, 0x7f80}, // FLT_MAX rounds to +inf
        {0xff7fffffu, 0xff80}, // -FLT_MAX rounds to -inf
        {0x00008000u, 0x0000}, // denormal tie at zero: stays +0
        {0x00018000u, 0x0002}, // denormal tie, odd: up to even
    };
    for (const Case &c : cases)
        EXPECT_EQ(f32ToBf16(std::bit_cast<float>(c.f32Bits)), c.expect)
            << "f32 0x" << std::hex << c.f32Bits;
}

TEST(SimdOps, NanCanonicalization)
{
    const uint32_t payload = 0x7fc12345u; // non-canonical quiet NaN

    // Computed NaN (NaN operand on an effectual lane, and
    // Inf + -Inf from the accumulate) collapses to 0x7fc00000.
    VecReg a, bb, c;
    a.setWord(0, payload);
    bb.setF32(0, 1.0f);
    c.setF32(0, 2.0f);
    a.setF32(1, std::bit_cast<float>(0x7f800000u)); // +inf
    bb.setF32(1, 1.0f);
    c.setF32(1, std::bit_cast<float>(0xff800000u)); // -inf
    VecReg r = simd::macSkipF32Vec(a, bb, c, 0x0003u);
    EXPECT_EQ(r.word(0), 0x7fc00000u);
    EXPECT_EQ(r.word(1), 0x7fc00000u);

    // Pass-through NaN: a zero multiplicand skips the MAC, and a
    // masked-off lane never executes; both keep the accumulator's
    // payload untouched.
    VecReg az, bz, cz;
    cz.setWord(0, payload);
    az.setWord(0, payload);          // a is NaN but b is +0: skip
    cz.setWord(1, payload);
    az.setF32(1, 3.0f);
    bz.setF32(1, 3.0f);              // effectual but masked off
    VecReg rz = simd::macSkipF32Vec(az, bz, cz, 0x0001u);
    EXPECT_EQ(rz.word(0), payload);
    EXPECT_EQ(rz.word(1), payload);

    // BF16: a computed NaN result is canonical too.
    VecReg am, bm, cm;
    am.setBf16(0, 0x7fc1);           // quiet NaN multiplicand
    bm.setBf16(0, 0x3f80);           // 1.0
    cm.setF32(0, 1.0f);
    VecReg rm = simd::bf16MacSkipVec(am, bm, cm, 0x00000001u);
    EXPECT_EQ(rm.word(0), 0x7fc00000u);
}

/** One word drawn from a special-value-heavy distribution. */
uint32_t
randomWord(std::mt19937_64 &rng)
{
    switch (rng() % 8) {
    case 0:
        return 0x00000000u; // +0
    case 1:
        return 0x80000000u; // -0
    case 2:
        return 0x7f800000u | (rng() & 1 ? 0x80000000u : 0); // +-inf
    case 3:
        return 0x7f800000u | (rng() % 0x007fffffu) |
               (rng() & 1 ? 0x80000000u : 0); // NaN, random payload
    case 4:
        return static_cast<uint32_t>(rng()) & 0x007fffffu; // denormal
    case 5:
        return (rng() & 1 ? 0x00000000u : 0x80000000u) |
               (static_cast<uint32_t>(rng()) & 0x0000ffffu) << 16 |
               (rng() & 1 ? 0x00008000u : 0); // bf16-ish halves
    default:
        return static_cast<uint32_t>(rng()); // anything
    }
}

VecReg
randomVec(std::mt19937_64 &rng)
{
    VecReg v;
    for (int i = 0; i < kVecLanes; ++i)
        v.setWord(i, randomWord(rng));
    return v;
}

/** An independent scalar model of the util/simd.h helpers, built on
 *  isa/bf16.h: bit tests instead of float compares, and a `touched`
 *  flag instead of the AL pre-check. */
struct ScalarModel
{
    static VecReg
    macSkipF32Vec(const VecReg &a, const VecReg &b, const VecReg &c,
                  uint16_t wm)
    {
        VecReg r = c;
        for (int i = 0; i < kVecLanes; ++i)
            if ((wm >> i) & 1)
                r.setF32(i, macSkipF32(c.f32(i), a.f32(i), b.f32(i)));
        return r;
    }

    static VecReg
    bf16MacSkipVec(const VecReg &a, const VecReg &b, const VecReg &c,
                   uint32_t ml_mask)
    {
        VecReg r = c;
        for (int al = 0; al < kVecLanes; ++al) {
            float acc = c.f32(al);
            bool touched = false;
            for (int half = 0; half < kMlPerAl; ++half) {
                int ml = kMlPerAl * al + half;
                if ((ml_mask >> ml) & 1) {
                    acc = bf16MacSkip(acc, a.bf16(ml), b.bf16(ml));
                    touched = true;
                }
            }
            if (touched)
                r.setF32(al, acc);
        }
        return r;
    }

    static uint16_t
    elmF32(const VecReg &a, const VecReg &b, uint16_t wm)
    {
        uint16_t m = 0;
        for (int i = 0; i < kVecLanes; ++i)
            if (((wm >> i) & 1) && !f32BitsAreZero(a.word(i)) &&
                !f32BitsAreZero(b.word(i)))
                m |= static_cast<uint16_t>(1u << i);
        return m;
    }

    static uint32_t
    elmMp(const VecReg &a, const VecReg &b, uint16_t wm)
    {
        uint32_t m = 0;
        for (int ml = 0; ml < kMlLanes; ++ml)
            if (((wm >> (ml / kMlPerAl)) & 1) &&
                !bf16IsZero(a.bf16(ml)) && !bf16IsZero(b.bf16(ml)))
                m |= 1u << ml;
        return m;
    }

    static uint16_t
    zeroMaskF32(const VecReg &v)
    {
        uint16_t m = 0;
        for (int i = 0; i < kVecLanes; ++i)
            if (f32BitsAreZero(v.word(i)))
                m |= static_cast<uint16_t>(1u << i);
        return m;
    }

    static uint32_t
    zeroMaskBf16(const VecReg &v)
    {
        uint32_t m = 0;
        for (int ml = 0; ml < kMlLanes; ++ml)
            if (bf16IsZero(v.bf16(ml)))
                m |= 1u << ml;
        return m;
    }
};

TEST(SimdOps, MatchScalarModelOnRandomVecRegs)
{
    std::mt19937_64 rng(20260808);
    constexpr int kIters = 500;

    for (int it = 0; it < kIters; ++it) {
        VecReg a = randomVec(rng);
        VecReg b = randomVec(rng);
        VecReg c = randomVec(rng);
        uint16_t wm = static_cast<uint16_t>(rng());
        uint32_t mlm = static_cast<uint32_t>(rng());

        VecReg exp_mac = ScalarModel::macSkipF32Vec(a, b, c, wm);
        VecReg exp_dp = ScalarModel::bf16MacSkipVec(a, b, c, mlm);
        uint16_t exp_elm = ScalarModel::elmF32(a, b, wm);
        uint32_t exp_elmmp = ScalarModel::elmMp(a, b, wm);
        uint16_t exp_zf = ScalarModel::zeroMaskF32(a);
        uint32_t exp_zb = ScalarModel::zeroMaskBf16(b);

        SCOPED_TRACE("iter " + std::to_string(it));
        EXPECT_EQ(simd::macSkipF32Vec(a, b, c, wm), exp_mac);
        EXPECT_EQ(simd::bf16MacSkipVec(a, b, c, mlm), exp_dp);
        EXPECT_EQ(simd::elmF32(a, b, wm), exp_elm);
        EXPECT_EQ(simd::elmMp(a, b, wm), exp_elmmp);
        EXPECT_EQ(simd::zeroMaskF32(a), exp_zf);
        EXPECT_EQ(simd::zeroMaskBf16(b), exp_zb);
    }
}

} // namespace
} // namespace save
