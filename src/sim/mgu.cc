#include "sim/mgu.h"

#include "util/simd.h"

namespace save {

uint16_t
elmF32(const VecReg &a, const VecReg &b, uint16_t wm)
{
    // Zero detection over the actual operand values (+-0.0 both count:
    // the product is exactly zero and the accumulation is
    // ineffectual). The oracle shares this lane math (util/simd.h).
    return simd::elmF32(a, b, wm);
}

uint32_t
elmMp(const VecReg &a, const VecReg &b, uint16_t wm)
{
    return simd::elmMp(a, b, wm);
}

uint16_t
mpAlMask(uint32_t ml_mask)
{
    uint16_t al = 0;
    for (int lane = 0; lane < kVecLanes; ++lane) {
        if ((ml_mask >> (kMlPerAl * lane)) & 0x3u)
            al |= static_cast<uint16_t>(1u << lane);
    }
    return al;
}

} // namespace save
