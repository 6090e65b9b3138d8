#include "kernels/sparsity.h"

#include <cstring>

#include "isa/bf16.h"
#include "util/bitutil.h"
#include "util/simd.h"

namespace save {

void
fillF32(MemoryImage &mem, uint64_t base, uint64_t count, double sparsity,
        Rng &rng)
{
    if (count == 0)
        return;
    uint8_t *out = mem.bytes(base, 4 * count);
    for (uint64_t i = 0; i < count; ++i) {
        float v = rng.chance(sparsity) ? 0.0f : rng.nonZeroValue();
        std::memcpy(out + 4 * i, &v, 4);
    }
}

void
fillBf16(MemoryImage &mem, uint64_t base, uint64_t count, double sparsity,
         Rng &rng)
{
    if (count == 0)
        return;
    uint8_t *out = mem.bytes(base, 2 * count);
    for (uint64_t i = 0; i < count; ++i) {
        Bf16 v = rng.chance(sparsity) ? Bf16{0}
                                      : f32ToBf16(rng.nonZeroValue());
        std::memcpy(out + 2 * i, &v, 2);
    }
}

double
measuredSparsityF32(const MemoryImage &mem, uint64_t base, uint64_t count)
{
    // Whole 64B lines go through the whole-register zero test
    // (util/simd.h); ragged head/tail elements fall back to the
    // scalar read. Both sides count exactly ±0.0f, so the split is
    // invisible in the result.
    uint64_t zeros = 0;
    uint64_t i = 0;
    for (; i < count && (base + 4 * i) % kLineBytes != 0; ++i)
        if (mem.readF32(base + 4 * i) == 0.0f)
            ++zeros;
    for (; i + kVecLanes <= count; i += kVecLanes)
        zeros += popcount(simd::zeroMaskF32(mem.readLine(base + 4 * i)));
    for (; i < count; ++i)
        if (mem.readF32(base + 4 * i) == 0.0f)
            ++zeros;
    return count == 0 ? 0.0
                      : static_cast<double>(zeros) /
                            static_cast<double>(count);
}

double
measuredSparsityBf16(const MemoryImage &mem, uint64_t base, uint64_t count)
{
    constexpr uint64_t kBf16PerLine = kLineBytes / 2;
    uint64_t zeros = 0;
    uint64_t i = 0;
    for (; i < count && (base + 2 * i) % kLineBytes != 0; ++i)
        if (bf16IsZero(mem.readBf16(base + 2 * i)))
            ++zeros;
    for (; i + kBf16PerLine <= count; i += kBf16PerLine)
        zeros += popcount(simd::zeroMaskBf16(mem.readLine(base + 2 * i)));
    for (; i < count; ++i)
        if (bf16IsZero(mem.readBf16(base + 2 * i)))
            ++zeros;
    return count == 0 ? 0.0
                      : static_cast<double>(zeros) /
                            static_cast<double>(count);
}

} // namespace save
