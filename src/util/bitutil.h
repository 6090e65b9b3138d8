/**
 * @file
 * Small bit-manipulation helpers used by masks and cache indexing.
 */

#ifndef SAVE_UTIL_BITUTIL_H
#define SAVE_UTIL_BITUTIL_H

#include <bit>
#include <cstdint>

namespace save {

/** Number of set bits. A branch-free SWAR count: without POPCNT in
 *  the target ISA, std::popcount is a call into libgcc. */
inline int
popcount(uint32_t x)
{
    x = x - ((x >> 1) & 0x55555555u);
    x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0fu;
    return static_cast<int>((x * 0x01010101u) >> 24);
}

/** True if x is a power of two (and non-zero). */
inline bool
isPowerOfTwo(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** log2 of a power of two. */
inline int
floorLog2(uint64_t x)
{
    return 63 - std::countl_zero(x);
}

/** Ceiling of log2; bits needed to index x entries. */
inline int
ceilLog2(uint64_t x)
{
    return x <= 1 ? 0 : floorLog2(x - 1) + 1;
}

/** Index of lowest set bit, -1 when mask is zero. */
inline int
lowestSetBit(uint32_t mask)
{
    return mask == 0 ? -1 : std::countr_zero(mask);
}

/** Ceiling integer division. */
template <typename T>
constexpr T
divCeil(T a, T b)
{
    return (a + b - 1) / b;
}

} // namespace save

#endif // SAVE_UTIL_BITUTIL_H
