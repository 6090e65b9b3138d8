/**
 * @file
 * Sparsity injection: fills matrix regions with uniformly-random zero
 * placement at a target rate, as the paper's evaluation does (SecVI:
 * "we simulate ... weight and activation sparsities of 0%-90% at 10%
 * intervals, using a uniform random distribution").
 */

#ifndef SAVE_KERNELS_SPARSITY_H
#define SAVE_KERNELS_SPARSITY_H

#include <cstdint>

#include "mem/memory_image.h"
#include "util/random.h"

namespace save {

/** Fill `count` FP32 elements at base, inside one registered region;
 *  each is zero w.p. sparsity. */
void fillF32(MemoryImage &mem, uint64_t base, uint64_t count,
             double sparsity, Rng &rng);

/** Fill `count` BF16 elements at base, inside one registered region;
 *  each is zero w.p. sparsity. */
void fillBf16(MemoryImage &mem, uint64_t base, uint64_t count,
              double sparsity, Rng &rng);

/** Fraction of zero FP32 elements in [base, base+4*count). */
double measuredSparsityF32(const MemoryImage &mem, uint64_t base,
                           uint64_t count);

/** Fraction of zero BF16 elements in [base, base+2*count). */
double measuredSparsityBf16(const MemoryImage &mem, uint64_t base,
                            uint64_t count);

} // namespace save

#endif // SAVE_KERNELS_SPARSITY_H
