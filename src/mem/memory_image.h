/**
 * @file
 * Sparse functional memory: a set of registered regions backed by host
 * buffers. Kernels register their matrices here; loads in the simulator
 * read real data from it, which is what makes sparsity functional
 * (the MGU checks actual operand values).
 */

#ifndef SAVE_MEM_MEMORY_IMAGE_H
#define SAVE_MEM_MEMORY_IMAGE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "isa/vec.h"

namespace save {

/** Cache line size in bytes, fixed at 64 throughout the model. */
constexpr uint64_t kLineBytes = 64;

/** Line-aligned address of the line containing addr. */
inline uint64_t
lineOf(uint64_t addr)
{
    return addr & ~(kLineBytes - 1);
}

/** [base, bytes) address ranges, warmed into L3 line by line in order
 *  (a kernel's warm-up protocol; SRRIP state depends on the order). */
using WarmRanges = std::vector<std::pair<uint64_t, uint64_t>>;

/** Functional memory image. */
class MemoryImage
{
  public:
    /**
     * Register a region of `bytes` bytes at `base`. Returns the base.
     * Regions must not overlap. Contents are zero-initialized.
     */
    uint64_t addRegion(uint64_t base, uint64_t bytes);

    /** Allocate a region after all existing ones (64B aligned). */
    uint64_t allocRegion(uint64_t bytes);

    float readF32(uint64_t addr) const;
    void writeF32(uint64_t addr, float v);

    uint32_t readU32(uint64_t addr) const;
    void writeU32(uint64_t addr, uint32_t v);

    Bf16 readBf16(uint64_t addr) const;
    void writeBf16(uint64_t addr, Bf16 v);

    /** Raw byte store into a registered region (trace replay). */
    void writeBytes(uint64_t addr, const uint8_t *src, uint64_t n);

    /** The n > 0 bytes at addr, which must lie in one registered
     *  region: bulk fills write through one lookup. */
    uint8_t *bytes(uint64_t addr, uint64_t n);

    /** Read the 64B line containing addr as a vector register value. */
    VecReg readLine(uint64_t addr) const;
    void writeLine(uint64_t addr, const VecReg &v);

    /** True if every FP32 element of the 64B line at addr is zero. */
    uint16_t lineZeroMaskF32(uint64_t addr) const;

    bool contains(uint64_t addr) const;

    /** Region enumeration, in registration order (trace capture). */
    size_t numRegions() const { return regions_.size(); }
    uint64_t regionBase(size_t i) const { return regions_[i].base; }
    const std::vector<uint8_t> &regionData(size_t i) const
    {
        return regions_[i].data;
    }

  private:
    struct Region
    {
        uint64_t base;
        std::vector<uint8_t> data;
    };

    const Region *find(uint64_t addr) const;
    Region *find(uint64_t addr);

    std::vector<Region> regions_;
    uint64_t next_base_ = 0x10000;
};

} // namespace save

#endif // SAVE_MEM_MEMORY_IMAGE_H
