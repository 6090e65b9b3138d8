#include "mem/memory_image.h"

#include <cstring>
#include <type_traits>

#include "util/logging.h"
#include "util/simd.h"

namespace save {

uint64_t
MemoryImage::addRegion(uint64_t base, uint64_t bytes)
{
    for (const auto &r : regions_) {
        bool overlap = base < r.base + r.data.size() &&
                       r.base < base + bytes;
        SAVE_ASSERT(!overlap, "overlapping memory regions");
    }
    regions_.push_back({base, std::vector<uint8_t>(bytes, 0)});
    if (base + bytes > next_base_)
        next_base_ = (base + bytes + kLineBytes - 1) & ~(kLineBytes - 1);
    return base;
}

uint64_t
MemoryImage::allocRegion(uint64_t bytes)
{
    return addRegion(next_base_, bytes);
}

const MemoryImage::Region *
MemoryImage::find(uint64_t addr) const
{
    for (const auto &r : regions_)
        if (addr >= r.base && addr < r.base + r.data.size())
            return &r;
    return nullptr;
}

MemoryImage::Region *
MemoryImage::find(uint64_t addr)
{
    return const_cast<Region *>(
        static_cast<const MemoryImage *>(this)->find(addr));
}

bool
MemoryImage::contains(uint64_t addr) const
{
    return find(addr) != nullptr;
}

float
MemoryImage::readF32(uint64_t addr) const
{
    uint32_t u = readU32(addr);
    float f;
    std::memcpy(&f, &u, 4);
    return f;
}

void
MemoryImage::writeF32(uint64_t addr, float v)
{
    uint32_t u;
    std::memcpy(&u, &v, 4);
    writeU32(addr, u);
}

uint32_t
MemoryImage::readU32(uint64_t addr) const
{
    const Region *r = find(addr);
    SAVE_ASSERT(r && addr + 4 <= r->base + r->data.size(),
                "read outside registered memory at 0x", std::hex, addr);
    uint32_t u;
    std::memcpy(&u, r->data.data() + (addr - r->base), 4);
    return u;
}

void
MemoryImage::writeU32(uint64_t addr, uint32_t v)
{
    Region *r = find(addr);
    SAVE_ASSERT(r && addr + 4 <= r->base + r->data.size(),
                "write outside registered memory at 0x", std::hex, addr);
    std::memcpy(r->data.data() + (addr - r->base), &v, 4);
}

void
MemoryImage::writeBytes(uint64_t addr, const uint8_t *src, uint64_t n)
{
    if (n == 0)
        return;
    Region *r = find(addr);
    SAVE_ASSERT(r && addr + n <= r->base + r->data.size(),
                "write outside registered memory at 0x", std::hex, addr);
    std::memcpy(r->data.data() + (addr - r->base), src, n);
}

uint8_t *
MemoryImage::bytes(uint64_t addr, uint64_t n)
{
    Region *r = find(addr);
    SAVE_ASSERT(r && addr + n <= r->base + r->data.size(),
                "write outside registered memory at 0x", std::hex, addr);
    return r->data.data() + (addr - r->base);
}

Bf16
MemoryImage::readBf16(uint64_t addr) const
{
    const Region *r = find(addr);
    SAVE_ASSERT(r && addr + 2 <= r->base + r->data.size(),
                "read outside registered memory at 0x", std::hex, addr);
    Bf16 v;
    std::memcpy(&v, r->data.data() + (addr - r->base), 2);
    return v;
}

void
MemoryImage::writeBf16(uint64_t addr, Bf16 v)
{
    Region *r = find(addr);
    SAVE_ASSERT(r && addr + 2 <= r->base + r->data.size(),
                "write outside registered memory at 0x", std::hex, addr);
    std::memcpy(r->data.data() + (addr - r->base), &v, 2);
}

// A line moves as one 64-byte copy of the register's 16 words.
static_assert(sizeof(VecReg) == kLineBytes &&
              std::is_trivially_copyable_v<VecReg>);

VecReg
MemoryImage::readLine(uint64_t addr) const
{
    uint64_t base = lineOf(addr);
    VecReg v;
    const Region *r = find(base);
    if (r && base + kLineBytes <= r->base + r->data.size()) {
        std::memcpy(&v, r->data.data() + (base - r->base), kLineBytes);
        return v;
    }
    // A line not inside one region reads (and fails) word by word.
    for (int i = 0; i < kVecLanes; ++i)
        v.setWord(i, readU32(base + 4 * static_cast<uint64_t>(i)));
    return v;
}

void
MemoryImage::writeLine(uint64_t addr, const VecReg &v)
{
    uint64_t base = lineOf(addr);
    Region *r = find(base);
    if (r && base + kLineBytes <= r->base + r->data.size()) {
        std::memcpy(r->data.data() + (base - r->base), &v, kLineBytes);
        return;
    }
    for (int i = 0; i < kVecLanes; ++i)
        writeU32(base + 4 * static_cast<uint64_t>(i), v.word(i));
}

uint16_t
MemoryImage::lineZeroMaskF32(uint64_t addr) const
{
    return simd::zeroMaskF32(readLine(addr));
}

} // namespace save
