#include "mem/broadcast_cache.h"

#include "mem/memory_image.h"
#include "util/logging.h"

namespace save {

BroadcastCache::BroadcastCache(BcastCacheKind kind, int entries,
                               const MemoryImage *mem)
    : kind_(kind), entries_(entries), mem_(mem)
{
    SAVE_ASSERT(entries_ > 0, "B$ needs entries");
    table_.assign(static_cast<size_t>(entries_), Entry{});
}

int
BroadcastCache::indexOf(uint64_t line) const
{
    return static_cast<int>((line / kLineBytes) %
                            static_cast<uint64_t>(entries_));
}

BcastResult
BroadcastCache::access(uint64_t addr)
{
    BcastResult res;
    if (kind_ == BcastCacheKind::None) {
        res.needsL1 = true;
        return res;
    }

    uint64_t line = lineOf(addr);
    Entry &e = table_[static_cast<size_t>(indexOf(line))];

    if (e.valid && e.line == line) {
        res.hit = true;
        st_hits_.add();
        if (kind_ == BcastCacheKind::Data) {
            // Data design: the element is served from the B$ whether it
            // is zero or not (paper Fig.6c/6e).
            res.needsL1 = false;
        } else {
            // Mask design: zero elements broadcast zero without an L1
            // read; non-zero elements still fetch data (Fig.6d/6f).
            int elem = static_cast<int>((addr - line) / 4);
            bool is_zero = (e.zero_mask >> elem) & 1;
            res.needsL1 = !is_zero;
            if (is_zero)
                st_zero_short_circuits_.add();
        }
        return res;
    }

    // Miss: fetch the line through the L1-D and install it (Fig.6a/6b).
    st_misses_.add();
    e.valid = true;
    e.line = line;
    e.zero_mask = mem_->contains(line) ? mem_->lineZeroMaskF32(line) : 0;
    res.hit = false;
    res.needsL1 = true;
    res.filled = true;
    return res;
}

BcastResult
BroadcastCache::probeOnly(uint64_t addr) const
{
    BcastResult res;
    if (kind_ == BcastCacheKind::None)
        return res;
    uint64_t line = lineOf(addr);
    const Entry &e = table_[static_cast<size_t>(indexOf(line))];
    if (e.valid && e.line == line) {
        res.hit = true;
        if (kind_ == BcastCacheKind::Data) {
            res.needsL1 = false;
        } else {
            int elem = static_cast<int>((addr - line) / 4);
            res.needsL1 = !((e.zero_mask >> elem) & 1);
        }
        return res;
    }
    res.needsL1 = true;
    res.filled = true;
    return res;
}

void
BroadcastCache::invalidate(uint64_t line_addr)
{
    if (kind_ == BcastCacheKind::None)
        return;
    uint64_t line = lineOf(line_addr);
    Entry &e = table_[static_cast<size_t>(indexOf(line))];
    if (e.valid && e.line == line) {
        e.valid = false;
        st_invalidations_.add();
    }
}

double
BroadcastCache::hitRate() const
{
    double h = stats_.get("hits");
    double m = stats_.get("misses");
    return (h + m) == 0 ? 0.0 : h / (h + m);
}

uint64_t
BroadcastCache::storageBytes() const
{
    // Tag: 64-bit line address is pessimistic; the paper's Table II
    // models ~42-bit tags. Payload: 64B data line or 16-bit mask.
    uint64_t tag_bits = 42;
    uint64_t payload_bits =
        kind_ == BcastCacheKind::Data ? kLineBytes * 8 : 16;
    if (kind_ == BcastCacheKind::None)
        return 0;
    return static_cast<uint64_t>(entries_) * (tag_bits + payload_bits + 1)
           / 8;
}

} // namespace save
