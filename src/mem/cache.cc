#include "mem/cache.h"

#include "mem/memory_image.h"
#include "util/bitutil.h"
#include "util/logging.h"

namespace save {

namespace {
/** SRRIP parameters for a 2-bit RRPV (Jaleel et al., via gem5). */
constexpr uint8_t kRrpvMax = 3;
constexpr uint8_t kRrpvInsert = 2; // long re-reference on insert
} // namespace

SetAssocCache::SetAssocCache(uint64_t size_bytes, int ways,
                             ReplPolicy policy)
    : ways_(ways), policy_(policy)
{
    SAVE_ASSERT(ways >= 1, "cache needs at least one way");
    uint64_t lines = size_bytes / kLineBytes;
    num_sets_ = static_cast<int>(lines / static_cast<uint64_t>(ways));
    if (num_sets_ < 1)
        num_sets_ = 1;
    if (isPowerOfTwo(static_cast<uint64_t>(num_sets_)))
        set_mask_ = static_cast<uint64_t>(num_sets_) - 1;
    ways_store_.assign(static_cast<size_t>(num_sets_) *
                       static_cast<size_t>(ways_), Way{});
}

int
SetAssocCache::setIndex(uint64_t line) const
{
    const uint64_t n = line / kLineBytes;
    return static_cast<int>(set_mask_ ? n & set_mask_
                                      : n % static_cast<uint64_t>(num_sets_));
}

SetAssocCache::Way *
SetAssocCache::lookup(uint64_t line)
{
    int set = setIndex(line);
    Way *base = &ways_store_[static_cast<size_t>(set) *
                             static_cast<size_t>(ways_)];
    for (int w = 0; w < ways_; ++w)
        if (base[w].valid && base[w].line == line)
            return &base[w];
    return nullptr;
}

const SetAssocCache::Way *
SetAssocCache::lookup(uint64_t line) const
{
    return const_cast<SetAssocCache *>(this)->lookup(line);
}

void
SetAssocCache::touch(Way &w)
{
    w.lru = ++lru_clock_;
    w.rrpv = 0; // SRRIP: promote to near-immediate re-reference
}

bool
SetAssocCache::access(uint64_t addr)
{
    uint64_t line = lineOf(addr);
    Way *w = lookup(line);
    if (w) {
        touch(*w);
        st_hits_.add();
        return true;
    }
    st_misses_.add();
    return false;
}

bool
SetAssocCache::probe(uint64_t addr) const
{
    return lookup(lineOf(addr)) != nullptr;
}

int
SetAssocCache::victimWay(int set)
{
    Way *base = &ways_store_[static_cast<size_t>(set) *
                             static_cast<size_t>(ways_)];
    for (int w = 0; w < ways_; ++w)
        if (!base[w].valid)
            return w;

    if (policy_ == ReplPolicy::Lru) {
        int victim = 0;
        for (int w = 1; w < ways_; ++w)
            if (base[w].lru < base[victim].lru)
                victim = w;
        return victim;
    }

    // SRRIP: find an RRPV==max way, aging the whole set until one shows.
    for (;;) {
        for (int w = 0; w < ways_; ++w)
            if (base[w].rrpv >= kRrpvMax)
                return w;
        for (int w = 0; w < ways_; ++w)
            ++base[w].rrpv;
    }
}

uint64_t
SetAssocCache::fill(uint64_t addr)
{
    uint64_t line = lineOf(addr);
    if (Way *w = lookup(line)) {
        touch(*w);
        return kNoEviction;
    }
    int set = setIndex(line);
    int victim = victimWay(set);
    Way &w = ways_store_[static_cast<size_t>(set) *
                         static_cast<size_t>(ways_) +
                         static_cast<size_t>(victim)];
    uint64_t evicted = w.valid ? w.line : kNoEviction;
    if (w.valid)
        st_evictions_.add();
    w.valid = true;
    w.line = line;
    w.lru = ++lru_clock_;
    w.rrpv = kRrpvInsert;
    return evicted;
}

bool
SetAssocCache::invalidate(uint64_t addr)
{
    Way *w = lookup(lineOf(addr));
    if (!w)
        return false;
    w->valid = false;
    st_invalidations_.add();
    return true;
}

} // namespace save
