/**
 * @file
 * Set-associative cache tag model with LRU and SRRIP replacement.
 *
 * Tags-only: data lives in the MemoryImage. The hierarchy uses these
 * for hit/miss decisions; an eviction callback lets inclusive outer
 * levels back-invalidate inner levels (and the broadcast cache).
 */

#ifndef SAVE_MEM_CACHE_H
#define SAVE_MEM_CACHE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "stats/stats.h"

namespace save {

/** Replacement policy selection. */
enum class ReplPolicy : uint8_t { Lru, Srrip };

/** Set-associative tag array. */
class SetAssocCache
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param ways Associativity (sets = size / (ways * 64) rounded
     *             down to at least 1; non-power-of-two set counts are
     *             allowed and indexed by modulo, as with the paper's
     *             19-way 2.375MB L3 slices).
     */
    SetAssocCache(uint64_t size_bytes, int ways,
                  ReplPolicy policy = ReplPolicy::Lru);

    /** True if the line containing addr is present; updates recency. */
    bool access(uint64_t addr);

    /** True if present, without touching replacement state. */
    bool probe(uint64_t addr) const;

    /**
     * Insert the line containing addr, evicting if needed.
     * @return evicted line address, or kNoEviction.
     */
    uint64_t fill(uint64_t addr);

    /** Remove the line if present (back-invalidation). */
    bool invalidate(uint64_t addr);

    static constexpr uint64_t kNoEviction = ~0ull;

    int numSets() const { return num_sets_; }
    int numWays() const { return ways_; }

    StatGroup &stats() { return stats_; }

  private:
    /** 16 bytes: a fresh machine writes every way of every level. */
    struct Way
    {
        uint64_t line = ~0ull;
        uint32_t lru = 0;   // higher == more recently used
        uint8_t rrpv = 3;   // SRRIP re-reference prediction value
        bool valid = false;
    };
    static_assert(sizeof(Way) == 16);

    int setIndex(uint64_t line) const;
    Way *lookup(uint64_t line);
    const Way *lookup(uint64_t line) const;
    int victimWay(int set);
    void touch(Way &w);

    int num_sets_;
    /** num_sets_ - 1 when num_sets_ is a power of two (index by mask),
     *  else 0 (index by modulo). */
    uint64_t set_mask_ = 0;
    int ways_;
    ReplPolicy policy_;
    uint32_t lru_clock_ = 0;
    std::vector<Way> ways_store_;
    StatGroup stats_;
    /** Hot-path counters: resolved handles, no per-access map lookup. */
    StatRef st_hits_{&stats_, "hits"};
    StatRef st_misses_{&stats_, "misses"};
    StatRef st_evictions_{&stats_, "evictions"};
    StatRef st_invalidations_{&stats_, "invalidations"};
};

} // namespace save

#endif // SAVE_MEM_CACHE_H
