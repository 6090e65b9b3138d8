/**
 * @file
 * Broadcast Cache (B$) — paper SecIV-A.
 *
 * A small direct-mapped, read-only cache that exclusively serves
 * broadcast load requests, exploiting the spatial locality of GEMM's
 * broadcasted scalars. Two designs:
 *
 *  - Data: a line holds the broadcasted values from the L1-D line. A
 *    hit serves the element without touching the L1-D at all.
 *  - Mask: a line holds one bit per FP32 element saying whether it is
 *    zero. A hit on a zero element broadcasts zero without touching
 *    the L1-D; a hit on a non-zero element must still read the L1-D.
 *
 * The B$ is kept coherent with the L1-D by invalidation on L1 line
 * eviction/invalidation.
 */

#ifndef SAVE_MEM_BROADCAST_CACHE_H
#define SAVE_MEM_BROADCAST_CACHE_H

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "stats/stats.h"

namespace save {

class MemoryImage;

/** Outcome of a broadcast lookup. */
struct BcastResult
{
    /** Tag matched. */
    bool hit = false;
    /** The requested element must still be read through the L1-D port. */
    bool needsL1 = true;
    /** On a miss, the fetched line is installed (costs an L1 access). */
    bool filled = false;
};

/** The Broadcast Cache model. */
class BroadcastCache
{
  public:
    BroadcastCache(BcastCacheKind kind, int entries,
                   const MemoryImage *mem);

    /**
     * Look up a broadcast of the FP32/BF16-pair element at addr.
     * Misses fill the entry from the (functional) memory image.
     */
    BcastResult access(uint64_t addr);

    /** Same decision as access() without mutating the cache (used by
     *  the load unit to check port needs before committing). */
    BcastResult probeOnly(uint64_t addr) const;

    /** Back-invalidate on L1-D eviction of the line at addr. */
    void invalidate(uint64_t line_addr);

    BcastCacheKind kind() const { return kind_; }
    double hitRate() const;

    /** Storage cost in bytes of the tag+payload arrays (Table II). */
    uint64_t storageBytes() const;

    StatGroup &stats() { return stats_; }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t line = 0;
        uint16_t zero_mask = 0; // Mask design payload
    };

    int indexOf(uint64_t line) const;

    BcastCacheKind kind_;
    int entries_;
    const MemoryImage *mem_;
    std::vector<Entry> table_;
    StatGroup stats_;
    /** Hot-path counters: resolved handles, no per-access map lookup. */
    StatRef st_hits_{&stats_, "hits"};
    StatRef st_misses_{&stats_, "misses"};
    StatRef st_zero_short_circuits_{&stats_, "zero_short_circuits"};
    StatRef st_invalidations_{&stats_, "invalidations"};
};

} // namespace save

#endif // SAVE_MEM_BROADCAST_CACHE_H
