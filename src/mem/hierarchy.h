/**
 * @file
 * The full memory hierarchy: private L1-D and L2 per core, a shared
 * NUCA L3 (one slice per tile, SRRIP) reached over the 2D-mesh NoC,
 * and bandwidth-limited DRAM behind it. Matches the paper's Table I.
 *
 * Timing is kept in nanoseconds internally so that the core clock can
 * change (1 VPU @ 2.1GHz vs 2 VPUs @ 1.7GHz) without touching uncore
 * latencies: L1/L2 hit latencies are core cycles (they scale with the
 * core clock); L3, NoC and DRAM are in the fixed uncore domain.
 *
 * A stream prefetcher with configurable degree runs on L2 misses;
 * in-flight lines are tracked MSHR-style so demand requests merge with
 * outstanding prefetches instead of re-paying DRAM.
 */

#ifndef SAVE_MEM_HIERARCHY_H
#define SAVE_MEM_HIERARCHY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/memory_image.h"
#include "mem/mesh.h"
#include "sim/config.h"
#include "stats/stats.h"

namespace save {

/** Which level serviced an access (for stats). */
enum class HitLevel : uint8_t { L1, L2, L3, Dram, Inflight };

/** The shared memory system. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MachineConfig &cfg);

    /**
     * Demand load of the line containing addr.
     * @param core Requesting core id.
     * @param now_ns Absolute issue time.
     * @param core_ghz Active core frequency (scales L1/L2 latency).
     * @return completion time in ns.
     */
    double load(int core, uint64_t addr, double now_ns, double core_ghz);

    /** Store: allocates into L1; off the critical path timing-wise. */
    void store(int core, uint64_t addr, double now_ns, double core_ghz);

    /** Pre-load the line into L3 only (paper SecVI warm-up protocol). */
    void warmL3(uint64_t addr);
    /** warmL3 every line of `ranges`, in order. */
    void warmL3(const WarmRanges &ranges);
    /** Pre-load the line into this core's whole private path + L3. */
    void warmAll(int core, uint64_t addr);

    /**
     * Subscribe to L1-D line evictions/invalidations on one core
     * (used for broadcast-cache coherence).
     */
    void setL1EvictListener(int core, std::function<void(uint64_t)> fn);

    HitLevel lastLevel() const { return last_level_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    SetAssocCache &l1(int core) { return *l1_[static_cast<size_t>(core)]; }
    SetAssocCache &l2(int core) { return *l2_[static_cast<size_t>(core)]; }

  private:
    /** Fill one core's L1, honoring inclusion listeners. */
    void fillL1(int core, uint64_t line);
    void fillL2(int core, uint64_t line);
    /** Fill L3; evictions back-invalidate every core (inclusive). */
    void fillL3(uint64_t line);

    /**
     * Time at which the line is available at this core's L2 boundary,
     * walking L3/DRAM as needed. Shared-resource contention (slice
     * serialization, DRAM channels) is applied here.
     */
    double fetchToL2(int core, uint64_t line, double start_ns);

    void maybePrefetch(int core, uint64_t line, double now_ns);

    const MachineConfig cfg_;
    MeshNoc mesh_;
    Dram dram_;
    std::vector<std::unique_ptr<SetAssocCache>> l1_;
    std::vector<std::unique_ptr<SetAssocCache>> l2_;
    std::vector<std::unique_ptr<SetAssocCache>> l3_;
    std::vector<double> slice_free_ns_;
    /** Per-core in-flight fills: line -> ready time (MSHR + prefetch). */
    std::vector<std::unordered_map<uint64_t, double>> inflight_;
    std::vector<std::function<void(uint64_t)>> l1_listeners_;
    HitLevel last_level_ = HitLevel::L1;
    StatGroup stats_;
    /** Hot-path counters: resolved handles, no per-access map lookup. */
    StatRef st_loads_;
    StatRef st_stores_;
    StatRef st_l1_hits_;
    StatRef st_l2_hits_;
    StatRef st_l3_hits_;
    StatRef st_l3_misses_;
    StatRef st_prefetches_;
    StatRef st_mshr_merges_;
};

} // namespace save

#endif // SAVE_MEM_HIERARCHY_H
