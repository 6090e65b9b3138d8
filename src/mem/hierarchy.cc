#include "mem/hierarchy.h"

#include <algorithm>

#include "mem/memory_image.h"
#include "util/logging.h"

namespace save {

MemHierarchy::MemHierarchy(const MachineConfig &cfg)
    : cfg_(cfg), mesh_(cfg.cores, cfg.nocHopCycles),
      dram_(cfg.dramGBps, cfg.dramChannels, cfg.dramLatNs),
      st_loads_(&stats_, "loads"), st_stores_(&stats_, "stores"),
      st_l1_hits_(&stats_, "l1_hits"), st_l2_hits_(&stats_, "l2_hits"),
      st_l3_hits_(&stats_, "l3_hits"),
      st_l3_misses_(&stats_, "l3_misses"),
      st_prefetches_(&stats_, "prefetches"),
      st_mshr_merges_(&stats_, "mshr_merges")
{
    for (int c = 0; c < cfg.cores; ++c) {
        l1_.push_back(std::make_unique<SetAssocCache>(
            static_cast<uint64_t>(cfg.l1SizeKb) * 1024, cfg.l1Ways,
            ReplPolicy::Lru));
        l2_.push_back(std::make_unique<SetAssocCache>(
            static_cast<uint64_t>(cfg.l2SizeKb) * 1024, cfg.l2Ways,
            ReplPolicy::Lru));
        l3_.push_back(std::make_unique<SetAssocCache>(
            static_cast<uint64_t>(cfg.l3SizeKbPerCore * 1024.0),
            cfg.l3Ways, ReplPolicy::Srrip));
    }
    slice_free_ns_.assign(static_cast<size_t>(cfg.cores), 0.0);
    inflight_.resize(static_cast<size_t>(cfg.cores));
    l1_listeners_.resize(static_cast<size_t>(cfg.cores));
}

void
MemHierarchy::setL1EvictListener(int core, std::function<void(uint64_t)> fn)
{
    l1_listeners_[static_cast<size_t>(core)] = std::move(fn);
}

void
MemHierarchy::fillL1(int core, uint64_t line)
{
    uint64_t evicted = l1_[static_cast<size_t>(core)]->fill(line);
    if (evicted != SetAssocCache::kNoEviction &&
        l1_listeners_[static_cast<size_t>(core)]) {
        l1_listeners_[static_cast<size_t>(core)](evicted);
    }
}

void
MemHierarchy::fillL2(int core, uint64_t line)
{
    l2_[static_cast<size_t>(core)]->fill(line);
}

void
MemHierarchy::fillL3(uint64_t line)
{
    int slice = mesh_.sliceOf(line);
    uint64_t evicted = l3_[static_cast<size_t>(slice)]->fill(line);
    if (evicted == SetAssocCache::kNoEviction)
        return;
    // Inclusive L3: evicting a line removes it from every private level.
    for (int c = 0; c < cfg_.cores; ++c) {
        if (l2_[static_cast<size_t>(c)]->invalidate(evicted) ||
            l1_[static_cast<size_t>(c)]->probe(evicted)) {
            if (l1_[static_cast<size_t>(c)]->invalidate(evicted) &&
                l1_listeners_[static_cast<size_t>(c)]) {
                l1_listeners_[static_cast<size_t>(c)](evicted);
            }
        }
    }
}

double
MemHierarchy::fetchToL2(int core, uint64_t line, double start_ns)
{
    int slice = mesh_.sliceOf(line);
    double noc_ns =
        mesh_.latencyCycles(core, slice) / cfg_.uncoreGhz;

    double arrive = start_ns + noc_ns;
    double slice_service = 1.0 / cfg_.uncoreGhz;
    double slice_start =
        std::max(arrive, slice_free_ns_[static_cast<size_t>(slice)]);
    slice_free_ns_[static_cast<size_t>(slice)] =
        slice_start + slice_service;

    double tag_done = slice_start + cfg_.l3LatNs;
    double data_ready;
    if (l3_[static_cast<size_t>(slice)]->access(line)) {
        st_l3_hits_.add();
        data_ready = tag_done;
        last_level_ = HitLevel::L3;
    } else {
        st_l3_misses_.add();
        data_ready = dram_.request(line, tag_done);
        fillL3(line);
        last_level_ = HitLevel::Dram;
    }
    return data_ready + noc_ns;
}

void
MemHierarchy::maybePrefetch(int core, uint64_t line, double now_ns)
{
    // Prefetch walks fetchToL2 too; don't let it clobber the level
    // the demand access was served from.
    HitLevel demand_level = last_level_;
    auto &mshr = inflight_[static_cast<size_t>(core)];
    for (int d = 1; d <= cfg_.prefetchDegree; ++d) {
        uint64_t next = line + static_cast<uint64_t>(d) * kLineBytes;
        if (l2_[static_cast<size_t>(core)]->probe(next))
            continue;
        if (mshr.count(next))
            continue;
        double ready = fetchToL2(core, next, now_ns);
        mshr.emplace(next, ready);
        st_prefetches_.add();
    }
    last_level_ = demand_level;
}

double
MemHierarchy::load(int core, uint64_t addr, double now_ns, double core_ghz)
{
    uint64_t line = lineOf(addr);
    st_loads_.add();

    double l1_lat_ns = cfg_.l1LatCycles / core_ghz;
    if (l1_[static_cast<size_t>(core)]->access(line)) {
        st_l1_hits_.add();
        last_level_ = HitLevel::L1;
        return now_ns + l1_lat_ns;
    }

    double l2_lat_ns = cfg_.l2LatCycles / core_ghz;
    auto &mshr = inflight_[static_cast<size_t>(core)];
    auto it = mshr.find(line);
    if (it != mshr.end()) {
        // Demand request merges with an in-flight (pre)fetch.
        double ready = std::max(it->second, now_ns + l2_lat_ns);
        mshr.erase(it);
        fillL2(core, line);
        fillL1(core, line);
        st_mshr_merges_.add();
        last_level_ = HitLevel::Inflight;
        maybePrefetch(core, line, now_ns);
        return ready;
    }

    if (l2_[static_cast<size_t>(core)]->access(line)) {
        st_l2_hits_.add();
        fillL1(core, line);
        last_level_ = HitLevel::L2;
        return now_ns + l2_lat_ns;
    }

    // L2 miss: go over the NoC to the home slice (and maybe DRAM).
    double ready = fetchToL2(core, line, now_ns + l2_lat_ns);
    fillL2(core, line);
    fillL1(core, line);
    maybePrefetch(core, line, now_ns);
    return std::max(ready, now_ns + l2_lat_ns) + l1_lat_ns;
}

void
MemHierarchy::store(int core, uint64_t addr, double now_ns, double core_ghz)
{
    uint64_t line = lineOf(addr);
    st_stores_.add();
    if (l1_[static_cast<size_t>(core)]->access(line))
        return;
    // Write-allocate: bring the line in off the critical path, still
    // consuming shared bandwidth.
    if (!l2_[static_cast<size_t>(core)]->access(line))
        fetchToL2(core, line, now_ns + cfg_.l2LatCycles / core_ghz);
    fillL2(core, line);
    fillL1(core, line);
}

void
MemHierarchy::warmL3(uint64_t addr)
{
    fillL3(lineOf(addr));
}

void
MemHierarchy::warmL3(const WarmRanges &ranges)
{
    for (const auto &[base, bytes] : ranges)
        for (uint64_t off = 0; off < bytes; off += kLineBytes)
            warmL3(base + off);
}

void
MemHierarchy::warmAll(int core, uint64_t addr)
{
    uint64_t line = lineOf(addr);
    fillL3(line);
    fillL2(core, line);
    fillL1(core, line);
}

} // namespace save
