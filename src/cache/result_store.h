/**
 * @file
 * Persistent content-addressed store (CAS) for simulation results.
 *
 * Generalizes the v1 surface cache (dnn/surface_cache.h) from "one
 * record shape, one config, whole-file rewrites" to a store any
 * simulation result can land in exactly once:
 *
 *   key   = CasKey (config digest + workload digest, cache/cas_key.h)
 *   value = CasValue: slice time, cycle count, core frequency, and
 *           the full stat map — the same payload a sandboxed worker
 *           ships over the wire, so a cache hit is bit-identical to a
 *           fresh simulation by construction.
 *
 * On-disk layout: a directory of 16 shard files (`cas-XX.savecas`,
 * shard = low bits of the key) holding append-only, CRC-framed
 * records in the `.savtrc` chunk convention (trace/trace_format.h):
 *
 *   u32 fourcc 'CREC', u32 version, u64 payloadBytes,
 *   u32 crc32(payload), payload
 *
 *   payload: u64 cfg, u64 wl, f64 timeNs, u64 cycles, f64 coreGhz,
 *            u32 nStats, nStats x (u32 nameLen, name, f64 value)
 *
 * There is no file header, so any number of processes can append
 * concurrently (O_APPEND, one write(2) per record) without a
 * header-creation race; each frame is independently versioned and
 * CRC-protected. Reads go through a read-only shared mmap of the
 * file, validated frame-by-frame; decoded records live in the
 * in-memory index, and a lookup that misses it first parses the
 * shard's new tail, so every process sees the others' appends.
 * Inserting a value whose time is not finite is refused — a
 * NaN-poisoned result (exhausted retries) can never poison the store.
 *
 * Robustness properties (inherited from the journal/surface-cache
 * discipline):
 *  - Corruption (bad fourcc, version skew, oversized length, CRC
 *    mismatch, or a torn record found at open) quarantines the whole
 *    shard to `<shard>.corrupt` with a warning; in-memory records the
 *    process already validated are re-appended to a fresh file, so a
 *    warm run stays bit-identical while the evidence survives.
 *  - Size cap (`SAVE_CACHE_MAX_MB` / Options::maxBytes): global LRU
 *    eviction compacts shards via temp-file + rename once the record
 *    bytes exceed the cap (batched, with hysteresis).
 *  - Cross-process single-flight: beginFlight() takes an O_EXCL
 *    `fl-<key>.lock` file carrying the owner pid; losers wait on
 *    waitForResult(), which polls the shard for the owner's insert.
 *    While a flight is owned, a background heartbeat refreshes the
 *    lock's mtime, and the breaker fires only when the recorded pid
 *    is provably dead AND the mtime is stale — either signal alone
 *    is not enough (a recycled pid can look dead while its slow
 *    original owner still simulates, and a fixed age alone would
 *    break any sufficiently slow holder). A crashed owner stops
 *    heartbeating, so its lock goes stale and is broken; liveness
 *    also never depends on the breaker, because waitForResult()
 *    times out and lets the caller simulate the point itself.
 *
 * The store is best-effort and never throws: every I/O failure warns
 * and degrades to "no cache". Thread-safe.
 */

#ifndef SAVE_CACHE_RESULT_STORE_H
#define SAVE_CACHE_RESULT_STORE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cas_key.h"
#include "stats/stats.h"

namespace save {

/** One cached simulation outcome. `stats` is sorted by name (the
 *  StatGroup iteration order) and round-trips raw f64 bits. */
struct CasValue
{
    double timeNs = 0;
    uint64_t cycles = 0;
    double coreGhz = 0;
    std::vector<std::pair<std::string, double>> stats;
};

class ResultStore
{
  public:
    /** Record-frame version; bumped on any payload layout change. */
    static constexpr uint32_t kVersion = 1;
    static constexpr int kShards = 16;

    struct Options
    {
        /** Resolved store directory; empty disables the store. */
        std::string dir;
        /** Record-byte cap triggering LRU eviction; 0 = unlimited. */
        uint64_t maxBytes = 0;
    };

    /** Resolve a --cache-dir style option: "none"/"-" force-disable,
     *  empty defers to SAVE_CACHE_DIR, anything else is the dir. */
    static std::string resolveDir(const std::string &opt);

    /** Resolve a --cache-max-mb style option: > 0 is a cap in MB,
     *  0 defers to SAVE_CACHE_MAX_MB, else unlimited. */
    static uint64_t resolveMaxBytes(int opt_mb);

    /** Opens (and parses) every existing shard under opt.dir. A
     *  disabled store (empty dir) accepts every call as a no-op. */
    explicit ResultStore(Options opt);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    bool enabled() const { return !opt_.dir.empty(); }
    const std::string &dir() const { return opt_.dir; }
    uint64_t maxBytes() const { return opt_.maxBytes; }

    /** Find a record. An in-memory miss first parses the key's shard
     *  tail, so another process's appends are seen. Counts a hit or a
     *  miss. */
    bool lookup(const CasKey &key, CasValue *out);

    /**
     * Append a record (no-op if the key is already present). Returns
     * false — without writing — when the store is disabled, the value
     * is non-finite (poisoned), or I/O fails.
     */
    bool insert(const CasKey &key, const CasValue &value);

    /**
     * Cross-process single-flight claim for one key. The owner is
     * expected to simulate, insert(), then release() (also done by
     * the destructor); losers should waitForResult(). A disabled
     * store hands every caller ownership.
     */
    class Flight
    {
      public:
        Flight() = default;
        Flight(Flight &&o) noexcept { *this = std::move(o); }
        Flight &
        operator=(Flight &&o) noexcept
        {
            release();
            path_ = std::move(o.path_);
            owner_ = o.owner_;
            store_ = o.store_;
            o.owner_ = false;
            o.store_ = nullptr;
            o.path_.clear();
            return *this;
        }
        ~Flight() { release(); }

        bool owner() const { return owner_; }
        /** Unlink the lock file and stop its heartbeat (owner only;
         *  idempotent). */
        void release();

      private:
        friend class ResultStore;
        std::string path_;
        bool owner_ = false;
        /** Owning store, for heartbeat deregistration; null for the
         *  disabled-store "everyone owns" flights. The store must
         *  outlive every Flight it hands out (as it already must for
         *  waitForResult/insert to make sense). */
        ResultStore *store_ = nullptr;
    };

    Flight beginFlight(const CasKey &key);

    /**
     * Wait (polling lookup()) until another process inserts `key` or
     * `timeout_ms` expires. Returns early when the flight lock
     * disappears without a result (the owner died or gave up) so the
     * caller can simulate the point itself.
     */
    bool waitForResult(const CasKey &key, CasValue *out, int timeout_ms);

    uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }
    uint64_t inserts() const
    {
        return inserts_.load(std::memory_order_relaxed);
    }
    uint64_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }
    uint64_t quarantines() const
    {
        return quarantines_.load(std::memory_order_relaxed);
    }
    /** Current on-disk record bytes across all shards. */
    uint64_t bytes() const;
    /** Records currently indexed (post-dedup). */
    uint64_t records() const;

    /** Counters as a StatGroup (exported via StatGroup::toJson). */
    StatGroup statsSnapshot() const;

    /** Shard file path (exposed for tests and tooling). */
    std::string shardPath(int shard) const;
    /** Flight lock-file path for a key (exposed for tests). */
    std::string flightPath(const CasKey &key) const;

    /** One heartbeat pass: refresh the mtime of every owned flight
     *  lock. Runs periodically on the heartbeat thread; public so
     *  tests can force a beat without waiting out the interval. */
    void touchActiveFlights();

  private:
    friend class Flight;

    struct Rec
    {
        CasValue val;
        uint32_t recBytes = 0; ///< frame header + payload on disk
        uint64_t lastUse = 0;
    };

    struct Shard
    {
        uint64_t parsed = 0;    ///< validated on-disk prefix bytes
        uint64_t diskBytes = 0; ///< record bytes incl. duplicates
        int appendFd = -1;
        std::map<CasKey, Rec> recs;
    };

    static int shardOf(const CasKey &key);

    /** Parse [shard.parsed, EOF) through a read-only mmap. Returns
     *  false when the shard was quarantined. */
    bool loadShardLocked(int shard, bool at_open);
    /** Move the shard file to .corrupt and re-append every record the
     *  process already validated to a fresh file. */
    void quarantineShardLocked(int shard, const std::string &why);
    bool appendRecordLocked(int shard, const CasKey &key, const Rec &r);
    int appendFdLocked(int shard);
    void evictLocked();
    uint64_t totalRecordBytesLocked() const;

    void registerFlight(const std::string &path);
    void unregisterFlight(const std::string &path);

    Options opt_;
    mutable std::mutex mu_;
    Shard shards_[kShards];
    uint64_t useClock_ = 0;
    bool warnedWriteFailure_ = false;

    /** Owned flight-lock paths + the lazily-started heartbeat that
     *  keeps their mtimes fresh while the holders simulate. */
    std::mutex flightMu_;
    std::vector<std::string> activeFlights_;
    std::thread heartbeat_;
    std::condition_variable heartbeatCv_;
    bool heartbeatStop_ = false;

    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> evictions_{0};
    std::atomic<uint64_t> quarantines_{0};
};

} // namespace save

#endif // SAVE_CACHE_RESULT_STORE_H
