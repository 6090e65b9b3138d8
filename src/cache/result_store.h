/**
 * @file
 * Persistent content-addressed store (CAS) for simulation results:
 * the one persistence format of the simulator. Any simulation result
 * lands in it exactly once, and a killed sweep resumes by rerunning
 * against it:
 *
 *   key   = CasKey (config digest + workload digest, cache/cas_key.h)
 *   value = CasValue (cache/cas_key.h): slice time, cycle count, core
 *           frequency, and the full stat map — the one slice record,
 *           whose codec a sandboxed worker's reply uses too, so a
 *           cache hit is bit-identical to a fresh simulation by
 *           construction.
 *
 * On-disk layout: a directory of 16 shard files (`cas-XX.savecas`,
 * shard = low bits of the key) holding append-only, CRC-framed
 * records in the `.savtrc` chunk convention (trace/trace_format.h):
 *
 *   u32 fourcc 'CREC', u32 version, u64 payloadBytes,
 *   u32 crc32(payload), payload
 *
 *   payload: u64 cfg, u64 wl, then the value (casEncodeValue):
 *            f64 timeNs, u64 cycles, f64 coreGhz,
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
 * Robustness properties:
 *  - Corruption (bad fourcc, version skew, oversized length, CRC
 *    mismatch, or a torn record found at open) quarantines the whole
 *    shard to `<shard>.corrupt` with a warning; in-memory records the
 *    process already validated are re-appended to a fresh file, so a
 *    warm run stays bit-identical while the evidence survives.
 *  - Size cap (`SAVE_CACHE_MAX_MB` / Options::maxBytes): global LRU
 *    eviction compacts shards via temp-file + rename once the record
 *    bytes exceed the cap (batched, with hysteresis).
 *  - Cross-process single-flight: the owner of a key's flight is
 *    whoever holds flock(LOCK_EX) on `fl-<key>.lock`, through a
 *    descriptor it keeps open for the whole flight; losers wait on
 *    waitForResult(), which polls the shard for the owner's insert.
 *    The kernel drops a lock with its holder's last descriptor, so a
 *    SIGKILLed owner frees its flight at once: waiters stop waiting
 *    and the next claimant wins the lock on the file the dead run
 *    left behind. Opening a store unlinks the unheld lock files of
 *    keys it already has (a run killed between its insert and its
 *    release). A live but slow owner is never broken; waitForResult()
 *    times out and lets the caller simulate the point itself.
 *
 * The store is best-effort and never throws: every I/O failure warns
 * and degrades to "no cache". Thread-safe.
 */

#ifndef SAVE_CACHE_RESULT_STORE_H
#define SAVE_CACHE_RESULT_STORE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/cas_key.h"
#include "stats/stats.h"
#include "util/runtime_options.h"

namespace save {

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

    /** The store a runtime snapshot names: cacheDir "none", "-" or
     *  empty disables it, anything else is the directory; cacheMaxMb
     *  caps it. The one reading of a --cache-dir value: every path
     *  that builds a store calls this. */
    static Options resolveOptions(const RuntimeOptions &rt);

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
     * store hands every caller ownership, and so does a lock that
     * cannot be taken for any reason but another holder: the caller
     * then computes without single-flight.
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
            fd_ = o.fd_;
            owner_ = o.owner_;
            o.fd_ = -1;
            o.owner_ = false;
            return *this;
        }
        ~Flight() { release(); }

        bool owner() const { return owner_; }
        /** Unlink the lock file, then close the descriptor that holds
         *  its flock (owner only; idempotent). */
        void release();

      private:
        friend class ResultStore;
        std::string path_;
        /** Descriptor holding the flock; -1 when no lock is held. */
        int fd_ = -1;
        bool owner_ = false;
    };

    Flight beginFlight(const CasKey &key);

    /**
     * Wait (polling lookup()) until another process inserts `key` or
     * `timeout_ms` expires. Returns early as soon as nobody holds the
     * key's flight lock (the owner released, died, or never existed),
     * after one last lookup, so the caller can simulate the point
     * itself.
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

  private:
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
    /** Take the flock on the lock file at `path`; see beginFlight. */
    static Flight claimFlight(const std::string &path);

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

    Options opt_;
    mutable std::mutex mu_;
    Shard shards_[kShards];
    uint64_t useClock_ = 0;
    bool warnedWriteFailure_ = false;

    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> inserts_{0};
    std::atomic<uint64_t> evictions_{0};
    std::atomic<uint64_t> quarantines_{0};
};

} // namespace save

#endif // SAVE_CACHE_RESULT_STORE_H
