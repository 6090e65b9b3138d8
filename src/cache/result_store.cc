#include "cache/result_store.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/trace_format.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/posix_io.h"
#include "util/runtime_options.h"

namespace save {

namespace {

constexpr uint32_t kRecFourcc = traceFourcc('C', 'R', 'E', 'C');
/** A record larger than this is treated as corruption, not allocated. */
constexpr uint64_t kMaxPayload = 16ull << 20;
/** A flight lock is mtime-stale past this age. Live holders refresh
 *  the mtime every kFlightHeartbeatSec, so only a dead (or wholly
 *  wedged) holder ever lets a lock cross it. */
constexpr long kFlightStaleSec = 120;
/** Owner heartbeat period; far below kFlightStaleSec so one missed
 *  beat (scheduler hiccup) cannot make a live lock look stale. */
constexpr long kFlightHeartbeatSec = 15;
/** waitForResult poll period. */
constexpr int kWaitPollMs = 10;

std::vector<uint8_t>
encodePayload(const CasKey &key, const CasValue &v)
{
    std::vector<uint8_t> out;
    tracePutU64(out, key.cfg);
    tracePutU64(out, key.wl);
    tracePutF64(out, v.timeNs);
    tracePutU64(out, v.cycles);
    tracePutF64(out, v.coreGhz);
    tracePutU32(out, static_cast<uint32_t>(v.stats.size()));
    for (const auto &[name, value] : v.stats) {
        tracePutU32(out, static_cast<uint32_t>(name.size()));
        out.insert(out.end(), name.begin(), name.end());
        tracePutF64(out, value);
    }
    return out;
}

/** Throws TraceError on any malformed payload. */
void
decodePayload(const uint8_t *p, const uint8_t *end, CasKey &key,
              CasValue &v)
{
    key.cfg = traceGetU64(p, end);
    key.wl = traceGetU64(p, end);
    v.timeNs = traceGetF64(p, end);
    v.cycles = traceGetU64(p, end);
    v.coreGhz = traceGetF64(p, end);
    uint32_t n = traceGetU32(p, end);
    // Untrusted count: each stat needs >= 12 bytes, so bound it by the
    // remaining payload before reserving.
    if (n > static_cast<size_t>(end - p) / 12)
        throw TraceError("cas: stat count " + std::to_string(n) +
                         " exceeds remaining payload");
    v.stats.clear();
    v.stats.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        uint32_t len = traceGetU32(p, end);
        if (static_cast<size_t>(end - p) < len)
            throw TraceError("cas: stat name runs past payload end");
        std::string name(reinterpret_cast<const char *>(p), len);
        p += len;
        double value = traceGetF64(p, end);
        v.stats.emplace_back(std::move(name), value);
    }
    if (p != end)
        throw TraceError("cas: trailing bytes after record payload");
}

std::vector<uint8_t>
encodeFrame(const CasKey &key, const CasValue &v)
{
    return frameEncode(kRecFourcc, ResultStore::kVersion,
                       encodePayload(key, v));
}

/** True when the pid recorded in a flight lock is definitely gone. */
bool
pidDead(pid_t pid)
{
    if (pid <= 0)
        return false; // unparseable: fall back to the mtime check
    return ::kill(pid, 0) != 0 && errno == ESRCH;
}

} // namespace

std::string
ResultStore::resolveDir(const std::string &opt)
{
    if (opt == "none" || opt == "-")
        return "";
    if (!opt.empty())
        return opt;
    return RuntimeOptions::fromEnv().cacheDir;
}

uint64_t
ResultStore::resolveMaxBytes(int opt_mb)
{
    if (opt_mb > 0)
        return static_cast<uint64_t>(opt_mb) << 20;
    if (opt_mb == 0)
        return RuntimeOptions::fromEnv().cacheMaxBytes();
    return 0;
}

int
ResultStore::shardOf(const CasKey &key)
{
    return static_cast<int>((key.cfg ^ key.wl) &
                            static_cast<uint64_t>(kShards - 1));
}

std::string
ResultStore::shardPath(int shard) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "cas-%02x.savecas", shard);
    return (std::filesystem::path(opt_.dir) / name).string();
}

std::string
ResultStore::flightPath(const CasKey &key) const
{
    char name[64];
    std::snprintf(name, sizeof(name), "fl-%016llx%016llx.lock",
                  static_cast<unsigned long long>(key.cfg),
                  static_cast<unsigned long long>(key.wl));
    return (std::filesystem::path(opt_.dir) / name).string();
}

ResultStore::ResultStore(Options opt) : opt_(std::move(opt))
{
    if (!enabled())
        return;
    std::error_code ec;
    std::filesystem::create_directories(opt_.dir, ec);
    if (ec) {
        SAVE_WARN("cannot create cache dir ", opt_.dir, ": ",
                  ec.message(), "; result store disabled");
        opt_.dir.clear();
        return;
    }
    std::lock_guard<std::mutex> lk(mu_);
    for (int i = 0; i < kShards; ++i) {
        // Test hook: deterministic at-rest corruption of an existing
        // shard before it is parsed (SAVE_FAULT_INJECT cache-truncate/
        // cache-bitflip), exercising the quarantine path on warm runs.
        std::error_code sec;
        if (std::filesystem::exists(shardPath(i), sec))
            FaultInjector::global().maybeTamperCacheFile(
                shardPath(i), static_cast<uint64_t>(i));
        loadShardLocked(i, /*at_open=*/true);
    }
    if (opt_.maxBytes && totalRecordBytesLocked() > opt_.maxBytes)
        evictLocked();
}

ResultStore::~ResultStore()
{
    {
        std::lock_guard<std::mutex> lk(flightMu_);
        heartbeatStop_ = true;
    }
    heartbeatCv_.notify_all();
    if (heartbeat_.joinable())
        heartbeat_.join();
    std::lock_guard<std::mutex> lk(mu_);
    for (Shard &s : shards_)
        if (s.appendFd >= 0) {
            ::close(s.appendFd);
            s.appendFd = -1;
        }
}

bool
ResultStore::loadShardLocked(int shard, bool at_open)
{
    Shard &s = shards_[shard];
    const std::string path = shardPath(shard);

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return true; // nothing on disk yet
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return true;
    }
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    if (size <= s.parsed) {
        ::close(fd);
        if (size < s.parsed) {
            // The file shrank under us (another process compacted or
            // an injected truncation): drop what we indexed from disk
            // and re-parse from scratch. In-memory values stay valid.
            s.parsed = 0;
            s.diskBytes = 0;
            if (s.appendFd >= 0) {
                ::close(s.appendFd);
                s.appendFd = -1;
            }
            return loadShardLocked(shard, at_open);
        }
        return true;
    }

    void *map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
        SAVE_WARN("cannot mmap cache shard ", path, ": ",
                  std::strerror(errno));
        return true;
    }
    const uint8_t *base = static_cast<const uint8_t *>(map);

    std::string why;
    bool corrupt = false;
    uint64_t off = s.parsed;
    while (off < size) {
        FrameView v;
        FrameParse parsed = frameParse(base, size, off, v, kMaxPayload,
                                       &why);
        if (parsed == FrameParse::Truncated) {
            // Mid-run: a concurrent append is still landing. At open
            // nothing can still be landing, so a torn tail is damage.
            corrupt = at_open;
            if (!at_open)
                why.clear();
            break;
        }
        if (parsed == FrameParse::Corrupt) {
            corrupt = true;
            break;
        }
        if (v.fourcc != kRecFourcc) {
            why = "bad record fourcc at offset " +
                  std::to_string(off - kFrameHeaderBytes - v.len);
            corrupt = true;
            break;
        }
        if (v.arg != kVersion) {
            why = "record version " + std::to_string(v.arg) +
                  " != expected " + std::to_string(kVersion);
            corrupt = true;
            break;
        }
        const uint8_t *payload = v.payload;
        const uint64_t len = v.len;
        CasKey key;
        CasValue val;
        try {
            decodePayload(payload, payload + len, key, val);
        } catch (const TraceError &e) {
            why = e.what();
            corrupt = true;
            break;
        }
        const uint32_t rec_bytes =
            static_cast<uint32_t>(kTraceChunkHeaderBytes + len);
        s.diskBytes += rec_bytes;
        // First record wins; a duplicate append (two processes racing
        // past each other's single-flight window) carries identical
        // bytes and is dropped at the next compaction.
        if (!s.recs.count(key)) {
            Rec r;
            r.val = std::move(val);
            r.recBytes = rec_bytes;
            r.lastUse = ++useClock_;
            s.recs.emplace(key, std::move(r));
        }
        // frameParse already advanced `off` past this record.
    }
    ::munmap(map, size);
    s.parsed = off;

    if (corrupt) {
        quarantineShardLocked(shard, why);
        return false;
    }
    return true;
}

void
ResultStore::quarantineShardLocked(int shard, const std::string &why)
{
    Shard &s = shards_[shard];
    const std::string path = shardPath(shard);
    if (s.appendFd >= 0) {
        ::close(s.appendFd);
        s.appendFd = -1;
    }
    std::error_code ec;
    std::filesystem::rename(path, path + ".corrupt", ec);
    if (ec)
        std::filesystem::remove(path, ec);
    SAVE_WARN("quarantined corrupt cache shard ", path, " -> ", path,
              ".corrupt: ", why);
    quarantines_.fetch_add(1, std::memory_order_relaxed);

    // Records this process already validated are still good: re-append
    // them to a fresh file so a warm run loses nothing but the
    // corrupted bytes.
    s.parsed = 0;
    s.diskBytes = 0;
    for (auto &[key, rec] : s.recs)
        appendRecordLocked(shard, key, rec);
}

int
ResultStore::appendFdLocked(int shard)
{
    Shard &s = shards_[shard];
    if (s.appendFd < 0)
        s.appendFd = ::open(shardPath(shard).c_str(),
                            O_WRONLY | O_APPEND | O_CREAT, 0644);
    return s.appendFd;
}

bool
ResultStore::appendRecordLocked(int shard, const CasKey &key,
                                const Rec &r)
{
    Shard &s = shards_[shard];
    int fd = appendFdLocked(shard);
    if (fd < 0) {
        if (!warnedWriteFailure_) {
            warnedWriteFailure_ = true;
            SAVE_WARN("cannot open cache shard ", shardPath(shard),
                      " for append: ", std::strerror(errno),
                      "; persisting disabled for this run");
        }
        return false;
    }
    std::vector<uint8_t> frame = encodeFrame(key, r.val);
    if (writeFull(fd, frame.data(), frame.size()) !=
        static_cast<ssize_t>(frame.size())) {
        if (!warnedWriteFailure_) {
            warnedWriteFailure_ = true;
            SAVE_WARN("cannot append to cache shard ", shardPath(shard),
                      ": ", std::strerror(errno),
                      "; persisting disabled for this run");
        }
        return false;
    }
    // O_APPEND lands the frame at the end of the file, which is not
    // s.parsed when another process appended since our last parse.
    // Only a frame that begins exactly at s.parsed can be indexed as
    // parsed; otherwise the next loadShardLocked re-parses from
    // s.parsed, meets the other records and ours (a duplicate, dropped
    // by first-record-wins), and counts every byte once.
    const off_t end = ::lseek(fd, 0, SEEK_CUR);
    if (end >= 0 &&
        static_cast<uint64_t>(end) == s.parsed + frame.size()) {
        s.parsed += frame.size();
        s.diskBytes += frame.size();
    }
    return true;
}

bool
ResultStore::lookup(const CasKey &key, CasValue *out)
{
    if (!enabled())
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    const int shard = shardOf(key);
    Shard &s = shards_[shard];
    auto it = s.recs.find(key);
    if (it == s.recs.end()) {
        // Another process may have landed the key since our last
        // parse. With nothing new on disk this costs an open + fstat.
        loadShardLocked(shard, /*at_open=*/false);
        it = s.recs.find(key);
    }
    if (it == s.recs.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    it->second.lastUse = ++useClock_;
    if (out)
        *out = it->second.val;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
ResultStore::insert(const CasKey &key, const CasValue &value)
{
    if (!enabled())
        return false;
    if (!std::isfinite(value.timeNs))
        return false; // poisoned (exhausted-retry) results never persist
    std::lock_guard<std::mutex> lk(mu_);
    const int shard = shardOf(key);
    Shard &s = shards_[shard];
    if (s.recs.count(key))
        return true; // already present: results land once

    Rec r;
    r.val = value;
    r.recBytes = static_cast<uint32_t>(
        kTraceChunkHeaderBytes + encodePayload(key, value).size());
    r.lastUse = ++useClock_;
    if (!appendRecordLocked(shard, key, r))
        return false;
    s.recs.emplace(key, std::move(r));
    inserts_.fetch_add(1, std::memory_order_relaxed);

    // Test hook: deterministic corruption of the just-appended-to
    // shard (SAVE_FAULT_INJECT cache-truncate/cache-bitflip). The
    // in-memory index is unaffected; the next open detects and
    // quarantines.
    FaultInjector::global().maybeTamperCacheFile(shardPath(shard),
                                                key.cfg ^ key.wl);

    if (opt_.maxBytes && totalRecordBytesLocked() > opt_.maxBytes)
        evictLocked();
    return true;
}

uint64_t
ResultStore::totalRecordBytesLocked() const
{
    uint64_t total = 0;
    for (const Shard &s : shards_)
        total += s.diskBytes;
    return total;
}

uint64_t
ResultStore::bytes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return totalRecordBytesLocked();
}

uint64_t
ResultStore::records() const
{
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t n = 0;
    for (const Shard &s : shards_)
        n += s.recs.size();
    return n;
}

void
ResultStore::evictLocked()
{
    // Batched LRU with hysteresis: drop the least-recently-used
    // records until the live set fits in 3/4 of the cap, then compact
    // every shard that lost records (or carries duplicate bytes) via
    // temp-file + rename. The most recent record always survives,
    // even when it alone exceeds the cap.
    struct Victim
    {
        uint64_t lastUse;
        int shard;
        CasKey key;
        uint32_t recBytes;
    };
    std::vector<Victim> order;
    uint64_t live = 0;
    for (int i = 0; i < kShards; ++i)
        for (const auto &[key, rec] : shards_[i].recs) {
            order.push_back({rec.lastUse, i, key, rec.recBytes});
            live += rec.recBytes;
        }
    std::sort(order.begin(), order.end(),
              [](const Victim &a, const Victim &b) {
                  return a.lastUse < b.lastUse;
              });

    const uint64_t target = opt_.maxBytes - opt_.maxBytes / 4;
    bool rewrite[kShards] = {};
    size_t dropped = 0;
    for (const Victim &v : order) {
        if (live <= target || dropped + 1 >= order.size())
            break;
        shards_[v.shard].recs.erase(v.key);
        rewrite[v.shard] = true;
        live -= v.recBytes;
        ++dropped;
    }
    evictions_.fetch_add(dropped, std::memory_order_relaxed);

    static std::atomic<uint64_t> tmp_serial{0};
    for (int i = 0; i < kShards; ++i) {
        Shard &s = shards_[i];
        const uint64_t rec_total = [&] {
            uint64_t t = 0;
            for (const auto &[key, rec] : s.recs)
                t += rec.recBytes;
            return t;
        }();
        // Compact when records were dropped here or duplicate bytes
        // accumulated; untouched, duplicate-free shards keep their
        // file as-is.
        if (!rewrite[i] && s.diskBytes == rec_total)
            continue;
        const std::string path = shardPath(i);
        if (s.recs.empty()) {
            if (s.appendFd >= 0) {
                ::close(s.appendFd);
                s.appendFd = -1;
            }
            std::error_code ec;
            std::filesystem::remove(path, ec);
            s.parsed = 0;
            s.diskBytes = 0;
            continue;
        }
        std::vector<uint8_t> image;
        for (const auto &[key, rec] : s.recs) {
            std::vector<uint8_t> frame = encodeFrame(key, rec.val);
            image.insert(image.end(), frame.begin(), frame.end());
        }
        const std::string tmp =
            path + ".tmp." + std::to_string(::getpid()) + "." +
            std::to_string(tmp_serial.fetch_add(1));
        std::string why;
        if (!writeFileBytes(tmp, image.data(), image.size(), &why)) {
            SAVE_WARN("cache compaction: ", why);
            continue;
        }
        std::error_code ec;
        std::filesystem::rename(tmp, path, ec);
        if (ec) {
            SAVE_WARN("cache compaction: cannot move ", tmp,
                      " into place: ", ec.message());
            std::filesystem::remove(tmp, ec);
            continue;
        }
        if (s.appendFd >= 0) {
            ::close(s.appendFd);
            s.appendFd = -1; // reopened lazily against the new inode
        }
        s.parsed = image.size();
        s.diskBytes = image.size();
    }
}

ResultStore::Flight
ResultStore::beginFlight(const CasKey &key)
{
    Flight f;
    if (!enabled()) {
        f.owner_ = true; // no store: every caller just computes
        return f;
    }
    const std::string path = flightPath(key);
    for (int attempt = 0; attempt < 3; ++attempt) {
        int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd >= 0) {
            char buf[32];
            int n = std::snprintf(buf, sizeof(buf), "%ld\n",
                                  static_cast<long>(::getpid()));
            writeFull(fd, buf, static_cast<size_t>(n));
            ::close(fd);
            f.owner_ = true;
            f.path_ = path;
            f.store_ = this;
            registerFlight(path);
            return f;
        }
        if (errno != EEXIST)
            break; // unwritable dir etc.: degrade to owner-less wait

        // Someone else holds the flight. Break the lock ONLY when the
        // recorded pid is gone AND the heartbeat has stopped (stale
        // mtime). A dead-looking pid alone is not proof: after pid
        // reuse the slow original owner may still be simulating, and
        // breaking its lock would double-simulate the point. A stale
        // mtime alone is not proof either for a same-host holder whose
        // pid is provably alive. An unparseable pid (another host, or
        // a torn write) cannot vouch for liveness, so only the mtime
        // half protects it — which its heartbeat keeps fresh.
        std::string contents;
        bool pid_gone = true;
        if (readFileBytes(path, contents)) {
            pid_t pid =
                static_cast<pid_t>(std::strtol(contents.c_str(),
                                               nullptr, 10));
            if (pid > 0)
                pid_gone = pidDead(pid);
        } else {
            // Racing a release: the lock may already be gone. Retry
            // the open instead of guessing.
            continue;
        }
        bool mtime_stale = false;
        struct stat st;
        if (::stat(path.c_str(), &st) == 0)
            mtime_stale = ::time(nullptr) - st.st_mtime >
                          kFlightStaleSec;
        if (!(pid_gone && mtime_stale)) {
            f.path_ = path;
            return f; // follower: waitForResult
        }
        SAVE_WARN("breaking stale cache flight lock ", path,
                  " (owner dead, no heartbeat for >",
                  kFlightStaleSec, "s)");
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    f.path_ = path;
    return f;
}

void
ResultStore::registerFlight(const std::string &path)
{
    std::lock_guard<std::mutex> lk(flightMu_);
    activeFlights_.push_back(path);
    if (!heartbeat_.joinable() && !heartbeatStop_) {
        heartbeat_ = std::thread([this] {
            std::unique_lock<std::mutex> lk(flightMu_);
            while (!heartbeatStop_) {
                heartbeatCv_.wait_for(
                    lk, std::chrono::seconds(kFlightHeartbeatSec));
                if (heartbeatStop_)
                    break;
                lk.unlock();
                touchActiveFlights();
                lk.lock();
            }
        });
    }
}

void
ResultStore::unregisterFlight(const std::string &path)
{
    std::lock_guard<std::mutex> lk(flightMu_);
    auto it = std::find(activeFlights_.begin(), activeFlights_.end(),
                        path);
    if (it != activeFlights_.end())
        activeFlights_.erase(it);
}

void
ResultStore::touchActiveFlights()
{
    std::vector<std::string> paths;
    {
        std::lock_guard<std::mutex> lk(flightMu_);
        paths = activeFlights_;
    }
    for (const std::string &p : paths) {
        // Refresh both timestamps to "now"; a failure (the lock was
        // just released, or broken by a peer) is harmless.
        if (::utimensat(AT_FDCWD, p.c_str(), nullptr, 0) != 0 &&
            errno != ENOENT)
            SAVE_WARN("flight heartbeat: cannot touch ", p, ": ",
                      std::strerror(errno));
    }
}

void
ResultStore::Flight::release()
{
    if (!owner_ || path_.empty())
        return;
    if (store_ != nullptr)
        store_->unregisterFlight(path_);
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    owner_ = false;
    store_ = nullptr;
}

bool
ResultStore::waitForResult(const CasKey &key, CasValue *out,
                           int timeout_ms)
{
    if (!enabled())
        return false;
    const std::string lock = flightPath(key);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
        if (lookup(key, out))
            return true;
        std::error_code ec;
        if (!std::filesystem::exists(lock, ec)) {
            // The owner released (or died) without landing a result:
            // one last lookup closes the release/insert race, then the
            // caller simulates the point itself.
            return lookup(key, out);
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kWaitPollMs));
    }
}

StatGroup
ResultStore::statsSnapshot() const
{
    StatGroup g;
    g.set("hits", static_cast<double>(hits()));
    g.set("misses", static_cast<double>(misses()));
    g.set("inserts", static_cast<double>(inserts()));
    g.set("evictions", static_cast<double>(evictions()));
    g.set("quarantines", static_cast<double>(quarantines()));
    g.set("bytes", static_cast<double>(bytes()));
    g.set("records", static_cast<double>(records()));
    return g;
}

} // namespace save
