#include "cache/result_store.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/error.h"
#include "util/fault_injection.h"
#include "util/frame.h"
#include "util/logging.h"
#include "util/posix_io.h"

namespace save {

namespace {

constexpr uint32_t kRecFourcc = frameFourcc('C', 'R', 'E', 'C');
/** A record larger than this is treated as corruption, not allocated. */
constexpr uint64_t kMaxPayload = 16ull << 20;
/** waitForResult poll period. */
constexpr int kWaitPollMs = 10;
/** Claims that may lose a race with a release before a claimant
 *  gives up on single-flight. */
constexpr int kFlightClaimAttempts = 3;

std::vector<uint8_t>
encodePayload(const CasKey &key, const CasValue &v)
{
    std::vector<uint8_t> out;
    framePutU64(out, key.cfg);
    framePutU64(out, key.wl);
    casEncodeValue(out, v);
    return out;
}

/** Throws TraceError on any malformed payload. */
void
decodePayload(const uint8_t *p, const uint8_t *end, CasKey &key,
              CasValue &v)
{
    key.cfg = frameGetU64(p, end);
    key.wl = frameGetU64(p, end);
    v = casDecodeValue(p, end);
}

std::vector<uint8_t>
encodeFrame(const CasKey &key, const CasValue &v)
{
    return frameEncode(kRecFourcc, ResultStore::kVersion,
                       encodePayload(key, v));
}

/** The key a flight lock file name encodes (ResultStore::flightPath:
 *  "fl-" + 16 hex digits of cfg + 16 of wl + ".lock"). */
bool
parseFlightName(const std::string &name, CasKey &key)
{
    if (name.size() != 40 || name.compare(0, 3, "fl-") != 0 ||
        name.compare(35, 5, ".lock") != 0)
        return false;
    const char *p = name.data();
    const auto cfg = std::from_chars(p + 3, p + 19, key.cfg, 16);
    const auto wl = std::from_chars(p + 19, p + 35, key.wl, 16);
    return cfg.ec == std::errc() && cfg.ptr == p + 19 &&
           wl.ec == std::errc() && wl.ptr == p + 35;
}

/** True while some process holds the flock on the lock file at
 *  `path`. A missing file, or any flock error but EWOULDBLOCK, reads
 *  as free: the caller then computes without single-flight instead of
 *  waiting on a lock it cannot observe. */
bool
flightHeld(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    // A shared probe conflicts only with an owner's exclusive lock.
    const bool held =
        ::flock(fd, LOCK_SH | LOCK_NB) != 0 && errno == EWOULDBLOCK;
    ::close(fd);
    return held;
}

} // namespace

ResultStore::Options
ResultStore::resolveOptions(const RuntimeOptions &rt)
{
    Options o;
    if (rt.cacheDir != "none" && rt.cacheDir != "-")
        o.dir = rt.cacheDir;
    o.maxBytes = rt.cacheMaxBytes();
    return o;
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

    // A run killed between its insert and its release leaves a lock
    // file for a key the store already has, which no claimant would
    // ever come to free: unlink those nobody holds. Locks for missing
    // keys are left to their next claimant, so a claim in progress is
    // never turned into a duplicate simulation.
    for (std::filesystem::directory_iterator it(opt_.dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        CasKey key;
        if (parseFlightName(it->path().filename().string(), key) &&
            shards_[shardOf(key)].recs.count(key))
            claimFlight(it->path().string()).release();
    }
}

ResultStore::~ResultStore()
{
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
            static_cast<uint32_t>(kFrameHeaderBytes + len);
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
        kFrameHeaderBytes + encodePayload(key, value).size());
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
    if (!enabled()) {
        Flight f;
        f.owner_ = true; // no store: every caller just computes
        return f;
    }
    return claimFlight(flightPath(key));
}

ResultStore::Flight
ResultStore::claimFlight(const std::string &path)
{
    Flight f;
    for (int attempt = 0; attempt < kFlightClaimAttempts; ++attempt) {
        // O_CLOEXEC: a forked worker or daemon must never inherit a
        // held lock. flock, not fcntl: a flock belongs to the open
        // file description, so a second claim from this very process
        // conflicts too.
        const int fd =
            ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd < 0)
            break;
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            const bool held = errno == EWOULDBLOCK;
            ::close(fd);
            if (held)
                return f; // follower: waitForResult
            break;
        }
        // Winning the lock on a file a dead run left behind is
        // ownership. Winning it on an inode a releasing owner has
        // already unlinked guards nothing: retry on the path.
        struct stat locked, at_path;
        if (::fstat(fd, &locked) == 0 &&
            ::stat(path.c_str(), &at_path) == 0 &&
            locked.st_dev == at_path.st_dev &&
            locked.st_ino == at_path.st_ino) {
            f.owner_ = true;
            f.fd_ = fd;
            f.path_ = path;
            return f;
        }
        ::close(fd);
    }
    // No usable lock: compute without single-flight, never wait.
    f.owner_ = true;
    return f;
}

void
ResultStore::Flight::release()
{
    if (fd_ >= 0) {
        // Unlink first: a claimant that opened the old inode wins its
        // flock only after the close, then sees the inode is gone.
        ::unlink(path_.c_str());
        ::close(fd_);
        fd_ = -1;
    }
    owner_ = false;
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
    while (!lookup(key, out)) {
        if (!flightHeld(lock)) {
            // The owner released or died without landing a result:
            // one last lookup closes the release/insert race, then the
            // caller simulates the point itself.
            return lookup(key, out);
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kWaitPollMs));
    }
    return true;
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
