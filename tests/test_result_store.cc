/**
 * @file
 * Content-addressed result store (cache/result_store.h) tests: key
 * derivation and delegation, bit-exact record round-trips, corruption
 * quarantine (manual tampering and SAVE_FAULT_INJECT cache modes),
 * LRU eviction under a byte cap, lookups that see other handles'
 * appends, cross-process single-flight (forked writers and the
 * estimator's flight-owner re-check), v1 surface-cache migration, and
 * cold/warm estimator bit-identity across every isolation mode.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "cache/cas_key.h"
#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "dnn/networks.h"
#include "dnn/surface_cache.h"
#include "util/fault_injection.h"

#ifndef SAVE_WORKER_BIN_PATH
#error "test_result_store requires SAVE_WORKER_BIN_PATH (set by CMake)"
#endif

namespace save {
namespace {

namespace fs = std::filesystem;

/** Bit-exact double comparison (distinguishes -0.0, NaN payloads). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

class ResultStoreTest : public ::testing::Test
{
  protected:
    ResultStoreTest()
    {
        FaultInjector::global().reset();
        dir_ = fs::temp_directory_path() /
               ("save-cas-test-" + std::to_string(::getpid()));
        std::error_code ec;
        fs::remove_all(dir_, ec);
        fs::create_directories(dir_);
    }

    ~ResultStoreTest() override
    {
        FaultInjector::global().reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    ResultStore::Options
    opts(uint64_t max_bytes = 0) const
    {
        ResultStore::Options o;
        o.dir = dir_.string();
        o.maxBytes = max_bytes;
        return o;
    }

    /** Flip one bit inside the first record frame header of a file. */
    static void
    flipBit(const std::string &path, std::streamoff offset)
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good()) << path;
        f.seekg(offset);
        char byte = 0;
        f.read(&byte, 1);
        byte ^= 0x01;
        f.seekp(offset);
        f.write(&byte, 1);
    }

    fs::path dir_;
};

CasValue
makeValue(double time_ns, uint64_t cycles = 100, double ghz = 1.7)
{
    CasValue v;
    v.timeNs = time_ns;
    v.cycles = cycles;
    v.coreGhz = ghz;
    return v;
}

// --------------------------------------------------------------------
// Key derivation

TEST_F(ResultStoreTest, ConfigDigestIsStableAndDelegated)
{
    MachineConfig m;
    SaveConfig s;
    uint64_t base = casHashConfig(m, s, 0);
    EXPECT_EQ(base, casHashConfig(m, s, 0));
    // SurfaceCache::hashConfig delegates to casHashConfig: the trace
    // header, the v1 cache, and the CAS must agree forever.
    EXPECT_EQ(base, SurfaceCache::hashConfig(m, s, 0));

    MachineConfig m2 = m;
    m2.dramGBps += 1.0;
    EXPECT_NE(base, casHashConfig(m2, s, 0));
    SaveConfig s2 = s;
    s2.policy = SchedPolicy::VC;
    EXPECT_NE(base, casHashConfig(m, s2, 0));
    EXPECT_NE(base, casHashConfig(m, s, 1));
}

TEST_F(ResultStoreTest, WorkloadDigestsCoverEveryField)
{
    const SliceKey base{4, 6, 192, 0, 0, 1, 2, 3, 5};
    const uint64_t h = casSliceWorkload(base);
    EXPECT_EQ(h, casSliceWorkload(base)); // stable

    // Every field must shift the digest: two distinct surface points
    // colliding would silently serve one's time as the other's.
    SliceKey k = base;
    k.mr = 5;
    EXPECT_NE(h, casSliceWorkload(k));
    k = base;
    k.nr = 7;
    EXPECT_NE(h, casSliceWorkload(k));
    k = base;
    k.kSteps = 24;
    EXPECT_NE(h, casSliceWorkload(k));
    k = base;
    k.pattern = 1;
    EXPECT_NE(h, casSliceWorkload(k));
    k = base;
    k.precision = 1;
    EXPECT_NE(h, casSliceWorkload(k));
    k = base;
    k.saveOn = 0;
    EXPECT_NE(h, casSliceWorkload(k));
    k = base;
    k.vpus = 1;
    EXPECT_NE(h, casSliceWorkload(k));
    k = base;
    k.wBin = 4;
    EXPECT_NE(h, casSliceWorkload(k));
    k = base;
    k.aBin = 6;
    EXPECT_NE(h, casSliceWorkload(k));

    GemmConfig g;
    const uint64_t gh = casGemmWorkload(g, 1, 2);
    EXPECT_EQ(gh, casGemmWorkload(g, 1, 2));
    GemmConfig g2 = g;
    g2.bsSparsity = 0.5;
    EXPECT_NE(gh, casGemmWorkload(g2, 1, 2));
    g2 = g;
    g2.seed = 99;
    EXPECT_NE(gh, casGemmWorkload(g2, 1, 2));
    EXPECT_NE(gh, casGemmWorkload(g, 2, 2));
    EXPECT_NE(gh, casGemmWorkload(g, 1, 1));

    // A slice key and a gemm config never share a digest: the two
    // serializations carry distinct leading domain tags.
    EXPECT_NE(casSliceWorkload(base), casGemmWorkload(g, 1, 2));
}

// --------------------------------------------------------------------
// Record round-trip

TEST_F(ResultStoreTest, RoundTripIsBitExactAcrossReopen)
{
    const CasKey key{0xdeadbeefcafef00dull, 0x0123456789abcdefull};
    CasValue in;
    in.timeNs = 1.0 / 3.0; // not representable exactly: bit fidelity
    in.cycles = 0xffffffffffffffffull;
    in.coreGhz = 2.1;
    in.stats = {
        {"denormal", 4.9406564584124654e-324},
        {"huge", 1.7976931348623157e308},
        {"negzero", -0.0},
        {"uops", 123456.0},
        {"", 42.0}, // empty stat name must survive framing
    };
    {
        ResultStore store(opts());
        ASSERT_TRUE(store.enabled());
        EXPECT_TRUE(store.insert(key, in));
        EXPECT_EQ(store.inserts(), 1u);
        EXPECT_EQ(store.records(), 1u);
        EXPECT_GT(store.bytes(), 0u);
    }

    ResultStore store(opts());
    EXPECT_EQ(store.records(), 1u);
    CasValue out;
    ASSERT_TRUE(store.lookup(key, &out));
    EXPECT_TRUE(sameBits(in.timeNs, out.timeNs));
    EXPECT_EQ(in.cycles, out.cycles);
    EXPECT_TRUE(sameBits(in.coreGhz, out.coreGhz));
    ASSERT_EQ(in.stats.size(), out.stats.size());
    for (size_t i = 0; i < in.stats.size(); ++i) {
        EXPECT_EQ(in.stats[i].first, out.stats[i].first);
        EXPECT_TRUE(sameBits(in.stats[i].second, out.stats[i].second))
            << in.stats[i].first;
    }
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_FALSE(store.lookup(CasKey{1, 2}, nullptr));
    EXPECT_EQ(store.misses(), 1u);
}

TEST_F(ResultStoreTest, InsertRefusesPoisonAndDeduplicates)
{
    ResultStore store(opts());
    const CasKey key{7, 9};

    // NaN-poisoned results (exhausted retries) must never persist.
    EXPECT_FALSE(
        store.insert(key, makeValue(std::nan(""))));
    EXPECT_FALSE(store.insert(
        key, makeValue(std::numeric_limits<double>::infinity())));
    EXPECT_EQ(store.records(), 0u);
    EXPECT_EQ(store.inserts(), 0u);

    EXPECT_TRUE(store.insert(key, makeValue(5.0)));
    const uint64_t bytes = store.bytes();
    // A duplicate insert is an idempotent success: results land once.
    EXPECT_TRUE(store.insert(key, makeValue(999.0)));
    EXPECT_EQ(store.inserts(), 1u);
    EXPECT_EQ(store.bytes(), bytes);
    CasValue out;
    ASSERT_TRUE(store.lookup(key, &out));
    EXPECT_EQ(out.timeNs, 5.0); // first value wins
}

TEST_F(ResultStoreTest, DisabledStoreIsInert)
{
    ResultStore store(ResultStore::Options{});
    EXPECT_FALSE(store.enabled());
    EXPECT_FALSE(store.insert(CasKey{1, 2}, makeValue(1.0)));
    EXPECT_FALSE(store.lookup(CasKey{1, 2}, nullptr));
    // A disabled store hands every caller flight ownership so the
    // single-flight wrapper degrades to "just compute".
    EXPECT_TRUE(store.beginFlight(CasKey{1, 2}).owner());
    CasValue v;
    EXPECT_FALSE(store.waitForResult(CasKey{1, 2}, &v, 10));
}

TEST_F(ResultStoreTest, ResolveHelpersHonourEnvironment)
{
    EXPECT_EQ(ResultStore::resolveDir("none"), "");
    EXPECT_EQ(ResultStore::resolveDir("-"), "");
    EXPECT_EQ(ResultStore::resolveDir("/x/y"), "/x/y");
    ::setenv("SAVE_CACHE_DIR", "/env/cache", 1);
    EXPECT_EQ(ResultStore::resolveDir(""), "/env/cache");
    EXPECT_EQ(ResultStore::resolveDir("none"), ""); // "none" beats env
    ::unsetenv("SAVE_CACHE_DIR");
    EXPECT_EQ(ResultStore::resolveDir(""), "");

    EXPECT_EQ(ResultStore::resolveMaxBytes(3), 3ull << 20);
    ::setenv("SAVE_CACHE_MAX_MB", "2", 1);
    EXPECT_EQ(ResultStore::resolveMaxBytes(0), 2ull << 20);
    ::setenv("SAVE_CACHE_MAX_MB", "banana", 1);
    EXPECT_EQ(ResultStore::resolveMaxBytes(0), 0u);
    ::unsetenv("SAVE_CACHE_MAX_MB");
    EXPECT_EQ(ResultStore::resolveMaxBytes(0), 0u);
    EXPECT_EQ(ResultStore::resolveMaxBytes(-1), 0u);
}

// --------------------------------------------------------------------
// Corruption quarantine

TEST_F(ResultStoreTest, TornTailQuarantinesButKeepsValidatedPrefix)
{
    // Two keys in the same shard: shard = (cfg ^ wl) & 15.
    const CasKey k1{1, 0};
    const CasKey k2{17, 0};
    std::string shard;
    {
        ResultStore store(opts());
        ASSERT_TRUE(store.insert(k1, makeValue(1.5)));
        ASSERT_TRUE(store.insert(k2, makeValue(2.5)));
        shard = store.shardPath(1);
        ASSERT_TRUE(fs::exists(shard));
    }
    // Tear the second record's payload (a crash mid-append).
    const auto size = fs::file_size(shard);
    fs::resize_file(shard, size - 5);

    ResultStore store(opts());
    EXPECT_EQ(store.quarantines(), 1u);
    EXPECT_TRUE(fs::exists(shard + ".corrupt"));
    // The record validated before the tear survives (re-appended to a
    // fresh shard file); the torn one is gone.
    CasValue out;
    ASSERT_TRUE(store.lookup(k1, &out));
    EXPECT_TRUE(sameBits(out.timeNs, 1.5));
    EXPECT_FALSE(store.lookup(k2, nullptr));
    EXPECT_EQ(store.records(), 1u);

    // The store stays fully usable after quarantine.
    EXPECT_TRUE(store.insert(k2, makeValue(2.5)));
    EXPECT_TRUE(store.lookup(k2, &out));
}

TEST_F(ResultStoreTest, BitflipQuarantinesShard)
{
    const CasKey key{3, 0};
    std::string shard;
    {
        ResultStore store(opts());
        ASSERT_TRUE(store.insert(key, makeValue(9.0)));
        shard = store.shardPath(3);
    }
    flipBit(shard, 1); // inside the frame fourcc

    ResultStore store(opts());
    EXPECT_EQ(store.quarantines(), 1u);
    EXPECT_TRUE(fs::exists(shard + ".corrupt"));
    EXPECT_FALSE(store.lookup(key, nullptr));
    // Fresh inserts land in a clean replacement file.
    EXPECT_TRUE(store.insert(key, makeValue(9.0)));
    {
        ResultStore reread(opts());
        CasValue out;
        EXPECT_TRUE(reread.lookup(key, &out));
        EXPECT_TRUE(sameBits(out.timeNs, 9.0));
    }
}

TEST_F(ResultStoreTest, CrcCatchesPayloadCorruption)
{
    const CasKey key{5, 0};
    std::string shard;
    {
        ResultStore store(opts());
        ASSERT_TRUE(store.insert(key, makeValue(4.0)));
        shard = store.shardPath(5);
    }
    // Flip a payload byte (past the 20-byte frame header): the header
    // still parses, so only the CRC can catch this.
    flipBit(shard, 28);

    ResultStore store(opts());
    EXPECT_EQ(store.quarantines(), 1u);
    EXPECT_FALSE(store.lookup(key, nullptr));
}

TEST_F(ResultStoreTest, FaultInjectedTamperingAtOpenQuarantines)
{
    const CasKey key{6, 0};
    {
        ResultStore store(opts());
        ASSERT_TRUE(store.insert(key, makeValue(7.0)));
    }
    // SAVE_FAULT_INJECT cache-bitflip corrupts existing shards before
    // the warm open parses them — the CI cache-smoke recovery drill.
    FaultInjector::global().configure(
        FaultInjector::parsePlan("cache-bitflip=1.0,seed=5"));
    {
        ResultStore store(opts());
        EXPECT_GE(store.quarantines(), 1u);
        EXPECT_FALSE(store.lookup(key, nullptr));
    }
    FaultInjector::global().reset();

    // A warm run after the drill starts from the quarantined state and
    // repopulates cleanly.
    ResultStore store(opts());
    EXPECT_TRUE(store.insert(key, makeValue(7.0)));
    CasValue out;
    EXPECT_TRUE(store.lookup(key, &out));
}

TEST_F(ResultStoreTest, FaultInjectedTamperingAfterInsert)
{
    const CasKey key{8, 0};
    FaultInjector::global().configure(
        FaultInjector::parsePlan("cache-truncate=1.0,seed=11"));
    {
        ResultStore store(opts());
        ASSERT_TRUE(store.insert(key, makeValue(3.0)));
        // The in-memory index is unaffected by the at-rest damage.
        CasValue out;
        EXPECT_TRUE(store.lookup(key, &out));
        EXPECT_TRUE(sameBits(out.timeNs, 3.0));
    }
    FaultInjector::global().reset();

    // The next open finds the truncated file, quarantines it, and
    // reports a miss instead of serving garbage.
    ResultStore store(opts());
    EXPECT_EQ(store.quarantines(), 1u);
    EXPECT_FALSE(store.lookup(key, nullptr));
    EXPECT_TRUE(fs::exists(store.shardPath(8) + ".corrupt"));
}

// --------------------------------------------------------------------
// Eviction

TEST_F(ResultStoreTest, LruEvictionUnderTinyCap)
{
    // A stat-less record frame is 64 bytes; cap at 4 of them.
    const uint64_t cap = 256;
    ResultStore store(opts(cap));
    const int n = 12;
    for (int i = 1; i <= n; ++i)
        ASSERT_TRUE(
            store.insert(CasKey{static_cast<uint64_t>(i), 0},
                         makeValue(static_cast<double>(i))));

    EXPECT_GT(store.evictions(), 0u);
    EXPECT_LT(store.records(), static_cast<uint64_t>(n));
    EXPECT_LE(store.bytes(), cap);
    // The most recently inserted record always survives.
    CasValue out;
    EXPECT_TRUE(
        store.lookup(CasKey{static_cast<uint64_t>(n), 0}, &out));
    EXPECT_TRUE(sameBits(out.timeNs, static_cast<double>(n)));

    // Compaction left only valid frames behind: a reopen sees exactly
    // the survivors, bit-identical.
    const uint64_t survivors = store.records();
    ResultStore reread(opts());
    EXPECT_EQ(reread.records(), survivors);
    EXPECT_EQ(reread.quarantines(), 0u);
    EXPECT_TRUE(
        reread.lookup(CasKey{static_cast<uint64_t>(n), 0}, &out));
    EXPECT_TRUE(sameBits(out.timeNs, static_cast<double>(n)));
}

TEST_F(ResultStoreTest, LookupSeesOtherHandlesAppends)
{
    // Two handles on one directory model two processes: an append by
    // one is visible to the other's very next lookup (the call
    // waitForResult polls through), with nothing else in between.
    ResultStore reader(opts());
    ResultStore writer(opts());
    const CasKey key{0xabc, 0xdef};
    EXPECT_FALSE(reader.lookup(key, nullptr));
    ASSERT_TRUE(writer.insert(key, makeValue(6.25)));
    CasValue out;
    ASSERT_TRUE(reader.lookup(key, &out));
    EXPECT_TRUE(sameBits(out.timeNs, 6.25));
    EXPECT_EQ(reader.hits(), 1u);
    EXPECT_EQ(reader.misses(), 1u);
}

TEST_F(ResultStoreTest, InterleavedAppendsToOneShardStayParseable)
{
    // Two handles append to the same shard file in turn. Each append
    // lands after the other handle's record, not where the appender
    // last parsed up to; a lookup must neither quarantine the shard
    // nor miss the other handle's records.
    ResultStore a(opts());
    ResultStore b(opts());
    // Equal low nibbles of cfg ^ wl: all four keys share shard 0. The
    // handles write frames of different sizes, so an offset either of
    // them wrongly advanced to lands inside the other's record.
    const CasKey ka1{0x10, 0}, kb1{0x20, 0}, ka2{0x30, 0}, kb2{0x40, 0};
    CasValue wide = makeValue(1.5);
    wide.stats = {{"sim.cycles", 100.0}, {"sim.uops", 42.0}};
    ASSERT_TRUE(a.insert(ka1, wide));
    ASSERT_TRUE(b.insert(kb1, makeValue(2.5)));
    ASSERT_TRUE(a.insert(ka2, wide));
    ASSERT_TRUE(b.insert(kb2, makeValue(3.5)));
    for (const CasKey &k : {ka1, kb1, ka2, kb2}) {
        EXPECT_TRUE(a.lookup(k, nullptr)) << k.cfg;
        EXPECT_TRUE(b.lookup(k, nullptr)) << k.cfg;
    }
    EXPECT_EQ(a.quarantines(), 0u);
    EXPECT_EQ(b.quarantines(), 0u);
    EXPECT_EQ(a.bytes(), b.bytes());
    ResultStore reread(opts());
    EXPECT_EQ(reread.quarantines(), 0u);
    EXPECT_EQ(reread.records(), 4u);
    EXPECT_EQ(reread.bytes(), a.bytes());
}

// --------------------------------------------------------------------
// Single-flight

TEST_F(ResultStoreTest, FlightOwnershipAndRelease)
{
    ResultStore store(opts());
    const CasKey key{21, 42};

    ResultStore::Flight f1 = store.beginFlight(key);
    EXPECT_TRUE(f1.owner());
    EXPECT_TRUE(fs::exists(store.flightPath(key)));
    // The lock is held by a live pid (ours): followers must wait.
    ResultStore::Flight f2 = store.beginFlight(key);
    EXPECT_FALSE(f2.owner());

    // A follower whose owner never lands a result times out...
    CasValue v;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(store.waitForResult(key, &v, 150));
    EXPECT_GE(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(100));

    // ...and an owner that inserts before releasing hands followers
    // the result immediately.
    ASSERT_TRUE(store.insert(key, makeValue(11.0)));
    f1.release();
    EXPECT_FALSE(fs::exists(store.flightPath(key)));
    ASSERT_TRUE(store.waitForResult(key, &v, 5000));
    EXPECT_TRUE(sameBits(v.timeNs, 11.0));

    // With the lock gone, the next claimant owns the flight again.
    ResultStore::Flight f3 = store.beginFlight(key);
    EXPECT_TRUE(f3.owner());
}

TEST_F(ResultStoreTest, WaitReturnsEarlyWhenOwnerVanishes)
{
    ResultStore store(opts());
    const CasKey key{33, 44};
    // No flight lock, no record: the wait must return well before the
    // timeout so the caller can simulate the point itself.
    CasValue v;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(store.waitForResult(key, &v, 30000));
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(5));
}

/** Set a file's mtime (and atime) `sec` seconds into the past. */
void
backdate(const std::string &path, long sec)
{
    struct timespec times[2];
    times[0].tv_sec = ::time(nullptr) - sec;
    times[0].tv_nsec = 0;
    times[1] = times[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

long
mtimeOf(const std::string &path)
{
    struct stat st;
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    return static_cast<long>(st.st_mtime);
}

/** Fork-and-reap: a pid that is provably dead. */
pid_t
deadPid()
{
    pid_t dead = ::fork();
    EXPECT_GE(dead, 0);
    if (dead == 0)
        ::_exit(0);
    int st = 0;
    EXPECT_EQ(::waitpid(dead, &st, 0), dead);
    return dead;
}

TEST_F(ResultStoreTest, FlightLockBreakNeedsDeadPidAndStaleMtime)
{
    ResultStore store(opts());
    const CasKey key{55, 66};
    const std::string lock = store.flightPath(key);

    // Dead pid, fresh mtime: NOT broken. This is the pid-reuse hazard
    // — the kernel may have recycled the owner's pid, but a fresh
    // heartbeat proves somebody is still working the point.
    {
        std::ofstream f(lock);
        f << static_cast<long>(deadPid()) << "\n";
    }
    EXPECT_FALSE(store.beginFlight(key).owner());

    // Live pid (ours), stale mtime: NOT broken either — a provably
    // live holder is just slow.
    {
        std::ofstream f(lock);
        f << static_cast<long>(::getpid()) << "\n";
    }
    backdate(lock, 600);
    EXPECT_FALSE(store.beginFlight(key).owner());

    // Dead pid AND stale mtime: the owner crashed long ago — break
    // the lock and claim ownership so the sweep never wedges.
    {
        std::ofstream f(lock);
        f << static_cast<long>(deadPid()) << "\n";
    }
    backdate(lock, 600);
    EXPECT_TRUE(store.beginFlight(key).owner());
}

TEST_F(ResultStoreTest, UnparseableFlightLockBreaksOnlyWhenStale)
{
    ResultStore store(opts());
    const CasKey key{57, 68};
    const std::string lock = store.flightPath(key);

    // A lock whose pid cannot be parsed (another host, torn write)
    // cannot vouch for liveness via the pid probe; only its heartbeat
    // protects it.
    {
        std::ofstream f(lock);
        f << "not-a-pid\n";
    }
    EXPECT_FALSE(store.beginFlight(key).owner()); // fresh: follower
    backdate(lock, 600);
    EXPECT_TRUE(store.beginFlight(key).owner()); // stale: broken
}

TEST_F(ResultStoreTest, OwnerHeartbeatRefreshesLockMtime)
{
    ResultStore store(opts());
    const CasKey key{59, 70};

    ResultStore::Flight f = store.beginFlight(key);
    ASSERT_TRUE(f.owner());
    const std::string lock = store.flightPath(key);

    // Simulate a long-running owner: age the lock past the staleness
    // window, then force one heartbeat pass (the background thread
    // does the same every few seconds).
    backdate(lock, 600);
    store.touchActiveFlights();
    EXPECT_GT(mtimeOf(lock), ::time(nullptr) - 60);

    // With the heartbeat landed, a second store cannot break the lock
    // even though the pid half alone would not save an aged lock
    // against e.g. a reused-pid false positive.
    ResultStore other(opts());
    EXPECT_FALSE(other.beginFlight(key).owner());

    // After release the heartbeat set shrinks and a beat recreates
    // nothing.
    f.release();
    store.touchActiveFlights();
    EXPECT_FALSE(fs::exists(lock));
}

TEST_F(ResultStoreTest, ForkedWritersSingleFlight)
{
    const CasKey key{0x5eed, 0xf00d};
    const std::string marker = (dir_ / "sims.txt").string();
    constexpr int kProcs = 4;

    std::vector<pid_t> kids;
    for (int i = 0; i < kProcs; ++i) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: one independent process racing for the key. The
            // marker file counts actual "simulations" via O_APPEND
            // one-line writes.
            ResultStore store(
                ResultStore::Options{dir_.string(), 0});
            CasValue v;
            if (store.lookup(key, &v))
                ::_exit(sameBits(v.timeNs, 42.0) ? 0 : 2);
            ResultStore::Flight fl = store.beginFlight(key);
            if (!fl.owner()) {
                bool ok = store.waitForResult(key, &v, 20000);
                ::_exit(ok && sameBits(v.timeNs, 42.0) ? 0 : 3);
            }
            // Owner: re-check after winning the lock — a previous
            // owner may have landed the result and released already.
            if (store.lookup(key, &v))
                ::_exit(sameBits(v.timeNs, 42.0) ? 0 : 4);
            int fd = ::open(marker.c_str(),
                            O_WRONLY | O_APPEND | O_CREAT, 0644);
            if (fd < 0)
                ::_exit(5);
            char line[32];
            int len = std::snprintf(line, sizeof line, "%ld\n",
                                    static_cast<long>(::getpid()));
            if (::write(fd, line, static_cast<size_t>(len)) != len)
                ::_exit(5);
            ::close(fd);
            // Hold the flight long enough that every sibling has had
            // to choose follower before the result lands.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            if (!store.insert(key, makeValue(42.0)))
                ::_exit(6);
            ::_exit(0);
        }
        kids.push_back(pid);
    }

    for (pid_t pid : kids) {
        int st = 0;
        ASSERT_EQ(::waitpid(pid, &st, 0), pid);
        EXPECT_TRUE(WIFEXITED(st));
        EXPECT_EQ(WEXITSTATUS(st), 0);
    }

    // Exactly one process simulated; everyone else hit or waited.
    std::ifstream in(marker);
    int owners = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++owners;
    EXPECT_EQ(owners, 1);

    ResultStore store(opts());
    CasValue v;
    ASSERT_TRUE(store.lookup(key, &v));
    EXPECT_TRUE(sameBits(v.timeNs, 42.0));
}

// --------------------------------------------------------------------
// Estimator integration

EstimatorOptions
fastOptions(const std::string &cache_dir)
{
    EstimatorOptions o;
    o.kSteps = 24;
    o.tiles = 1;
    o.gridStep = 9;
    o.threads = 2;
    o.cacheDir = cache_dir;
    return o;
}

/** Mirror of the estimator's private optionSalt (seed, tiles, cores):
 *  keeps the v1-migration test honest about the config digest. */
uint64_t
optionSaltOf(const EstimatorOptions &o)
{
    uint64_t salt = o.seed;
    salt = salt * 1000003ull + static_cast<uint64_t>(o.tiles);
    salt = salt * 1000003ull + static_cast<uint64_t>(o.cores);
    return salt;
}

TEST_F(ResultStoreTest, WarmRunsAreBitIdenticalAcrossIsolationModes)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(2);

    const std::string cache = (dir_ / "cas").string();
    NetResult cold;
    uint64_t cold_sims = 0;
    {
        EstimatorOptions o = fastOptions(cache);
        o.isolation = "none";
        o.threads = 1;
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        cold = est.inference(net, Precision::Fp32);
        cold_sims = est.simulations();
        ASSERT_GT(cold_sims, 0u);
    }

    for (const char *iso : {"none", "thread", "process"}) {
        EstimatorOptions o = fastOptions(cache);
        o.isolation = iso;
        if (o.isolation == "process") {
            o.proc.workerBin = SAVE_WORKER_BIN_PATH;
            o.proc.workers = 2;
        }
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        NetResult warm = est.inference(net, Precision::Fp32);
        EXPECT_EQ(est.simulations(), 0u) << iso;
        EXPECT_EQ(est.persistentHits(), cold_sims) << iso;
        EXPECT_EQ(std::memcmp(&cold, &warm, sizeof cold), 0) << iso;
    }
}

TEST_F(ResultStoreTest, WorkerProcessesPersistTheirOwnResults)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(2);
    const std::string serial_dir = (dir_ / "serial").string();
    const std::string worker_dir = (dir_ / "workers").string();

    NetResult serial;
    {
        EstimatorOptions o = fastOptions(serial_dir);
        o.isolation = "none";
        o.threads = 1;
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        serial = est.inference(net, Precision::Fp32);
    }

    // Cold run under process isolation: every slice simulates inside
    // a sandboxed worker, and the *worker* persists it before
    // replying — the parent must not append duplicates.
    {
        EstimatorOptions o = fastOptions(worker_dir);
        o.isolation = "process";
        o.proc.workerBin = SAVE_WORKER_BIN_PATH;
        o.proc.workers = 2;
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        NetResult out = est.inference(net, Precision::Fp32);
        EXPECT_EQ(std::memcmp(&serial, &out, sizeof out), 0);
        EXPECT_GT(est.simulations(), 0u);
        ASSERT_NE(est.resultStore(), nullptr);
        EXPECT_EQ(est.resultStore()->inserts(), 0u)
            << "parent duplicated worker-persisted records";
    }

    // The worker-written store warms an in-process run completely.
    {
        EstimatorOptions o = fastOptions(worker_dir);
        o.isolation = "none";
        o.threads = 1;
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        NetResult warm = est.inference(net, Precision::Fp32);
        EXPECT_EQ(est.simulations(), 0u);
        EXPECT_GT(est.persistentHits(), 0u);
        EXPECT_EQ(std::memcmp(&serial, &warm, sizeof warm), 0);
    }
}

TEST_F(ResultStoreTest, EstimatorsOnTwoHandlesSimulateEachSliceOnce)
{
    // Two handles opened before either estimator runs model two
    // processes on one store: neither open saw any record, yet the
    // second prefetch must find every slice the first one stored.
    ResultStore first(opts());
    ResultStore second(opts());
    const EstimatorOptions o = fastOptions(dir_.string());
    TrainingEstimator a(MachineConfig{}, SaveConfig{}, o, nullptr, &first);
    TrainingEstimator b(MachineConfig{}, SaveConfig{}, o, nullptr,
                        &second);

    a.prefetch(vgg16Dense(), Precision::Fp32, true);
    ASSERT_GT(a.simulations(), 0u);
    b.prefetch(vgg16Dense(), Precision::Fp32, true);
    EXPECT_EQ(b.simulations(), 0u);
    EXPECT_EQ(second.hits(), a.simulations());
    EXPECT_EQ(second.inserts(), 0u);
}

TEST_F(ResultStoreTest, FlightOwnerRechecksTheStoreBeforeSimulating)
{
    // Slices another process stores after a prefetch looked them up,
    // but before its fan-out reaches them, must not be simulated
    // again: the owner of a slice's flight re-checks the store first.
    const NetworkModel net = vgg16Dense();
    const fs::path ref = dir_ / "ref";
    EstimatorOptions o = fastOptions(ref.string());
    // A serial fan-out of longer slices: the other thread has tens of
    // milliseconds to land the slices before the last one is reached.
    o.threads = 1;
    o.kSteps = 192;
    uint64_t slices = 0;
    {
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        est.prefetch(net, Precision::Fp32, true);
        slices = est.simulations();
    }
    ASSERT_GE(slices, 4u);

    const fs::path live = dir_ / "live";
    o.cacheDir = live.string();
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
    std::thread other([&] {
        // The lookup pass ends with one miss per slice; the fan-out
        // then simulates its first slice. Meanwhile land every slice
        // the way another process would: append the reference run's
        // frames to the live shard files.
        while (est.resultStore()->misses() < slices)
            std::this_thread::yield();
        for (const auto &e : fs::directory_iterator(ref)) {
            if (e.path().extension() != ".savecas")
                continue;
            std::ifstream in(e.path(), std::ios::binary);
            const std::string bytes(std::istreambuf_iterator<char>(in),
                                    {});
            const int fd =
                ::open((live / e.path().filename()).c_str(),
                       O_WRONLY | O_APPEND | O_CREAT, 0644);
            ASSERT_GE(fd, 0);
            ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
                      static_cast<ssize_t>(bytes.size()));
            ::close(fd);
        }
    });
    est.prefetch(net, Precision::Fp32, true);
    other.join();
    EXPECT_LT(est.simulations(), slices);
}

TEST_F(ResultStoreTest, V1SurfaceFilesMigrateIntoTheStore)
{
    EstimatorOptions o = fastOptions(dir_.string());
    const uint64_t hash = SurfaceCache::hashConfig(
        MachineConfig{}, SaveConfig{}, optionSaltOf(o));

    SurfaceCache v1(dir_.string(), hash);
    std::vector<SurfaceRecord> recs(3);
    for (int i = 0; i < 3; ++i) {
        recs[static_cast<size_t>(i)] = SurfaceRecord{
            4, 6, 24, 0, 0, 1, 2, static_cast<uint8_t>(i), 0, 100.0 + i};
    }
    ASSERT_TRUE(v1.save(recs));
    ASSERT_TRUE(fs::exists(v1.path()));

    {
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        // The ctor folded the v1 records into the CAS and renamed the
        // old file so it is migrated exactly once.
        ASSERT_NE(est.resultStore(), nullptr);
        EXPECT_EQ(est.resultStore()->records(), 3u);
        EXPECT_FALSE(fs::exists(v1.path()));
        EXPECT_TRUE(fs::exists(v1.path() + ".migrated"));

        // The migrated records answer real surface lookups.
        const uint64_t cfg =
            casHashConfig(MachineConfig{}, SaveConfig{},
                          optionSaltOf(o));
        ResultStore reread(opts());
        CasValue out;
        ASSERT_TRUE(reread.lookup(
            CasKey{cfg, casSliceWorkload(
                            SliceKey{4, 6, 24, 0, 0, 1, 2, 1, 0})},
            &out));
        EXPECT_TRUE(sameBits(out.timeNs, 101.0));
    }

    // A second estimator must not re-migrate (or double-count).
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
    EXPECT_EQ(est.resultStore()->records(), 3u);
}

TEST_F(ResultStoreTest, PoisonedSlicesNeverReachTheStore)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(1);

    // Every slice fails more times than the retry budget allows: the
    // whole surface is NaN-poisoned.
    FaultInjector::global().configure(
        FaultInjector::parsePlan("slice=1.0,times=99,seed=3"));
    {
        EstimatorOptions o = fastOptions(dir_.string());
        o.isolation = "none";
        o.threads = 1;
        o.maxRetries = 0;
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        NetResult out = est.inference(net, Precision::Fp32);
        EXPECT_TRUE(sweepResultPoisoned(out));
        EXPECT_FALSE(est.failures().empty());
        ASSERT_NE(est.resultStore(), nullptr);
        EXPECT_EQ(est.resultStore()->inserts(), 0u);
        EXPECT_EQ(est.resultStore()->records(), 0u);
    }
    FaultInjector::global().reset();

    // With the fault gone, a resumed run on the same directory finds
    // no poison: it simulates cleanly and persists finite results.
    EstimatorOptions o = fastOptions(dir_.string());
    o.isolation = "none";
    o.threads = 1;
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
    NetResult out = est.inference(net, Precision::Fp32);
    EXPECT_FALSE(sweepResultPoisoned(out));
    EXPECT_GT(est.simulations(), 0u);
    EXPECT_GT(est.resultStore()->records(), 0u);
}

} // namespace
} // namespace save
