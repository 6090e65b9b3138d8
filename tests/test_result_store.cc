/**
 * @file
 * Content-addressed result store (cache/result_store.h) tests: key
 * derivation, bit-exact record round-trips, corruption quarantine
 * (manual tampering and SAVE_FAULT_INJECT cache modes), LRU eviction
 * under a byte cap, lookups that see other handles' appends,
 * cross-process single-flight (forked writers, a SIGKILLed owner, and
 * the estimator's flight-owner re-check), the slice record's bytes
 * (tests/golden/slice_record.txt), the parent as the one writer of
 * worker-run slices, and cold/warm estimator bit-identity across
 * every isolation mode.
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
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cache/cas_key.h"
#include "cache/result_store.h"
#include "dnn/estimator.h"
#include "dnn/networks.h"
#include "util/fault_injection.h"
#include "util/frame.h"

#if !defined(SAVE_WORKER_BIN_PATH) || !defined(SAVE_SLICE_RECORD_GOLDEN)
#error "test_result_store requires its CMake definitions"
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

TEST_F(ResultStoreTest, ConfigDigestIsStableAndFieldSensitive)
{
    MachineConfig m;
    SaveConfig s;
    uint64_t base = casHashConfig(m, s, 0);
    EXPECT_EQ(base, casHashConfig(m, s, 0));

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
}

TEST_F(ResultStoreTest, SurfacePointsKeyAsTheirRequests)
{
    // A surface point is stored under its request's key, the key of
    // every stored slice: the config digest of its machine and
    // features, and the workload digest of its GEMM, cores and VPUs.
    const MachineConfig m;
    const SaveConfig s;
    const SliceKey base{4, 6, 192, 0, 0, 1, 2, 3, 5};
    const SliceRequest r = sliceRequest(m, s, base, 6, 1, 7);
    const CasKey key = casSliceKey(r);
    EXPECT_EQ(key.cfg, casHashConfig(m, s, 0));
    EXPECT_EQ(key.wl, casGemmWorkload(r.gemm, 1, 2));
    EXPECT_EQ(casSliceKey(sliceRequest(m, s, base, 6, 1, 7)), key);

    // Every point field must shift the key: two distinct surface
    // points colliding would silently serve one's time as the other's.
    auto differs = [&](SliceKey k) {
        return casSliceKey(sliceRequest(m, s, k, 6, 1, 7)) != key;
    };
    SliceKey k = base;
    k.mr = 5;
    EXPECT_TRUE(differs(k));
    k = base;
    k.nr = 7;
    EXPECT_TRUE(differs(k));
    k = base;
    k.kSteps = 24;
    EXPECT_TRUE(differs(k));
    k = base;
    k.pattern = 1;
    EXPECT_TRUE(differs(k));
    k = base;
    k.precision = 1;
    EXPECT_TRUE(differs(k));
    k = base;
    k.saveOn = 0;
    EXPECT_TRUE(differs(k));
    k = base;
    k.vpus = 1;
    EXPECT_TRUE(differs(k));
    k = base;
    k.wBin = 4;
    EXPECT_TRUE(differs(k));
    k = base;
    k.aBin = 6;
    EXPECT_TRUE(differs(k));
    // ...and so must the knobs outside the point.
    EXPECT_NE(casSliceKey(sliceRequest(m, s, base, 5, 1, 7)), key);
    EXPECT_NE(casSliceKey(sliceRequest(m, s, base, 6, 2, 7)), key);
    EXPECT_NE(casSliceKey(sliceRequest(m, s, base, 6, 1, 8)), key);
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

/** The slice record golden's three records: one without stats, one
 *  with stats of -0.0, a denormal and 1e300, and one with 64 stats.
 *  The last two share a shard, which pins their append order. */
std::vector<std::pair<CasKey, CasValue>>
goldenRecords()
{
    std::vector<std::pair<CasKey, CasValue>> recs(3);
    recs[0].first = {0x0123456789abcdefull, 0x1111111111111111ull};
    recs[0].second = makeValue(1234.5, 2099, 1.7);
    recs[1].first = {0x2, 0x10};
    recs[1].second = makeValue(1.0 / 3.0, 77, 2.1);
    recs[1].second.stats = {
        {"denormal", std::numeric_limits<double>::denorm_min()},
        {"huge", 1e300},
        {"negzero", -0.0},
    };
    recs[2].first = {0x22, 0x30};
    recs[2].second = makeValue(98765.4321, 123456789, 1.7);
    for (int i = 0; i < 64; ++i) {
        char name[8];
        std::snprintf(name, sizeof name, "s%02d", i);
        recs[2].second.stats.emplace_back(name, i * 0.25 - 3.0);
    }
    return recs;
}

/** A titled hex dump, 32 bytes per line. */
void
appendHex(std::string &out, const std::string &title, const uint8_t *p,
          size_t n)
{
    out += title + "\n";
    for (size_t i = 0; i < n; ++i) {
        char byte[3];
        std::snprintf(byte, sizeof byte, "%02x", p[i]);
        out += (i % 32 == 0 ? "  " : "") + std::string(byte) +
               (i % 32 == 31 || i + 1 == n ? "\n" : "");
    }
}

TEST_F(ResultStoreTest, SliceRecordBytesMatchGolden)
{
    // One record, one codec: the store's shard files and the worker's
    // RES payloads (which a served Gemm's SRES shares) carry the bytes
    // the golden pins, and a RES payload decodes bit for bit.
    const auto recs = goldenRecords();
    {
        ResultStore store(opts());
        for (const auto &[key, v] : recs)
            ASSERT_TRUE(store.insert(key, v));
    }
    std::string actual;
    ResultStore store(opts());
    for (int shard = 0; shard < ResultStore::kShards; ++shard) {
        const fs::path path = store.shardPath(shard);
        if (!fs::exists(path))
            continue;
        std::ifstream in(path, std::ios::binary);
        const std::string bytes(std::istreambuf_iterator<char>(in), {});
        appendHex(actual, path.filename().string(),
                  reinterpret_cast<const uint8_t *>(bytes.data()),
                  bytes.size());
    }
    for (size_t i = 0; i < recs.size(); ++i) {
        const CasValue &in = recs[i].second;
        std::vector<uint8_t> res;
        casEncodeValue(res, in);
        appendHex(actual, "RES " + std::to_string(i), res.data(),
                  res.size());
        const CasValue out =
            casDecodeValue(res.data(), res.data() + res.size());
        EXPECT_TRUE(sameBits(in.timeNs, out.timeNs));
        EXPECT_EQ(in.cycles, out.cycles);
        EXPECT_TRUE(sameBits(in.coreGhz, out.coreGhz));
        ASSERT_EQ(in.stats.size(), out.stats.size());
        for (size_t j = 0; j < in.stats.size(); ++j) {
            EXPECT_EQ(in.stats[j].first, out.stats[j].first);
            EXPECT_TRUE(sameBits(in.stats[j].second, out.stats[j].second));
        }
    }
    std::ifstream golden(SAVE_SLICE_RECORD_GOLDEN);
    ASSERT_TRUE(golden.is_open()) << SAVE_SLICE_RECORD_GOLDEN;
    const std::string expected(std::istreambuf_iterator<char>(golden), {});
    if (actual != expected) {
        std::ofstream(SAVE_SLICE_RECORD_OUT) << actual;
        FAIL() << "slice records differ from the golden; see: diff "
               << SAVE_SLICE_RECORD_GOLDEN << " " << SAVE_SLICE_RECORD_OUT;
    }
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

TEST_F(ResultStoreTest, ResolveOptionsReadsEveryCacheDirOneWay)
{
    RuntimeOptions rt;
    for (const char *off : {"", "none", "-"}) {
        rt.cacheDir = off;
        EXPECT_EQ(ResultStore::resolveOptions(rt).dir, "") << off;
    }
    rt.cacheDir = "/x/y";
    EXPECT_EQ(ResultStore::resolveOptions(rt).dir, "/x/y");
    EXPECT_EQ(ResultStore::resolveOptions(rt).maxBytes, 0u);
    rt.cacheMaxMb = 3;
    EXPECT_EQ(ResultStore::resolveOptions(rt).maxBytes, 3ull << 20);
    rt.cacheMaxMb = -1;
    EXPECT_EQ(ResultStore::resolveOptions(rt).maxBytes, 0u);
}

TEST_F(ResultStoreTest, EstimatorStoreFollowsTheEnvironment)
{
    // Built with default options, an estimator's store is what
    // SAVE_CACHE_DIR and SAVE_CACHE_MAX_MB name, read by the same rule
    // as --cache-dir: "none" and "-" disable it and create nothing (a
    // relative directory would land in the working directory, dir_).
    const fs::path cwd = fs::current_path();
    fs::current_path(dir_);
    for (const char *off : {"none", "-"}) {
        ::setenv("SAVE_CACHE_DIR", off, 1);
        TrainingEstimator est(MachineConfig{}, SaveConfig{},
                              EstimatorOptions{});
        EXPECT_FALSE(est.resultStore()->enabled()) << off;
        EXPECT_FALSE(fs::exists(dir_ / off)) << off;
    }
    const fs::path env_dir = dir_ / "env";
    ::setenv("SAVE_CACHE_DIR", env_dir.c_str(), 1);
    ::setenv("SAVE_CACHE_MAX_MB", "2", 1);
    {
        TrainingEstimator est(MachineConfig{}, SaveConfig{},
                              EstimatorOptions{});
        EXPECT_EQ(est.resultStore()->dir(), env_dir.string());
        EXPECT_EQ(est.resultStore()->maxBytes(), 2ull << 20);
    }
    ::setenv("SAVE_CACHE_MAX_MB", "banana", 1); // malformed: unlimited
    {
        TrainingEstimator est(MachineConfig{}, SaveConfig{},
                              EstimatorOptions{});
        EXPECT_EQ(est.resultStore()->maxBytes(), 0u);
    }
    // Explicit options win over the environment.
    EstimatorOptions o;
    o.cacheDir = "none";
    o.cacheMaxMb = 3;
    {
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        EXPECT_FALSE(est.resultStore()->enabled());
    }
    o.cacheDir = (dir_ / "opt").string();
    {
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        EXPECT_EQ(est.resultStore()->dir(), o.cacheDir);
        EXPECT_EQ(est.resultStore()->maxBytes(), 3ull << 20);
    }
    ::unsetenv("SAVE_CACHE_DIR");
    ::unsetenv("SAVE_CACHE_MAX_MB");
    fs::current_path(cwd);
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

/** Bit-at-a-time CRC-32 (reflected 0xEDB88320): the slow reference the
 *  table-driven frameCrc32 must equal. */
uint32_t
crc32Bitwise(const uint8_t *p, size_t n, uint32_t seed)
{
    uint32_t c = ~seed;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

TEST(FrameCrc32, MatchesTheCheckValueAndABitwiseReference)
{
    const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(frameCrc32(check, sizeof check), 0xcbf43926u);
    EXPECT_EQ(frameCrc32(nullptr, 0), 0u);

    // Every length 0-72 from every start offset 0-7 (so every
    // alignment and every tail after the 8-byte blocks), two seeds.
    std::mt19937 rng(25);
    std::vector<uint8_t> buf(8 + 72);
    for (size_t off = 0; off < 8; ++off) {
        for (uint8_t &b : buf)
            b = static_cast<uint8_t>(rng());
        const uint8_t *p = buf.data() + off;
        for (size_t n = 0; n <= 72; ++n)
            for (uint32_t seed : {0u, 0x9e3779b9u})
                EXPECT_EQ(frameCrc32(p, n, seed), crc32Bitwise(p, n, seed))
                    << "offset " << off << " length " << n;
        // Chaining: crc(a || b) == crc(b, seed = crc(a)).
        for (size_t split = 0; split <= 72; ++split)
            EXPECT_EQ(frameCrc32(p + split, 72 - split, frameCrc32(p, split)),
                      frameCrc32(p, 72))
                << "offset " << off << " split " << split;
    }
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

TEST_F(ResultStoreTest, DeadOwnersFlightIsClaimedAtOnce)
{
    const CasKey key{55, 66};
    // `ready` carries the child's claim result; the child blocks on
    // `hold` until it is killed (or this process exits).
    int ready[2], hold[2];
    ASSERT_EQ(::pipe(ready), 0);
    ASSERT_EQ(::pipe(hold), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::close(ready[0]);
        ::close(hold[1]);
        ResultStore store(opts());
        ResultStore::Flight f = store.beginFlight(key);
        const char owner = f.owner() ? '1' : '0';
        if (::write(ready[1], &owner, 1) != 1)
            ::_exit(1);
        char c;
        (void)::read(hold[0], &c, 1);
        ::_exit(0);
    }
    ::close(ready[1]);
    ::close(hold[0]);
    // Kill and reap the child on every exit path, so a failed
    // assertion cannot leave it holding the flight.
    struct Reaper
    {
        pid_t pid;
        int fd;
        ~Reaper()
        {
            if (pid > 0) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, nullptr, 0);
            }
            ::close(fd);
        }
    } reaper{child, hold[1]};
    char owner = 0;
    ASSERT_EQ(::read(ready[0], &owner, 1), 1);
    ::close(ready[0]);
    ASSERT_EQ(owner, '1');

    // While the owner lives, a claimant follows and a wait times out.
    ResultStore store(opts());
    const std::string lock = store.flightPath(key);
    EXPECT_FALSE(store.beginFlight(key).owner());
    CasValue v;
    EXPECT_FALSE(store.waitForResult(key, &v, 100));

    // SIGKILL leaves the lock file behind, but the kernel drops the
    // flock with the dead owner's descriptors.
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    ASSERT_EQ(::waitpid(child, nullptr, 0), child);
    reaper.pid = -1;
    ASSERT_TRUE(fs::exists(lock));

    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(store.waitForResult(key, &v, 30000));
    ResultStore::Flight f = store.beginFlight(key);
    EXPECT_TRUE(f.owner());
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(1));
    f.release();
    EXPECT_FALSE(fs::exists(lock));
}

TEST_F(ResultStoreTest, OpenUnlinksUnheldLocksOfStoredKeys)
{
    // A run killed between its insert and its release leaves a lock
    // file for a stored key, and no claimant would ever free it.
    const CasKey stored{71, 72}, missing{73, 74}, held{75, 76};
    {
        ResultStore store(opts());
        ASSERT_TRUE(store.insert(stored, makeValue(1.0)));
        ASSERT_TRUE(store.insert(held, makeValue(2.0)));
    }
    ResultStore owner(opts());
    for (const CasKey &k : {stored, missing})
        std::ofstream(owner.flightPath(k)) << "\n"; // no holder
    ResultStore::Flight f = owner.beginFlight(held);
    ASSERT_TRUE(f.owner());

    ResultStore reopened(opts());
    EXPECT_FALSE(fs::exists(reopened.flightPath(stored)));
    // A missing key's lock is left to its next claimant, and a live
    // owner keeps its lock.
    EXPECT_TRUE(fs::exists(reopened.flightPath(missing)));
    EXPECT_TRUE(fs::exists(reopened.flightPath(held)));
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

TEST_F(ResultStoreTest, TheParentPersistsWhatItsWorkersSimulate)
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
    // a sandboxed worker, which only replies; the parent, which owns
    // each slice's flight, writes every record once.
    {
        EstimatorOptions o = fastOptions(worker_dir);
        o.isolation = "process";
        o.proc.workerBin = SAVE_WORKER_BIN_PATH;
        o.proc.workers = 2;
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        NetResult out = est.inference(net, Precision::Fp32);
        EXPECT_EQ(std::memcmp(&serial, &out, sizeof out), 0);
        EXPECT_GT(est.simulations(), 0u);
        EXPECT_EQ(est.resultStore()->inserts(), est.simulations());
        EXPECT_EQ(est.resultStore()->records(), est.simulations());
    }

    // The parent-written store warms an in-process run completely.
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
        EXPECT_FALSE(est.producer().failures().empty());
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
