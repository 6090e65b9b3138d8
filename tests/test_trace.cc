/**
 * @file
 * Trace subsystem tests (src/trace, DESIGN.md §9).
 *
 * - uop codec and writer/reader round-trips over real kernel streams
 * - corruption rejection: bad magic, truncation, a flipped bit
 *   anywhere in the file (header or payload) must raise TraceError
 * - record -> replay bit-identity: cycles and the whole stat map match
 *   the live run across SAVE policies and precisions, for GEMM, conv-
 *   lowered, and LSTM-lowered slices, single- and multi-core
 * - pipeline event tracer: attaching it must not change a single stat,
 *   its output must be loadable Chrome-trace JSON, and every issue hook
 *   (baseline issue, dense and per-lane coalescing, chain MLs, pass
 *   lanes, squash) must emit
 * - SAVE_FAULT_INJECT cache-bitflip tampering of a freshly recorded
 *   trace file is caught at open time
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "kernels/conv.h"
#include "kernels/gemm.h"
#include "kernels/lstm.h"
#include "mem/memory_image.h"
#include "sim/multicore.h"
#include "sim/reference.h"
#include "trace/event_trace.h"
#include "trace/replay.h"
#include "trace/trace_format.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"
#include "util/error.h"
#include "util/fault_injection.h"

namespace save {
namespace {

/** Fresh scratch dir per test; removed on teardown. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("save_trace_test_" +
                std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override
    {
        FaultInjector::global().reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

/** Small slice that still exercises loads, broadcasts, and stores. */
GemmConfig
tinySlice(Precision prec = Precision::Fp32, double bs = 0.5,
          double nbs = 0.5)
{
    GemmConfig g;
    g.mr = 2;
    g.nrVecs = 2;
    g.kSteps = 16;
    g.tiles = 2;
    g.precision = prec;
    g.bsSparsity = bs;
    g.nbsSparsity = nbs;
    g.seed = 11;
    return g;
}

// ------------------------------------------------------------- codec

TEST(TraceCodec, VarintRoundTrip)
{
    std::vector<uint64_t> values = {0,      1,          127,
                                    128,    16383,      16384,
                                    ~0ull,  1ull << 32, (1ull << 63) + 5};
    std::vector<uint8_t> buf;
    for (uint64_t v : values)
        tracePutVarint(buf, v);
    const uint8_t *p = buf.data();
    const uint8_t *end = p + buf.size();
    for (uint64_t v : values)
        EXPECT_EQ(traceGetVarint(p, end), v);
    EXPECT_EQ(p, end);
}

TEST(TraceCodec, VarintRejectsShortBuffer)
{
    std::vector<uint8_t> buf;
    tracePutVarint(buf, 1ull << 40);
    const uint8_t *p = buf.data();
    const uint8_t *end = p + buf.size() - 1;
    EXPECT_THROW(traceGetVarint(p, end), TraceError);
}

TEST(TraceCodec, ZigzagRoundTrip)
{
    for (int64_t v : {0ll, 1ll, -1ll, 63ll, -64ll, 1ll << 40,
                      -(1ll << 40)})
        EXPECT_EQ(traceUnzigzag(traceZigzag(v)), v);
}

TEST(TraceCodec, UopStreamRoundTrip)
{
    MemoryImage image;
    GemmConfig g = tinySlice();
    std::vector<GemmWorkload> work = buildShardedGemm(g, image, 2);

    for (const auto &w : work) {
        std::vector<uint8_t> buf;
        uint64_t prev = 0;
        for (const Uop &u : w.trace)
            traceEncodeUop(u, prev, buf);

        const uint8_t *p = buf.data();
        const uint8_t *end = p + buf.size();
        prev = 0;
        for (const Uop &want : w.trace) {
            Uop got = traceDecodeUop(p, end, prev);
            EXPECT_EQ(static_cast<int>(got.op),
                      static_cast<int>(want.op));
            EXPECT_EQ(got.dst, want.dst);
            EXPECT_EQ(got.srcA, want.srcA);
            EXPECT_EQ(got.srcB, want.srcB);
            EXPECT_EQ(got.srcC, want.srcC);
            EXPECT_EQ(got.wmask, want.wmask);
            EXPECT_EQ(got.addr, want.addr);
            EXPECT_EQ(got.maskImm, want.maskImm);
        }
        EXPECT_EQ(p, end);
    }
}

TEST(TraceCodec, UopAddrDeltaBackwardAndExtremeRoundTrip)
{
    // Squash-replayed streams revisit lower addresses after higher
    // ones, and synthetic streams can jump across most of the address
    // space; the delta codec must wrap (unsigned two's complement) in
    // both directions, never overflow signed arithmetic.
    const std::vector<uint64_t> addrs = {
        0x1000,
        0x40, // backward
        0xffffffffffffffffull,
        0x0, // maximal backward jump
        0x8000000000000000ull,
        0x7fffffffffffffffull,
        0x40,
        0xfffffffffffffff0ull,
        0x1000,
    };
    std::vector<Uop> uops;
    for (uint64_t a : addrs)
        uops.push_back(Uop::loadVec(3, a));
    uops.push_back(Uop::storeVec(4, 0x123456789abcdef0ull));
    uops.push_back(Uop::broadcastLoad(5, 0x8ull));

    std::vector<uint8_t> buf;
    uint64_t prev = 0;
    for (const Uop &u : uops)
        traceEncodeUop(u, prev, buf);
    const uint8_t *p = buf.data();
    const uint8_t *end = p + buf.size();
    prev = 0;
    for (const Uop &want : uops) {
        Uop got = traceDecodeUop(p, end, prev);
        EXPECT_EQ(got.addr, want.addr);
        EXPECT_EQ(static_cast<int>(got.op), static_cast<int>(want.op));
    }
    EXPECT_EQ(p, end);
}

// ------------------------------------------------- file round trips

TEST_F(TraceTest, MemRegionZeroRleBoundaries)
{
    // The MEMR zero-run RLE must round-trip regions whose zero runs
    // end exactly at the region (= chunk payload) boundary, in every
    // alignment relative to the writer's minimum-run threshold of 16.
    MemoryImage image;
    auto fill = [&](uint64_t base, const std::vector<uint8_t> &bytes) {
        image.addRegion(base, bytes.size());
        if (!bytes.empty())
            image.writeBytes(base, bytes.data(), bytes.size());
    };
    auto pattern = [](std::initializer_list<std::pair<int, uint8_t>>
                          runs) {
        std::vector<uint8_t> v;
        for (auto [n, b] : runs)
            v.insert(v.end(), static_cast<size_t>(n), b);
        return v;
    };
    fill(0x0000, std::vector<uint8_t>(64, 0)); // all zero
    fill(0x1000, pattern({{1, 7}, {15, 0}}));  // short trailing run
    fill(0x2000, pattern({{1, 7}, {16, 0}}));  // run == threshold
    fill(0x3000, pattern({{1, 7}, {17, 0}}));  // run == threshold + 1
    fill(0x4000, pattern({{1, 7}, {40, 0}}));  // long trailing run
    fill(0x5000, pattern({{16, 0}, {1, 7}}));  // leading run only
    fill(0x6000, pattern({{1, 7}, {15, 0}, {1, 9}, {16, 0}, {1, 3}}));
    fill(0x7000, pattern({{16, 0}, {1, 7}, {16, 0}, {1, 9}, {16, 0}}));
    fill(0x8000, std::vector<uint8_t>(48, 0xab)); // no zeros at all

    std::string f = path("rle.savtrc");
    {
        TraceWriter w(f, 1);
        MachineConfig mcfg;
        mcfg.cores = 1;
        w.writeConfig(traceConfigText(mcfg, SaveConfig{}, 2, "rle"));
        w.writeImage(image);
        w.writeUops(0, {Uop::loadVec(0, 0x0)}); // reader needs a stream
        w.finish();
    }
    TraceReader r(f);
    MemoryImage rebuilt = r.buildImage();
    ASSERT_EQ(rebuilt.numRegions(), image.numRegions());
    for (size_t i = 0; i < image.numRegions(); ++i) {
        EXPECT_EQ(rebuilt.regionBase(i), image.regionBase(i));
        EXPECT_EQ(rebuilt.regionData(i), image.regionData(i)) <<
            "region " << i;
    }
}

TEST_F(TraceTest, RecordedFileRoundTrips)
{
    GemmConfig g = tinySlice();
    Engine engine(MachineConfig{}, SaveConfig{});
    std::string f = path("t.savtrc");
    KernelResult live = engine.recordGemm(g, f, "tiny-gemm", 2, 2);

    TraceReader r(f);
    EXPECT_EQ(r.version(), kTraceVersion);
    EXPECT_EQ(r.kernelName(), "tiny-gemm");
    EXPECT_EQ(r.cores(), 2);
    EXPECT_EQ(r.vpus(), 2);
    EXPECT_TRUE(r.hasElms());
    ASSERT_TRUE(r.hasResult());
    EXPECT_EQ(r.recordedCycles(), live.cycles);
    EXPECT_EQ(r.recordedStats(), live.stats.all());

    // The decoded streams, and their ELM sidecars, equal the
    // generator's.
    MemoryImage image;
    std::vector<GemmWorkload> work = buildShardedGemm(g, image, 2);
    for (int c = 0; c < 2; ++c) {
        const auto &want = work[static_cast<size_t>(c)].trace;
        ASSERT_EQ(r.uopCount(c), want.size());
        std::vector<Uop> got = r.uops(c);
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i].toString(), want[i].toString());
        EXPECT_EQ(r.elms(c), computeElmSidecar(want, image));
        EXPECT_EQ(r.warmRanges(c),
                  (std::vector<std::pair<uint64_t, uint64_t>>{
                      {work[static_cast<size_t>(c)].aBase,
                       work[static_cast<size_t>(c)].aBytes},
                      {work[static_cast<size_t>(c)].bBase,
                       work[static_cast<size_t>(c)].bBytes}}));
    }

    // The rebuilt image matches the generator's initial image.
    MemoryImage rebuilt = r.buildImage();
    ASSERT_EQ(rebuilt.numRegions(), image.numRegions());
    for (size_t i = 0; i < image.numRegions(); ++i) {
        EXPECT_EQ(rebuilt.regionBase(i), image.regionBase(i));
        EXPECT_EQ(rebuilt.regionData(i), image.regionData(i));
    }
}

TEST_F(TraceTest, StreamingSourceMatchesBulkDecode)
{
    std::string f = path("t.savtrc");
    Engine(MachineConfig{}, SaveConfig{})
        .recordGemm(tinySlice(), f, "gemm", 1, 2);

    TraceReader r(f);
    std::vector<Uop> bulk = r.uops(0);
    TraceFileSource src(r, 0);
    EXPECT_EQ(src.remaining(), bulk.size());
    Uop u;
    size_t i = 0;
    while (src.next(u)) {
        ASSERT_LT(i, bulk.size());
        EXPECT_EQ(u.toString(), bulk[i].toString());
        ++i;
    }
    EXPECT_EQ(i, bulk.size());
    EXPECT_EQ(src.remaining(), 0u);

    src.reset();
    EXPECT_EQ(src.remaining(), bulk.size());
    EXPECT_TRUE(src.next(u));
    EXPECT_EQ(u.toString(), bulk[0].toString());
}

// ------------------------------------------------------- corruption

TEST_F(TraceTest, RejectsBadMagic)
{
    std::string f = path("bad.savtrc");
    std::ofstream(f) << "definitely not a trace file";
    EXPECT_THROW(TraceReader r(f), TraceError);
}

TEST_F(TraceTest, RejectsTruncation)
{
    std::string f = path("t.savtrc");
    Engine(MachineConfig{}, SaveConfig{})
        .recordGemm(tinySlice(), f, "gemm", 1, 2);

    // Chop anywhere: mid-payload and mid-chunk-header both reject.
    auto size = std::filesystem::file_size(f);
    for (auto keep : {size - 4, size / 2, kTraceHeaderBytes + 3}) {
        std::string copy = path("trunc" + std::to_string(keep));
        std::filesystem::copy_file(f, copy);
        std::filesystem::resize_file(copy, keep);
        EXPECT_THROW(TraceReader r(copy), TraceError)
            << "kept " << keep << " of " << size << " bytes";
    }

    // A writer that never finish()ed (no END chunk) is truncated too.
    std::string unfinished = path("unfinished.savtrc");
    {
        TraceWriter w(unfinished, 42);
        w.writeConfig(
            traceConfigText(MachineConfig{}, SaveConfig{}, 2, "x"));
        // no finish()
    }
    EXPECT_THROW(TraceReader r(unfinished), TraceError);
}

TEST_F(TraceTest, RejectsAnySingleBitFlip)
{
    std::string f = path("t.savtrc");
    Engine(MachineConfig{}, SaveConfig{})
        .recordGemm(tinySlice(), f, "gemm", 1, 2);

    auto size = std::filesystem::file_size(f);
    // Flip one bit at a spread of offsets: header magic, header hash,
    // first chunk, middle, last byte.
    for (uint64_t off : {uint64_t(1), uint64_t(17),
                         uint64_t(kTraceHeaderBytes + 2), size / 2,
                         size - 1}) {
        std::string copy = path("flip" + std::to_string(off));
        std::filesystem::copy_file(f, copy);
        std::fstream fs(copy, std::ios::in | std::ios::out |
                                  std::ios::binary);
        fs.seekg(static_cast<std::streamoff>(off));
        char b = 0;
        fs.get(b);
        fs.seekp(static_cast<std::streamoff>(off));
        fs.put(static_cast<char>(b ^ 0x10));
        fs.close();
        EXPECT_THROW(TraceReader r(copy), TraceError)
            << "bit flip at offset " << off << " not detected";
    }
}

TEST_F(TraceTest, FaultInjectedBitflipOnTraceFileIsCaught)
{
    // The writer runs the same post-save tamper hook as the surface
    // cache, so SAVE_FAULT_INJECT=cache-bitflip corrupts the freshly
    // recorded trace — and the reader must refuse it.
    FaultPlan plan;
    plan.seed = 3;
    plan.cacheBitflipProb = 1.0;
    FaultInjector::global().configure(plan);

    std::string f = path("tampered.savtrc");
    Engine(MachineConfig{}, SaveConfig{})
        .recordGemm(tinySlice(), f, "gemm", 1, 2);
    FaultInjector::global().reset();

    EXPECT_THROW(TraceReader r(f), TraceError);
}

// ------------------------------------------------- replay identity

void
expectReplayIdentical(const KernelResult &live,
                      const ReplayOutcome &replay)
{
    EXPECT_EQ(replay.cycles, live.cycles);
    ASSERT_TRUE(replay.hasRecorded);
    EXPECT_TRUE(replayCheck(replay).empty()) << replayCheck(replay);
    // Belt and braces: the replayed machine's stat map itself equals
    // the live one (replayCheck compares against the RES chunk).
    EXPECT_EQ(replay.stats.all(), live.stats.all());
}

TEST_F(TraceTest, ReplayBitIdenticalAcrossPoliciesAndPrecisions)
{
    struct Case
    {
        const char *name;
        SaveConfig scfg;
        Precision prec;
    };
    SaveConfig vc;
    vc.policy = SchedPolicy::VC;
    std::vector<Case> cases = {
        {"baseline_fp32", SaveConfig::baseline(), Precision::Fp32},
        {"vc_fp32", vc, Precision::Fp32},
        {"rvc_fp32", SaveConfig{}, Precision::Fp32},
        {"rvc_bf16", SaveConfig{}, Precision::Bf16},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        GemmConfig g = tinySlice(c.prec);
        Engine engine(MachineConfig{}, c.scfg);
        std::string f = path(std::string(c.name) + ".savtrc");
        KernelResult live = engine.recordGemm(g, f, c.name, 1, 2);
        expectReplayIdentical(live, replayTrace(f));
    }
}

TEST_F(TraceTest, ReplayBitIdenticalMulticore)
{
    GemmConfig g = tinySlice();
    Engine engine(MachineConfig{}, SaveConfig{});
    std::string f = path("mc.savtrc");
    KernelResult live = engine.recordGemm(g, f, "mc-gemm", 3, 2);
    expectReplayIdentical(live, replayTrace(f));
}

TEST_F(TraceTest, ReplayBitIdenticalConvAndLstmSlices)
{
    // Conv- and LSTM-lowered slices (the acceptance-criteria trio).
    ConvLayer layer;
    layer.name = "c128";
    layer.inC = 128;
    layer.outC = 128;
    layer.ih = 28;
    layer.iw = 28;
    GemmConfig conv = makeConvKernel(layer, Phase::Forward, 32)
                          .slice(Precision::Fp32, 0.4, 0.4, 16, 5);
    conv.tiles = 2;

    LstmCell cell;
    cell.name = "l256";
    cell.inputDim = 256;
    cell.hiddenDim = 256;
    GemmConfig lstm = makeLstmKernel(cell, Phase::Forward)
                          .slice(Precision::Bf16, 0.3, 0.6, 16, 9);
    lstm.tiles = 2;

    Engine engine(MachineConfig{}, SaveConfig{});
    for (const auto &[name, cfg] :
         {std::pair<const char *, GemmConfig>{"conv", conv},
          std::pair<const char *, GemmConfig>{"lstm", lstm}}) {
        SCOPED_TRACE(name);
        std::string f = path(std::string(name) + ".savtrc");
        KernelResult live = engine.recordGemm(cfg, f, name, 1, 2);
        expectReplayIdentical(live, replayTrace(f));
    }
}

TEST_F(TraceTest, ReplayIsFunctionallyCorrect)
{
    // The replayed pipeline's memory writes match in-order execution
    // of the recorded stream over the recorded image.
    GemmConfig g = tinySlice();
    Engine engine(MachineConfig{}, SaveConfig{});
    std::string f = path("t.savtrc");
    engine.recordGemm(g, f, "gemm", 1, 2);

    TraceReader r(f);
    MemoryImage final_image;
    replayTrace(r, nullptr, &final_image);

    MemoryImage ref_image = r.buildImage();
    ArchExecutor ref(&ref_image);
    ref.run(r.uops(0));

    ASSERT_EQ(final_image.numRegions(), ref_image.numRegions());
    for (size_t i = 0; i < ref_image.numRegions(); ++i)
        EXPECT_EQ(final_image.regionData(i), ref_image.regionData(i))
            << "region " << i;
}

TEST_F(TraceTest, ReplayCheckCatchesStatDrift)
{
    std::string f = path("t.savtrc");
    Engine(MachineConfig{}, SaveConfig{})
        .recordGemm(tinySlice(), f, "gemm", 1, 2);
    ReplayOutcome out = replayTrace(f);
    ASSERT_TRUE(replayCheck(out).empty());
    out.stats.add("uops_committed", 1);
    EXPECT_FALSE(replayCheck(out).empty());
    out.stats.add("uops_committed", -1);
    out.recordedCycles += 1;
    EXPECT_FALSE(replayCheck(out).empty());
}

// ---------------------------------------------------- event tracer

TEST_F(TraceTest, EventTracerDoesNotChangeStats)
{
    GemmConfig g = tinySlice();
    Engine engine(MachineConfig{}, SaveConfig{});
    std::string f = path("t.savtrc");
    engine.recordGemm(g, f, "gemm", 2, 2);

    ReplayOutcome plain = replayTrace(f);

    std::string json = path("events.json");
    {
        EventTraceSession session(json);
        ReplayOutcome traced = replayTrace(f, &session);
        EXPECT_EQ(traced.cycles, plain.cycles);
        EXPECT_EQ(traced.stats.all(), plain.stats.all());
        session.finalize();
        EXPECT_GT(session.summary().get("uops_retired"), 0.0);
    }

    // The output is Chrome-trace JSON with the summary footer.
    std::ifstream in(json);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("coalescing_efficiency_pct"),
              std::string::npos);
    EXPECT_EQ(text.back(), '\n');
    EXPECT_EQ(text[text.size() - 2], '}');
}

/** Stats of one single-core slice, traced into `session` when one is
 *  given, with a fault injected at `fault_seq` when it is >= 0. */
std::map<std::string, double>
runSlice(const SaveConfig &scfg, const GemmConfig &g,
         EventTraceSession *session, int64_t fault_seq = -1)
{
    MemoryImage image;
    GemmWorkload w = buildGemm(g, image);
    MachineConfig m;
    m.cores = 1;
    Multicore mc(m, scfg, 2, &image);
    w.warmup(mc.hierarchy());
    if (session)
        mc.attachEventTrace(session);
    if (fault_seq >= 0)
        mc.core(0).injectFaultAtSeq(static_cast<uint64_t>(fault_seq));
    VectorTrace t(w.trace);
    mc.bindTraces({&t});
    mc.run(10'000'000);
    return mc.core(0).stats().all();
}

TEST_F(TraceTest, EventTracerCoversEveryIssueHook)
{
    // Every issue path a policy can take, each run with and without a
    // tracer: the baseline select, coalescing on a sparse FP32 slice,
    // mixed-precision chains on a sparse BF16 slice, and a squash on a
    // dense FP32 slice (whose fully effectual VFMAs coalesce whole).
    struct Case
    {
        const char *name;
        SaveConfig scfg;
        GemmConfig g;
        int64_t faultSeq;
    };
    GemmConfig fp32 = tinySlice(Precision::Fp32, 0.5, 0.6);
    GemmConfig bf16 = tinySlice(Precision::Bf16, 0.8, 0.8);
    GemmConfig dense = tinySlice(Precision::Fp32, 0.0, 0.0);
    const std::vector<Case> cases = {
        {"baseline", SaveConfig::baseline(), fp32, -1},
        {"rvc_fp32_50_60", SaveConfig{}, fp32, -1},
        {"rvc_bf16_80_80", SaveConfig{}, bf16, -1},
        {"rvc_fp32_dense_squash", SaveConfig{}, dense, 100},
    };
    std::string text;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const auto plain = runSlice(c.scfg, c.g, nullptr, c.faultSeq);
        std::string json = path(std::string(c.name) + ".json");
        {
            EventTraceSession session(json);
            EXPECT_EQ(runSlice(c.scfg, c.g, &session, c.faultSeq), plain);
        }
        std::ifstream in(json);
        ASSERT_TRUE(in.good());
        text.append((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    }
    // Instant events are named by kind: baseline issue, dense and
    // per-lane coalescing, chain MLs, pass-through lanes, squash.
    for (const char *kind :
         {"issue", "dense", "lane", "chain", "pass", "squash"}) {
        EXPECT_NE(text.find(std::string("{\"name\":\"") + kind +
                            "\",\"ph\":\"i\""),
                  std::string::npos)
            << "no " << kind << " event";
    }
}

TEST_F(TraceTest, EventTracerEnvAutoAttaches)
{
    std::string json = path("env_events.json");
    setenv("SAVE_TRACE_EVENTS", json.c_str(), 1);
    Engine(MachineConfig{}, SaveConfig{}).runGemm(tinySlice(), 1, 2);
    unsetenv("SAVE_TRACE_EVENTS");
    // The Multicore destructor finalized the session on run exit.
    std::ifstream in(json);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
}

// ----------------------------------------------------------- stats

TEST(StatsJson, StableOrderAndRoundTrip)
{
    StatGroup g;
    g.set("zeta", 1.5);
    g.set("alpha", 3);
    g.set("mid", -7.25);
    EXPECT_EQ(g.toJson(),
              "{\"alpha\": 3,\"mid\": -7.25,\"zeta\": 1.5}");
    // Large integral counters stay integral; doubles keep full
    // precision.
    StatGroup h;
    h.set("big", 9.0e15);
    h.set("pi", 3.141592653589793);
    std::string json = h.toJson();
    EXPECT_NE(json.find("\"big\": 9000000000000000"),
              std::string::npos);
    EXPECT_NE(json.find("3.141592653589793"), std::string::npos);
    // Indented form is one key per line.
    EXPECT_EQ(g.toJson("  "),
              "{\n  \"alpha\": 3,\n  \"mid\": -7.25,\n  \"zeta\": "
              "1.5\n}");
}

} // namespace
} // namespace save
