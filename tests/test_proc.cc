/**
 * @file
 * Out-of-process slice execution (src/proc): wire-codec framing and
 * corruption handling, worker crash/hang/OOM containment and
 * bit-identical recovery, and pool degradation under a crash storm.
 *
 * Faults are injected deterministically (SAVE_FAULT_INJECT travels to
 * the exec'd save-worker via the environment), so every containment
 * path runs on every CI invocation. Assertions target recovery and
 * bit-identity, not exact signal numbers: sanitizers legitimately turn
 * a SIGSEGV death into a nonzero exit, and both triage as a crash.
 */

#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "dnn/estimator.h"
#include "dnn/networks.h"
#include "proc/wire_codec.h"
#include "proc/worker.h"
#include "proc/worker_pool.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/posix_io.h"

#ifndef SAVE_WORKER_BIN_PATH
#error "test_proc requires SAVE_WORKER_BIN_PATH (set by CMake)"
#endif

namespace save {
namespace {

/** Fast estimator knobs; isolation left at the in-process default. */
EstimatorOptions
fastOptions(int threads = 2)
{
    EstimatorOptions o;
    o.kSteps = 24;
    o.tiles = 1;
    o.gridStep = 9;
    o.threads = threads;
    o.cacheDir = "none";
    return o;
}

/** fastOptions running under the sandboxed worker pool. */
EstimatorOptions
procOptions(int threads = 2)
{
    EstimatorOptions o = fastOptions(threads);
    o.isolation = "process";
    o.proc.workerBin = SAVE_WORKER_BIN_PATH;
    o.proc.sliceTimeoutMs = 10000;
    o.proc.backoffBaseMs = 1;
    o.proc.backoffMaxMs = 20;
    return o;
}

NetworkModel
tinyNet()
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(3);
    return net;
}

bool
bytesEqual(const NetResult &a, const NetResult &b)
{
    return std::memcmp(&a, &b, sizeof(NetResult)) == 0;
}

/** The fault-free in-process reference result for tinyNet training.
 *  Computed once; the fixture guarantees injection is off whenever a
 *  test body runs, so the first caller gets a clean run. */
const NetResult &
referenceResult()
{
    static const NetResult ref = [] {
        TrainingEstimator est(MachineConfig{}, SaveConfig{},
                              fastOptions());
        return est.training(tinyNet(), Precision::Fp32);
    }();
    return ref;
}

class ProcTest : public ::testing::Test
{
  protected:
    ProcTest()
    {
        FaultInjector::global().reset();
        ::unsetenv("SAVE_FAULT_INJECT");
        ::unsetenv("SAVE_ISOLATION");
    }

    ~ProcTest() override
    {
        FaultInjector::global().reset();
        ::unsetenv("SAVE_FAULT_INJECT");
    }

    /** Run tinyNet training under process isolation with the fault
     *  spec exported to the workers (they read SAVE_FAULT_INJECT at
     *  exec; the parent-side injector stays clean). The estimator is
     *  kept alive in est_ so tests can inspect the pool afterwards. */
    NetResult
    faultedProcRun(const char *fault_spec, const EstimatorOptions &o)
    {
        if (fault_spec)
            ::setenv("SAVE_FAULT_INJECT", fault_spec, 1);
        est_ = std::make_unique<TrainingEstimator>(MachineConfig{},
                                                   SaveConfig{}, o);
        NetResult r = est_->training(tinyNet(), Precision::Fp32);
        ::unsetenv("SAVE_FAULT_INJECT");
        return r;
    }

    std::unique_ptr<TrainingEstimator> est_;
};

// --------------------------------------------------------- wire codec

TEST_F(ProcTest, WireFrameRoundTripsOverAPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::vector<uint8_t> payload = {1, 2, 3, 250, 251, 252};
    ASSERT_TRUE(wireWrite(fds[1], kWireResult, 7, payload));
    WireFrame f;
    ASSERT_EQ(wireRead(fds[0], f, 1000), WireRead::Ok);
    EXPECT_EQ(f.fourcc, kWireResult);
    EXPECT_EQ(f.arg, 7u);
    EXPECT_EQ(f.payload, payload);

    // Empty payloads are legal (HACK/BYE frames).
    ASSERT_TRUE(wireWrite(fds[1], kWireBye, 0, {}));
    ASSERT_EQ(wireRead(fds[0], f, 1000), WireRead::Ok);
    EXPECT_EQ(f.fourcc, kWireBye);
    EXPECT_TRUE(f.payload.empty());

    ::close(fds[1]);
    EXPECT_EQ(wireRead(fds[0], f, 1000), WireRead::Eof);
    ::close(fds[0]);
}

TEST_F(ProcTest, WireReadTimesOutInsteadOfHanging)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    WireFrame f;
    EXPECT_EQ(wireRead(fds[0], f, 50), WireRead::Timeout);

    // A frame truncated mid-payload must also hit the deadline, not
    // block forever waiting for bytes that will never come.
    std::vector<uint8_t> buf;
    tracePutU32(buf, kWireResult);
    tracePutU32(buf, 0);
    tracePutU64(buf, 100); // promises 100 payload bytes
    tracePutU32(buf, 0);
    ASSERT_EQ(writeFull(fds[1], buf.data(), buf.size()),
              static_cast<ssize_t>(buf.size()));
    EXPECT_EQ(wireRead(fds[0], f, 50), WireRead::Timeout);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST_F(ProcTest, WireReadRejectsTruncatedFrame)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::vector<uint8_t> buf;
    tracePutU32(buf, kWireResult);
    tracePutU32(buf, 0);
    tracePutU64(buf, 100);
    tracePutU32(buf, 0);
    buf.push_back(0xaa); // 1 of the promised 100 bytes
    ASSERT_EQ(writeFull(fds[1], buf.data(), buf.size()),
              static_cast<ssize_t>(buf.size()));
    ::close(fds[1]); // peer dies mid-frame
    WireFrame f;
    EXPECT_THROW(wireRead(fds[0], f, 1000), TraceError);
    ::close(fds[0]);
}

TEST_F(ProcTest, WireReadRejectsBitFlippedPayload)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::vector<uint8_t> payload(64, 0x5c);
    std::vector<uint8_t> buf;
    tracePutU32(buf, kWireResult);
    tracePutU32(buf, 0);
    tracePutU64(buf, payload.size());
    tracePutU32(buf, traceCrc32(payload.data(), payload.size()));
    buf.insert(buf.end(), payload.begin(), payload.end());
    buf[kTraceChunkHeaderBytes + 13] ^= 0x04; // flip one payload bit
    ASSERT_EQ(writeFull(fds[1], buf.data(), buf.size()),
              static_cast<ssize_t>(buf.size()));
    WireFrame f;
    EXPECT_THROW(wireRead(fds[0], f, 1000), TraceError);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST_F(ProcTest, WireReadRejectsUnknownFourccAndInsaneLength)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::vector<uint8_t> buf;
    tracePutU32(buf, traceFourcc('J', 'U', 'N', 'K'));
    tracePutU32(buf, 0);
    tracePutU64(buf, 0);
    tracePutU32(buf, traceCrc32(nullptr, 0));
    ASSERT_EQ(writeFull(fds[1], buf.data(), buf.size()),
              static_cast<ssize_t>(buf.size()));
    WireFrame f;
    EXPECT_THROW(wireRead(fds[0], f, 1000), TraceError);

    buf.clear();
    tracePutU32(buf, kWireResult);
    tracePutU32(buf, 0);
    tracePutU64(buf, kWireMaxPayload + 1); // corrupt length field
    tracePutU32(buf, 0);
    ASSERT_EQ(writeFull(fds[1], buf.data(), buf.size()),
              static_cast<ssize_t>(buf.size()));
    EXPECT_THROW(wireRead(fds[0], f, 1000), TraceError);
    ::close(fds[0]);
    ::close(fds[1]);
}

/** Seeded single-bit-flip fuzz over a valid frame: every mutation
 *  must resolve quickly as Ok (flip hit the uncovered arg field or
 *  cancelled out) or TraceError — never a hang, never a SimError
 *  escape, never garbage payload passed off as Ok. */
TEST_F(ProcTest, WireCodecFuzzedBitFlipsNeverHang)
{
    WireSliceResult res;
    res.timeNs = 1234.5;
    res.cycles = 99;
    res.coreGhz = 1.7;
    res.stats = {{"cycles", 99.0}, {"vpu.macs", 1e6}};
    std::vector<uint8_t> payload = wireEncodeSliceResult(res);

    std::vector<uint8_t> clean;
    tracePutU32(clean, kWireResult);
    tracePutU32(clean, 3);
    tracePutU64(clean, payload.size());
    tracePutU32(clean, traceCrc32(payload.data(), payload.size()));
    clean.insert(clean.end(), payload.begin(), payload.end());

    uint64_t rng = 0x5eed;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (int i = 0; i < 200; ++i) {
        std::vector<uint8_t> fuzzed = clean;
        size_t byte = next() % fuzzed.size();
        fuzzed[byte] ^= static_cast<uint8_t>(1u << (next() % 8));

        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(writeFull(fds[1], fuzzed.data(), fuzzed.size()),
                  static_cast<ssize_t>(fuzzed.size()));
        ::close(fds[1]);
        WireFrame f;
        try {
            WireRead st = wireRead(fds[0], f, 500);
            ASSERT_NE(st, WireRead::Timeout)
                << "flip at byte " << byte << " stalled the reader";
            if (st == WireRead::Ok && byte >= 8) {
                // Any flip outside fourcc/arg is CRC- or
                // length-covered; Ok means the payload is intact.
                EXPECT_EQ(f.payload, payload);
            }
        } catch (const TraceError &) {
            // Detected corruption: the intended outcome.
        }
        ::close(fds[0]);
    }
}

TEST_F(ProcTest, SessionInitAndErrorPayloadsRoundTrip)
{
    WireSessionInit init;
    init.mcfg = MachineConfig{};
    init.scfg = SaveConfig{};
    init.tiles = 3;
    init.cores = 2;
    init.seed = 77;
    init.rssCapMb = 512;
    init.configHash = 0xdeadbeef;
    WireSessionInit back =
        wireDecodeSessionInit(wireEncodeSessionInit(init));
    EXPECT_EQ(back.tiles, 3);
    EXPECT_EQ(back.cores, 2);
    EXPECT_EQ(back.seed, 77u);
    EXPECT_EQ(back.rssCapMb, 512);
    EXPECT_EQ(back.configHash, 0xdeadbeefull);
    // Field comparison, not whole-struct memcmp: assignment need not
    // copy padding bytes, and padding carries no protocol meaning.
    EXPECT_EQ(back.mcfg.cores, init.mcfg.cores);
    EXPECT_EQ(back.mcfg.numVpus, init.mcfg.numVpus);
    EXPECT_DOUBLE_EQ(back.mcfg.freq2VpuGhz, init.mcfg.freq2VpuGhz);
    EXPECT_DOUBLE_EQ(back.mcfg.dramGBps, init.mcfg.dramGBps);
    EXPECT_EQ(back.scfg.enabled, init.scfg.enabled);
    EXPECT_EQ(back.scfg.rotationStates, init.scfg.rotationStates);

    WireErrorInfo err;
    err.kind = WireErrorKind::Deadlock;
    err.what = "no retirement progress";
    WireErrorInfo eback = wireDecodeError(wireEncodeError(err));
    EXPECT_THROW(wireThrowError(eback), DeadlockError);

    err.kind = WireErrorKind::Config;
    EXPECT_THROW(wireThrowError(wireDecodeError(wireEncodeError(err))),
                 ConfigError);
}

TEST_F(ProcTest, ClassifiedErrorsRethrowAsTheirType)
{
    // save-worker and save-serve map a caught exception onto its wire
    // kind through one classifier; the receiving side must rethrow
    // the same type.
    auto roundTrip = [](const std::exception &e) {
        wireThrowError(
            wireDecodeError(wireEncodeError(wireClassifyError(e))));
    };
    EXPECT_THROW(roundTrip(ConfigError("bad knob")), ConfigError);
    EXPECT_THROW(roundTrip(TraceError("bad uop")), TraceError);
    EXPECT_THROW(roundTrip(DeadlockError("stuck", "")), DeadlockError);
    EXPECT_THROW(roundTrip(AuditError("broken", "")), AuditError);
    try {
        roundTrip(std::bad_alloc());
        ADD_FAILURE() << "bad_alloc was not rethrown";
    } catch (const WorkerError &e) {
        EXPECT_EQ(e.kind(), WorkerError::Kind::Oom);
    }
    EXPECT_THROW(roundTrip(std::runtime_error("untyped")), SimError);
}

// ---------------------------------------------- worker-binary lookup

TEST_F(ProcTest, ResolveWorkerBinRejectsMissingPaths)
{
    EXPECT_THROW(resolveWorkerBin("/nonexistent/save-worker"),
                 ConfigError);
    ::setenv("SAVE_WORKER_BIN", "/nonexistent/save-worker", 1);
    EXPECT_THROW(resolveWorkerBin(""), ConfigError);
    ::unsetenv("SAVE_WORKER_BIN");
    EXPECT_EQ(resolveWorkerBin(SAVE_WORKER_BIN_PATH),
              SAVE_WORKER_BIN_PATH);
}

TEST_F(ProcTest, PoolCtorRejectsBadKnobsAndMissingBinary)
{
    ProcOptions p;
    p.workerBin = SAVE_WORKER_BIN_PATH;
    p.sliceTimeoutMs = 0;
    EXPECT_THROW(WorkerPool(p, WireSessionInit{}), ConfigError);
    p = ProcOptions{};
    p.workerBin = "/nonexistent/save-worker";
    EXPECT_THROW(WorkerPool(p, WireSessionInit{}), ConfigError);
    EstimatorOptions o = procOptions();
    o.proc.maxWorkerCrashes = 0;
    EXPECT_THROW(TrainingEstimator(MachineConfig{}, SaveConfig{}, o),
                 ConfigError);
    o = procOptions();
    o.isolation = "container"; // not a mode
    EXPECT_THROW(TrainingEstimator(MachineConfig{}, SaveConfig{}, o),
                 ConfigError);
}

// ------------------------------------------------- bit-identity paths

TEST_F(ProcTest, ProcessIsolationIsBitIdenticalToInProcess)
{
    NetResult ref = referenceResult();

    TrainingEstimator proc_est(MachineConfig{}, SaveConfig{},
                               procOptions());
    EXPECT_EQ(proc_est.isolation(), "process");
    ASSERT_NE(proc_est.processPool(), nullptr);
    NetResult proc = proc_est.training(tinyNet(), Precision::Fp32);
    EXPECT_TRUE(bytesEqual(ref, proc));
    EXPECT_GT(proc_est.processPool()->slicesRun(), 0u);
    EXPECT_EQ(proc_est.processPool()->crashes(), 0);
    EXPECT_TRUE(proc_est.failures().empty());

    EstimatorOptions none = fastOptions();
    none.isolation = "none";
    TrainingEstimator serial_est(MachineConfig{}, SaveConfig{}, none);
    EXPECT_EQ(serial_est.isolation(), "none");
    EXPECT_EQ(serial_est.threads(), 1); // none forces strictly serial
    NetResult serial = serial_est.training(tinyNet(), Precision::Fp32);
    EXPECT_TRUE(bytesEqual(ref, serial));
}

TEST_F(ProcTest, WorkerCountDoesNotChangeResults)
{
    NetResult ref = referenceResult();
    for (int workers : {1, 4}) {
        EstimatorOptions o = procOptions();
        o.proc.workers = workers;
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
        EXPECT_EQ(est.processPool()->workerCount(), workers);
        EXPECT_TRUE(bytesEqual(
            ref, est.training(tinyNet(), Precision::Fp32)));
    }
}

TEST_F(ProcTest, WorkerRecyclingRespawnsAndStaysBitIdentical)
{
    NetResult ref = referenceResult();
    EstimatorOptions o = procOptions();
    o.proc.maxSlicesPerWorker = 1; // recycle after every slice
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);
    setQuietLogging(true);
    NetResult r = est.training(tinyNet(), Precision::Fp32);
    setQuietLogging(false);
    EXPECT_TRUE(bytesEqual(ref, r));
    EXPECT_GT(est.processPool()->respawns(), 0);
    EXPECT_EQ(est.processPool()->crashes(), 0);
}

// --------------------------------------- injected process-level faults

TEST_F(ProcTest, InjectedCrashRecoversBitIdentically)
{
    const NetResult &ref = referenceResult();
    setQuietLogging(true);
    EstimatorOptions o = procOptions();
    o.proc.maxWorkerCrashes = 1000;
    NetResult r = faultedProcRun("crash=0.4,times=1,seed=3", o);
    setQuietLogging(false);
    EXPECT_TRUE(bytesEqual(ref, r));
    EXPECT_TRUE(est_->failures().empty()) << est_->failureReport();
    EXPECT_GT(est_->processPool()->crashes(), 0); // faults did fire
    EXPECT_FALSE(est_->processPool()->degraded());
}

TEST_F(ProcTest, InjectedAbortRecoversBitIdentically)
{
    const NetResult &ref = referenceResult();
    setQuietLogging(true);
    EstimatorOptions o = procOptions();
    o.proc.maxWorkerCrashes = 1000;
    NetResult r = faultedProcRun("abort=0.4,times=1,seed=4", o);
    setQuietLogging(false);
    EXPECT_TRUE(bytesEqual(ref, r));
    EXPECT_TRUE(est_->failures().empty()) << est_->failureReport();
    EXPECT_GT(est_->processPool()->crashes(), 0);
}

TEST_F(ProcTest, InjectedOomRecoversBitIdentically)
{
    const NetResult &ref = referenceResult();
    setQuietLogging(true);
    EstimatorOptions o = procOptions();
    o.proc.maxWorkerCrashes = 1000;
    NetResult r = faultedProcRun("oom=0.4,times=1,seed=5", o);
    setQuietLogging(false);
    EXPECT_TRUE(bytesEqual(ref, r));
    EXPECT_TRUE(est_->failures().empty()) << est_->failureReport();
}

TEST_F(ProcTest, InjectedHangIsKilledAtTheDeadlineAndRecovers)
{
    const NetResult &ref = referenceResult();
    setQuietLogging(true);
    EstimatorOptions o = procOptions();
    o.proc.sliceTimeoutMs = 400; // hangs cost 0.4 s each, not forever
    o.proc.maxWorkerCrashes = 1000;
    NetResult r = faultedProcRun("hang=0.15,times=1,seed=6", o);
    setQuietLogging(false);
    EXPECT_TRUE(bytesEqual(ref, r));
    EXPECT_TRUE(est_->failures().empty()) << est_->failureReport();
    EXPECT_GT(est_->processPool()->crashes(), 0); // deadline kills
}

/** The ISSUE's acceptance scenario: all four fault modes at once,
 *  recovered within the retry budget, bit-identical to fault-free. */
TEST_F(ProcTest, AllFourFaultModesRecoverBitIdentically)
{
    const NetResult &ref = referenceResult();
    setQuietLogging(true);
    EstimatorOptions o = procOptions();
    o.proc.sliceTimeoutMs = 400;
    o.proc.maxWorkerCrashes = 1000;
    NetResult r = faultedProcRun(
        "crash=0.2,abort=0.1,hang=0.1,oom=0.1,times=1,seed=7", o);
    setQuietLogging(false);
    EXPECT_TRUE(bytesEqual(ref, r));
    EXPECT_TRUE(est_->failures().empty()) << est_->failureReport();
}

TEST_F(ProcTest, CrashStormDegradesToInProcessGracefully)
{
    const NetResult &ref = referenceResult();
    setQuietLogging(true);
    EstimatorOptions o = procOptions();
    o.proc.maxWorkerCrashes = 4;
    // Every attempt of every slice crashes the worker: the pool must
    // spend its budget, drain, and finish the sweep in-process.
    NetResult r = faultedProcRun("crash=1,times=999,seed=8", o);
    setQuietLogging(false);
    EXPECT_TRUE(est_->processPool()->degraded());
    // In-flight slices on other workers may crash concurrently with
    // the one that spends the last budget unit, so >= not ==.
    EXPECT_GE(est_->processPool()->crashes(), 4);
    // Post-degradation slices run in-process (where the injector's
    // process faults never fire), so the sweep completes and the
    // fallback values match the reference bit-for-bit.
    EXPECT_TRUE(bytesEqual(ref, r));
    std::string report = est_->failureReport();
    EXPECT_NE(report.find("DEGRADED"), std::string::npos) << report;
}

TEST_F(ProcTest, InProcessIsolationRefusesProcessFaultModes)
{
    FaultInjector::global().configure(
        FaultInjector::parsePlan("crash=0.5"));
    EXPECT_THROW(
        TrainingEstimator(MachineConfig{}, SaveConfig{}, fastOptions()),
        ConfigError);
    EstimatorOptions none = fastOptions();
    none.isolation = "none";
    EXPECT_THROW(
        TrainingEstimator(MachineConfig{}, SaveConfig{}, none),
        ConfigError);
    // The same plan is accepted under process isolation.
    FaultInjector::global().configure(
        FaultInjector::parsePlan("hang=0.5"));
    EXPECT_NO_THROW(
        TrainingEstimator(MachineConfig{}, SaveConfig{}, procOptions()));
    FaultInjector::global().reset();
}

} // namespace
} // namespace save
