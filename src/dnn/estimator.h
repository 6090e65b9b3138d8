/**
 * @file
 * Whole-network inference/training time estimation — the paper's
 * sampling methodology (SecVI):
 *
 *  1. For every kernel (layer x phase), simulate a steady-state slice
 *     at sparsities on a 10% grid -> a 2D time surface.
 *  2. Map the profiled per-epoch weight/activation sparsities onto
 *     the surface by (bi)linear interpolation.
 *  3. Sum layers per epoch; average epochs for the mean training
 *     time; use final-epoch sparsity for inference.
 *
 * Surfaces are cached by micro-kernel shape: layers sharing a shape
 * share a slice surface and differ only by their MAC-count scale
 * (DESIGN.md substitution 5).
 *
 * The surface points of a network are hundreds of *independent*,
 * seeded slice simulations, so the estimator enumerates them up front
 * (deterministically) and fans them out across a host thread pool;
 * the serial accumulation that follows reads only cached values, so
 * results are bit-identical for any thread count. With a cache
 * directory configured (SAVE_CACHE_DIR or EstimatorOptions::cacheDir)
 * surfaces persist across process runs. See DESIGN.md, "Parallel
 * estimator".
 *
 * Operating points (Fig. 14): the baseline machine (2 VPUs, 1.7GHz),
 * SAVE with 2 VPUs, SAVE with 1 VPU at 2.1GHz (SecIV-D), `static`
 * (best fixed VPU count per epoch), and `dynamic` (best per kernel).
 */

#ifndef SAVE_DNN_ESTIMATOR_H
#define SAVE_DNN_ESTIMATOR_H

#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/cas_key.h"
#include "cache/result_store.h"
#include "dnn/networks.h"
#include "engine/engine.h"
#include "proc/worker_pool.h"
#include "util/thread_pool.h"

namespace save {

/**
 * Resolve the slice-execution isolation mode: `opt` if non-empty, else
 * the SAVE_ISOLATION environment variable, else "thread". Accepted
 * values: "none" (strictly serial, in-process), "thread" (in-process
 * thread-pool fan-out, the default), "process" (sandboxed worker
 * subprocesses, src/proc). Throws ConfigError on anything else.
 */
std::string resolveIsolation(const std::string &opt);

/** Estimator tuning knobs. */
struct EstimatorOptions
{
    /** Slice length (K steps) and register-tile repetitions. Longer
     *  slices amortize prologue/drain and approach the steady-state
     *  cap; 192x6 reproduces the paper's speedup caps well. */
    int kSteps = 192;
    int tiles = 6;
    /** Active cores in each slice simulation (share of the machine). */
    int cores = 1;
    /** Sample every gridStep-th 10% bin (3 -> 0/30/60/90%); times in
     *  between are linearly interpolated. 1 reproduces the paper. */
    int gridStep = 1;
    uint64_t seed = 7;
    /** Host threads for the slice-simulation fan-out: 0 shares the
     *  process-global pool (SAVE_THREADS or hardware concurrency),
     *  1 runs strictly serially, N >= 2 builds a dedicated N-worker
     *  pool. parallelFor's calling thread simulates slices too, so up
     *  to N+1 slices are in flight at once (threads = 2 runs three).
     *  Results are identical for every setting. */
    int threads = 0;
    /** Persistent result-store directory. Empty defers to the
     *  SAVE_CACHE_DIR environment variable; "none" disables
     *  persistence even when the variable is set. */
    std::string cacheDir;
    /** Result-store size cap in MB; eviction compacts the least-
     *  recently-used records past it. 0 defers to SAVE_CACHE_MAX_MB
     *  (unlimited when that is unset too). */
    int cacheMaxMb = 0;
    /** Extra attempts after a slice simulation throws. Each retry
     *  rebuilds the Engine from scratch, so a transient fault (e.g.
     *  injected via SAVE_FAULT_INJECT) cannot poison later attempts. */
    int maxRetries = 2;
    /** Rethrow the first slice failure instead of recording it and
     *  continuing with the rest of the sweep. */
    bool failFast = false;
    /** Slice-execution isolation: ""/"none"/"thread"/"process"; empty
     *  defers to SAVE_ISOLATION, then "thread". Results are
     *  bit-identical across all modes. See resolveIsolation(). */
    std::string isolation;
    /** Worker-pool knobs; only consulted when isolation resolves to
     *  "process". proc.workers == 0 matches the thread count. */
    ProcOptions proc;

    /** Throws ConfigError on out-of-range knobs; the estimator ctor
     *  calls this. */
    void validate() const;
};

/** One permanently failed surface point (all retries exhausted). */
struct SliceFailure
{
    /** Human-readable point id, e.g. "slice mr=4 nr=6 ... wBin=3". */
    std::string point;
    /** what() of the final attempt's exception. */
    std::string reason;
    /** Attempts made (1 + retries). */
    int attempts = 0;
};

/** Per-phase time breakdown (ns), Fig. 14 bar segments. */
struct PhaseBreakdown
{
    double firstLayer = 0;
    double forward = 0;
    double bwdInput = 0;
    double bwdWeights = 0;

    double
    total() const
    {
        return firstLayer + forward + bwdInput + bwdWeights;
    }

    PhaseBreakdown &operator+=(const PhaseBreakdown &o);
    PhaseBreakdown &operator*=(double f);
};

/** Times for all Fig. 14 operating points. */
struct NetResult
{
    PhaseBreakdown baseline2;
    PhaseBreakdown save2;
    PhaseBreakdown save1;
    PhaseBreakdown saveStatic;
    PhaseBreakdown saveDynamic;
};

/**
 * sweepResultPoisoned: true when a sweep-point result carries the NaN
 * marker of a permanently failed slice. The store never persists a
 * poisoned slice, so a rerun re-attempts it; callers use this to
 * report the failed point.
 */
inline bool
sweepResultPoisoned(const PhaseBreakdown &b)
{
    return std::isnan(b.firstLayer) || std::isnan(b.forward) ||
           std::isnan(b.bwdInput) || std::isnan(b.bwdWeights);
}

inline bool
sweepResultPoisoned(const NetResult &r)
{
    return sweepResultPoisoned(r.baseline2) ||
           sweepResultPoisoned(r.save2) ||
           sweepResultPoisoned(r.save1) ||
           sweepResultPoisoned(r.saveStatic) ||
           sweepResultPoisoned(r.saveDynamic);
}

/** Surface-cached whole-network estimator. Thread-safe: concurrent
 *  kernelTime/inference/training calls share the single-flight surface
 *  cache. */
class TrainingEstimator
{
  public:
    TrainingEstimator(MachineConfig mcfg, SaveConfig save_features,
                      EstimatorOptions opt);

    /**
     * Reentrant-facade constructor: fan out over `shared_pool` and
     * consult `shared_store` instead of creating private ones. Either
     * may be null (falling back to the EstimatorOptions behavior).
     * Both handles must outlive the estimator; neither is owned. This
     * is how SimSession (src/serve) gives every daemon worker session
     * its own estimator while sharing one pool and one CAS store.
     */
    TrainingEstimator(MachineConfig mcfg, SaveConfig save_features,
                      EstimatorOptions opt, ThreadPool *shared_pool,
                      ResultStore *shared_store);

    ~TrainingEstimator();

    /** Forward pass at end-of-training sparsity. */
    NetResult inference(const NetworkModel &net, Precision precision);

    /** Mean per-epoch time across the whole training run. */
    NetResult training(const NetworkModel &net, Precision precision);

    /**
     * Simulate every surface point the given evaluation will touch,
     * fanned out across the thread pool. inference()/training() do
     * the same themselves; it is public so callers can warm several
     * networks ahead of time.
     */
    void prefetch(const NetworkModel &net, Precision precision,
                  bool inference_only);

    /**
     * Time of one kernel at given sparsities (ns, full layer).
     * save_on selects the SAVE feature set vs the baseline pipeline.
     */
    double kernelTime(const KernelSpec &spec, Precision precision,
                      double bs, double nbs, bool save_on, int vpus);

    /** Slice simulations performed so far (persistent-store misses
     *  actually executed by this process). */
    uint64_t simulations() const
    {
        return sims_.load(std::memory_order_relaxed);
    }

    /** Surface points served from the persistent result store. */
    uint64_t persistentHits() const
    {
        return store_ ? store_->hits() : 0;
    }

    /** The persistent result store (disabled instance when no cache
     *  directory is configured). For counters/diagnostics. */
    const ResultStore *resultStore() const { return store_; }

    /** Pool workers the fan-out uses (1 = serial path). With N >= 2
     *  workers the calling thread simulates as well, so up to N+1
     *  slices run at once. */
    int threads() const;

    /** Surface points that exhausted their retries. Their times are
     *  quiet NaN, which propagates through interpolation so callers
     *  can detect a poisoned result with std::isnan. */
    std::vector<SliceFailure> failures() const;

    /** Multi-line report of all failures; empty string when clean.
     *  Includes the worker-pool status once any worker crashed. */
    std::string failureReport() const;

    /** Resolved isolation mode: "none", "thread", or "process". */
    const std::string &isolation() const { return isolation_; }

    /** The worker pool; null unless isolation() == "process". */
    WorkerPool *processPool() { return proc_pool_.get(); }

    /**
     * One slice simulation with explicit inputs — the shared core of
     * in-process execution and the save-worker binary, so out-of-
     * process results are bit-identical by construction. `seed` is
     * EstimatorOptions::seed (the per-point offset is derived from the
     * key's sparsity bins internally).
     */
    static KernelResult simulateSliceKernel(const MachineConfig &mcfg,
                                            const SaveConfig &save_on_cfg,
                                            const SliceKey &key,
                                            int tiles, int cores,
                                            uint64_t seed);

  private:
    /** Surface-point cache key (shape + sparsity bins). */
    using Key = SliceKey;

    /** One sparsity on one grid axis: the bins below and above it and
     *  its interpolation fraction between them. The default (bins 0,
     *  fraction 0) is the data-oblivious baseline's one sample. */
    struct Bin
    {
        int lo = 0, hi = 0;
        double frac = 0.0;
    };
    Bin bin(double s) const;

    /** One cold point's slice data, shared for one fan-out by the
     *  points that differ only in configuration (estimator.cc). */
    struct SharedFill;

    /** One slice attempt plus where it ran: a slice that executed in
     *  a sandboxed worker was already persisted by that worker, so the
     *  parent must not append a duplicate record. */
    struct SliceOutcome
    {
        KernelResult result;
        bool fromWorker = false;
    };

    /** Run one slice simulation (pure: no estimator state touched;
     *  the worker builds its own short-lived Engine), on a copy of
     *  `fill`'s data when it is non-null. */
    KernelResult simulateSlice(const Key &key, SharedFill *fill) const;

    /** CAS identity of a surface point (config digest + workload). */
    CasKey casKey(const Key &key) const;

    /** Stable hash of a surface point (fault-injection site id and
     *  failure-report label share it). */
    uint64_t keyHash(const Key &key) const;
    std::string keyLabel(const Key &key) const;

    /** simulateSlice with the retry/fault-isolation policy applied.
     *  Returns a NaN-timed result after maxRetries + 1 failed attempts
     *  (recording a SliceFailure) unless failFast, which rethrows. */
    SliceOutcome simulateWithRetry(const Key &key, SharedFill *fill);

    /** One attempt of one slice under the resolved isolation mode:
     *  dispatches to the worker pool (falling back in-process once it
     *  degrades) or runs simulateSlice directly. */
    SliceOutcome runSliceIsolated(const Key &key, int attempt,
                                  SharedFill *fill);

    /**
     * Produce one point the persistent store does not have yet:
     * cross-process single-flight (losers wait for the owner's
     * insert), then simulate with the retry policy and persist the
     * finite result — from the parent in-process, or from the worker
     * that ran it. An in-process run simulates a copy of `fill`'s
     * data when it is non-null. Returns the slice time (NaN =
     * permanently failed).
     */
    double computeCold(const Key &key, SharedFill *fill = nullptr);

    /** Simulated slice time in ns at binned sparsities; single-flight
     *  cached so concurrent callers never duplicate a simulation. */
    double sliceTime(const Key &key);

    /** A kernel's base key (bins 0) and its layer MACs per slice MAC. */
    Key baseKey(const KernelSpec &spec, Precision precision,
                double &mac_scale) const;

    /** Layer time at weight bin w and activation bin a: the bilinear
     *  interpolation over the live corners, each read via
     *  read(wBin, aBin), times mac_scale. */
    template <typename Read>
    static double layerTime(const Bin &w, const Bin &a, double mac_scale,
                            Read &&read);

    /** One kernel of an evaluation with everything no epoch changes.
     *  bs and nbs index an epoch's row of bins (kZero, kWeights, or kAct
     *  + i: layer i's input activations); surf[] its surface for each
     *  configuration: baseline 2 VPUs, SAVE 2 VPUs, SAVE 1 VPU. */
    struct Kernel
    {
        Phase phase;
        bool firstLayer;
        size_t bs, nbs;
        double macFactor, macScale;
        size_t surf[3];
    };
    static constexpr size_t kZero = 0, kWeights = 1, kAct = 2;

    /** One prefetch/inference/training call: its kernel list, its
     *  surfaces (distinct base keys), its bins (a row of `width` per
     *  evaluated epoch, indexed like Kernel::bs/nbs), the distinct
     *  points it reads in first-request order, each point's slot in a
     *  per-surface 10x10 table (1 + index into points; 0: unread) and
     *  the points' times. */
    struct Evaluation
    {
        std::vector<Kernel> kernels;
        std::vector<Key> surfaces, points;
        size_t width = 0;
        std::vector<Bin> bins;
        std::vector<uint32_t> slots;
        std::vector<double> times;

        const Bin *row(size_t epoch) const { return &bins[epoch * width]; }
    };

    /** Build a call's kernel list and bins, then walk its epochs for
     *  points. */
    Evaluation evaluation(const NetworkModel &net, Precision precision,
                          bool inference_only) const;

    /** Claim each un-cached point, serve store hits, fan out the rest;
     *  in-process, the points that share slice data share one fill. */
    void fetch(const std::vector<Key> &points);

    /** fetch() an evaluation's points, then read each one's time. */
    void readTimes(Evaluation &ev);

    /** Accumulate one epoch's row of bins into the result. */
    static void addEpoch(const Evaluation &ev, const Bin *row,
                         NetResult &acc);

    MachineConfig mcfg_;
    SaveConfig save_cfg_;
    EstimatorOptions opt_;

    std::string isolation_;

    /** Owned pool for threads >= 2; null for serial or global-pool
     *  mode (see EstimatorOptions::threads). */
    std::unique_ptr<ThreadPool> owned_pool_;
    ThreadPool *pool_ = nullptr;

    /** Sandboxed slice workers; non-null iff isolation_ == "process". */
    std::unique_ptr<WorkerPool> proc_pool_;

    /** Single-flight surface cache: the first thread to want a key
     *  simulates it, everyone else waits on the shared future. */
    std::mutex cache_mu_;
    std::map<Key, std::shared_future<double>> cache_;
    std::atomic<uint64_t> sims_{0};

    /** Persistent content-addressed store: owned_store_ is populated
     *  unless a shared store was injected; store_ always points at the
     *  live instance (disabled instance when no directory resolves). */
    std::unique_ptr<ResultStore> owned_store_;
    ResultStore *store_ = nullptr;
    uint64_t config_hash_ = 0;

    mutable std::mutex failures_mu_;
    std::vector<SliceFailure> failures_;
};

} // namespace save

#endif // SAVE_DNN_ESTIMATOR_H
