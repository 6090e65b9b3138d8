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
#include "proc/slice_producer.h"
#include "util/thread_pool.h"

namespace save {

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
     *  SAVE_CACHE_DIR environment variable; "none" or "-", here or in
     *  the variable, disables persistence
     *  (ResultStore::resolveOptions). */
    std::string cacheDir;
    /** Result-store size cap in MB; eviction compacts the least-
     *  recently-used records past it. 0 defers to SAVE_CACHE_MAX_MB
     *  (unlimited when that is unset too). */
    int cacheMaxMb = 0;
    /** Extra attempts after a slice simulation throws. Each retry
     *  rebuilds the Engine from scratch, so a transient fault (e.g.
     *  injected via SAVE_FAULT_INJECT) cannot poison later attempts.
     *  This and the three knobs below configure the estimator's own
     *  SliceProducer; a shared producer's settings apply instead. */
    int maxRetries = 2;
    /** Rethrow the first slice failure instead of recording it and
     *  continuing with the rest of the sweep. */
    bool failFast = false;
    /** Slice-execution isolation: "none" (strictly serial,
     *  in-process), "thread" (in-process thread-pool fan-out, the
     *  default) or "process" (sandboxed worker subprocesses,
     *  src/proc); empty defers to SAVE_ISOLATION, then "thread".
     *  Results are bit-identical across all modes. */
    std::string isolation;
    /** Worker-pool knobs; only consulted when isolation resolves to
     *  "process". proc.workers == 0 matches the thread count. */
    ProcOptions proc;

    /** Throws ConfigError on out-of-range knobs; the estimator ctor
     *  calls this. */
    void validate() const;
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
    /**
     * Fan out over `shared_pool`, and produce every slice through
     * `shared_producer` (its store, isolation, retries and worker
     * pool) or else through a producer of the estimator's own over
     * `shared_store`. Any may be null (falling back to the
     * EstimatorOptions behavior); none is owned, and each must outlive
     * the estimator. A SimSession (src/serve) shares one producer
     * among its estimators and its GEMM slices.
     */
    TrainingEstimator(MachineConfig mcfg, SaveConfig save_features,
                      EstimatorOptions opt, ThreadPool *shared_pool = nullptr,
                      ResultStore *shared_store = nullptr,
                      SliceProducer *shared_producer = nullptr);

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

    /** Slice simulations this estimator performed so far (store
     *  misses it ran itself). */
    uint64_t simulations() const
    {
        return sims_.load(std::memory_order_relaxed);
    }

    /** Surface points served from the persistent result store. */
    uint64_t persistentHits() const { return producer_->store().hits(); }

    /** The persistent result store (disabled instance when no cache
     *  directory is configured). For counters/diagnostics. */
    const ResultStore *resultStore() const { return &producer_->store(); }

    /** The producer of the estimator's slices, shared or owned: their
     *  isolation, worker pool and failures. A slice that exhausted its
     *  retries reads quiet NaN, which propagates through interpolation,
     *  so callers detect a poisoned result with std::isnan. */
    const SliceProducer &producer() const { return *producer_; }

    /** Pool workers the fan-out uses (1 = serial path). With N >= 2
     *  workers the calling thread simulates as well, so up to N+1
     *  slices run at once. */
    int threads() const;

    /** Engine::runGemm on the slice `key` names (sliceRequest). Kept
     *  for perfbench. */
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

    /** The slice a surface point simulates. */
    SliceRequest request(const Key &key) const
    {
        return sliceRequest(mcfg_, save_cfg_, key, opt_.tiles, opt_.cores,
                            opt_.seed);
    }

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

    /** fetch() `points`, then each one's simulated time in ns; a
     *  point another thread claimed is waited for, never simulated
     *  twice, and a failed one reads NaN. */
    std::vector<double> readTimes(const std::vector<Key> &points);

    /** Accumulate one epoch's row of bins into the result. */
    static void addEpoch(const Evaluation &ev, const Bin *row,
                         NetResult &acc);

    MachineConfig mcfg_;
    SaveConfig save_cfg_;
    EstimatorOptions opt_;

    /** Owned pool for threads >= 2; null for serial or global-pool
     *  mode (see EstimatorOptions::threads). */
    std::unique_ptr<ThreadPool> owned_pool_;
    ThreadPool *pool_ = nullptr;

    /** Single-flight surface cache: the first thread to want a key
     *  simulates it, everyone else waits on the shared future. */
    std::mutex cache_mu_;
    std::map<Key, std::shared_future<double>> cache_;
    std::atomic<uint64_t> sims_{0};

    /** The producer of every slice, and through it the store: the
     *  owned ones unless shared ones were injected (the store is a
     *  disabled instance when no directory resolves). owned_store_
     *  outlives owned_producer_, which holds it. */
    std::unique_ptr<ResultStore> owned_store_;
    std::unique_ptr<SliceProducer> owned_producer_;
    SliceProducer *producer_ = nullptr;
};

} // namespace save

#endif // SAVE_DNN_ESTIMATOR_H
