#include "dnn/estimator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "dnn/surface.h"
#include "sweep/sweep.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/runtime_options.h"

namespace save {

namespace {

/** Estimator knobs that shift slice times but live outside the Key. */
uint64_t
optionSalt(const EstimatorOptions &opt)
{
    uint64_t salt = opt.seed;
    salt = salt * 1000003ull + static_cast<uint64_t>(opt.tiles);
    salt = salt * 1000003ull + static_cast<uint64_t>(opt.cores);
    return salt;
}

/** How long a single-flight follower waits for a live but slow
 *  owner before simulating the point itself. A dead owner's flight
 *  ends the wait at once. */
constexpr int kFlightWaitMs = 60000;

/** The surface point of `base` at bins (w_bin, a_bin). */
SliceKey
pointOf(SliceKey base, int w_bin, int a_bin)
{
    base.wBin = static_cast<uint8_t>(w_bin);
    base.aBin = static_cast<uint8_t>(a_bin);
    return base;
}

/** The slice a surface point simulates: its shape, the sparsities of
 *  its bins and a per-point seed. Neither SAVE nor the VPU count
 *  enters it, so a point's configurations simulate the same data. */
GemmConfig
sliceConfig(const SliceKey &key, int tiles, uint64_t seed)
{
    GemmConfig g;
    g.mr = key.mr;
    g.nrVecs = key.nr;
    g.kSteps = key.kSteps;
    g.tiles = tiles;
    g.pattern = static_cast<BroadcastPattern>(key.pattern);
    g.precision = static_cast<Precision>(key.precision);
    g.nbsSparsity = key.wBin * SparsitySurface::kStep;
    g.bsSparsity = key.aBin * SparsitySurface::kStep;
    g.seed = seed + key.wBin * 131 + key.aBin * 17;
    return g;
}

} // namespace

/** The slice data of the cold points of one fan-out that differ only
 *  in configuration. The first to simulate fills it, each simulation
 *  runs on its own copy (a run writes C), and the last user of the
 *  fan-out drops it. */
struct TrainingEstimator::SharedFill
{
    std::mutex mu;
    int users = 0;
    MemoryImage image;
    /** Each core's placement; empty until filled. */
    std::vector<GemmWorkload> work;

    /** One user is done: the last one frees the data. */
    void
    leave()
    {
        std::lock_guard<std::mutex> lk(mu);
        if (--users == 0) {
            image = MemoryImage();
            work.clear();
        }
    }
};

std::string
resolveIsolation(const std::string &opt)
{
    if (!opt.empty()) {
        RuntimeOptions o;
        o.isolation = opt;
        return o.resolveIsolation();
    }
    return RuntimeOptions::fromEnv().resolveIsolation();
}

void
EstimatorOptions::validate() const
{
    SweepKnobs{gridStep, kSteps, tiles, cores, seed}.validate();
    if (threads < 0)
        throw ConfigError("EstimatorOptions.threads must be >= 0 "
                          "(got " + std::to_string(threads) + ")");
    if (maxRetries < 0)
        throw ConfigError("EstimatorOptions.maxRetries must be >= 0 "
                          "(got " + std::to_string(maxRetries) + ")");
    resolveIsolation(isolation);
    proc.validate();
}

PhaseBreakdown &
PhaseBreakdown::operator+=(const PhaseBreakdown &o)
{
    firstLayer += o.firstLayer;
    forward += o.forward;
    bwdInput += o.bwdInput;
    bwdWeights += o.bwdWeights;
    return *this;
}

PhaseBreakdown &
PhaseBreakdown::operator*=(double f)
{
    firstLayer *= f;
    forward *= f;
    bwdInput *= f;
    bwdWeights *= f;
    return *this;
}

TrainingEstimator::TrainingEstimator(MachineConfig mcfg,
                                     SaveConfig save_features,
                                     EstimatorOptions opt)
    : TrainingEstimator(mcfg, save_features, std::move(opt), nullptr,
                        nullptr)
{
}

TrainingEstimator::TrainingEstimator(MachineConfig mcfg,
                                     SaveConfig save_features,
                                     EstimatorOptions opt,
                                     ThreadPool *shared_pool,
                                     ResultStore *shared_store)
    : mcfg_(mcfg), save_cfg_(save_features), opt_(opt)
{
    opt_.validate();
    mcfg_.validate();
    save_cfg_.validate();

    isolation_ = resolveIsolation(opt_.isolation);
    config_hash_ = casHashConfig(mcfg_, save_cfg_, optionSalt(opt_));

    // Process-level fault modes (crash/abort/hang/oom) are only
    // containable behind a process boundary: refuse to arm them where
    // a raised SIGSEGV would take the whole sweep down.
    {
        const FaultInjector &inj = FaultInjector::global();
        if (isolation_ != "process" && inj.enabled() &&
            inj.plan().anyProcessFaults())
            throw ConfigError(
                "SAVE_FAULT_INJECT crash/abort/hang/oom modes require "
                "--isolation=process (current isolation: " +
                isolation_ + ")");
    }

    uint64_t cache_max_bytes = 0;
    if (shared_store) {
        store_ = shared_store;
        cache_max_bytes = shared_store->maxBytes();
    } else {
        ResultStore::Options sopt;
        sopt.dir = ResultStore::resolveDir(opt_.cacheDir);
        sopt.maxBytes = ResultStore::resolveMaxBytes(opt_.cacheMaxMb);
        cache_max_bytes = sopt.maxBytes;
        owned_store_ = std::make_unique<ResultStore>(sopt);
        store_ = owned_store_.get();
    }

    if (isolation_ != "none") {
        if (shared_pool) {
            pool_ = shared_pool;
        } else if (opt_.threads >= 2) {
            owned_pool_ = std::make_unique<ThreadPool>(opt_.threads);
            pool_ = owned_pool_.get();
        } else if (opt_.threads == 0) {
            pool_ = &ThreadPool::global();
        } // threads == 1: pool_ stays null, strictly serial
    }     // isolation == none: strictly serial regardless of threads

    if (isolation_ == "process") {
        ProcOptions p = opt_.proc;
        if (p.workers == 0)
            p.workers = threads();
        WireSessionInit init;
        init.mcfg = mcfg_;
        init.scfg = save_cfg_;
        init.tiles = opt_.tiles;
        init.cores = opt_.cores;
        init.seed = opt_.seed;
        init.configHash = config_hash_;
        init.cacheDir = store_->dir();
        init.cacheMaxBytes = cache_max_bytes;
        proc_pool_ = std::make_unique<WorkerPool>(p, init);
    }
}

TrainingEstimator::~TrainingEstimator() = default;

int
TrainingEstimator::threads() const
{
    return pool_ ? pool_->size() : 1;
}

KernelResult
TrainingEstimator::simulateSliceKernel(const MachineConfig &mcfg,
                                       const SaveConfig &save_on_cfg,
                                       const SliceKey &key, int tiles,
                                       int cores, uint64_t seed)
{
    // Each worker simulates with its own short-lived Engine: there is
    // no shared simulator state between concurrent slice points.
    Engine eng(mcfg, key.saveOn ? save_on_cfg : SaveConfig::baseline());
    return eng.runGemm(sliceConfig(key, tiles, seed), cores, key.vpus);
}

KernelResult
TrainingEstimator::simulateSlice(const Key &key, SharedFill *fill) const
{
    if (!fill)
        return simulateSliceKernel(mcfg_, save_cfg_, key, opt_.tiles,
                                   opt_.cores, opt_.seed);
    MemoryImage image;
    std::vector<GemmWorkload> work;
    {
        std::lock_guard<std::mutex> lk(fill->mu);
        if (fill->work.empty()) {
            // A fill that throws leaves the share empty for the next
            // attempt.
            MemoryImage fresh;
            std::vector<GemmWorkload> placed = fillShardedGemm(
                sliceConfig(key, opt_.tiles, opt_.seed), fresh,
                opt_.cores);
            fill->image = std::move(fresh);
            fill->work = std::move(placed);
        }
        image = fill->image;
        work = fill->work;
    }
    Engine eng(mcfg_, key.saveOn ? save_cfg_ : SaveConfig::baseline());
    return eng.runFilled(std::move(image), work, key.vpus);
}

CasKey
TrainingEstimator::casKey(const Key &key) const
{
    return CasKey{config_hash_, casSliceWorkload(key)};
}

TrainingEstimator::SliceOutcome
TrainingEstimator::runSliceIsolated(const Key &key, int attempt,
                                    SharedFill *fill)
{
    if (proc_pool_ && !proc_pool_->degraded()) {
        try {
            WireSliceResult wr =
                proc_pool_->runSlice(key, keyHash(key), attempt);
            SliceOutcome out;
            out.result.timeNs = wr.timeNs;
            out.result.cycles = wr.cycles;
            out.result.coreGhz = wr.coreGhz;
            for (const auto &[name, value] : wr.stats)
                out.result.stats.set(name, value);
            // The worker already persisted this result into the shared
            // store before replying; the parent must not append a
            // duplicate record.
            out.fromWorker = true;
            return out;
        } catch (const WorkerError &e) {
            if (proc_pool_->degraded()) {
                // The pool has drained past its crash budget: finish
                // the point in-process instead of failing it. This is
                // the graceful-degradation path, so it does not burn
                // one of the slice's own retries.
                SAVE_WARN("slice falling back in-process after pool "
                          "degradation: ", e.what());
                return SliceOutcome{simulateSlice(key, fill), false};
            }
            throw;
        }
    }
    return SliceOutcome{simulateSlice(key, fill), false};
}

uint64_t
TrainingEstimator::keyHash(const Key &key) const
{
    // FNV-1a over the key fields plus the option salt: stable across
    // runs, so seeded fault injection deterministically picks the same
    // surface points every time.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    mix(static_cast<uint64_t>(key.mr));
    mix(static_cast<uint64_t>(key.nr));
    mix(static_cast<uint64_t>(key.kSteps));
    mix(key.pattern);
    mix(key.precision);
    mix(key.saveOn);
    mix(key.vpus);
    mix(key.wBin);
    mix(key.aBin);
    mix(optionSalt(opt_));
    return h;
}

std::string
TrainingEstimator::keyLabel(const Key &key) const
{
    std::ostringstream os;
    os << "slice mr=" << key.mr << " nr=" << key.nr
       << " kSteps=" << key.kSteps
       << " pattern=" << static_cast<int>(key.pattern)
       << " precision=" << static_cast<int>(key.precision)
       << " save=" << static_cast<int>(key.saveOn)
       << " vpus=" << static_cast<int>(key.vpus)
       << " wBin=" << static_cast<int>(key.wBin)
       << " aBin=" << static_cast<int>(key.aBin);
    return os.str();
}

TrainingEstimator::SliceOutcome
TrainingEstimator::simulateWithRetry(const Key &key, SharedFill *fill)
{
    const uint64_t site = keyHash(key);
    const int attempts = 1 + opt_.maxRetries;
    for (int a = 1;; ++a) {
        try {
            FaultInjector::global().maybeFailSlice(site);
            return runSliceIsolated(key, a, fill);
        } catch (const std::exception &e) {
            if (a < attempts) {
                SAVE_WARN("retrying ", keyLabel(key), " after attempt ",
                          a, "/", attempts, " failed: ", e.what());
                continue;
            }
            if (opt_.failFast)
                throw;
            SliceFailure f;
            f.point = keyLabel(key);
            f.reason = e.what();
            f.attempts = attempts;
            {
                std::lock_guard<std::mutex> lk(failures_mu_);
                failures_.push_back(std::move(f));
            }
            SAVE_WARN(keyLabel(key), " failed permanently after ",
                      attempts, " attempts: ", e.what());
            SliceOutcome out;
            out.result.timeNs =
                std::numeric_limits<double>::quiet_NaN();
            return out;
        }
    }
}

double
TrainingEstimator::computeCold(const Key &key, SharedFill *fill)
{
    if (store_ && store_->enabled()) {
        const CasKey ck = casKey(key);
        ResultStore::Flight flight = store_->beginFlight(ck);
        if (!flight.owner()) {
            // Another process is simulating this exact point. Wait for
            // its insert; if the owner dies or times out, fall through
            // and simulate it ourselves — inserts are idempotent, so a
            // late duplicate is harmless.
            CasValue v;
            if (store_->waitForResult(ck, &v, kFlightWaitMs))
                return v.timeNs;
        } else {
            // The caller's lookup may be seconds old (prefetch looks
            // every key up before its fan-out): another process can
            // have stored and released this point since.
            CasValue v;
            if (store_->lookup(ck, &v))
                return v.timeNs;
        }
        SliceOutcome out = simulateWithRetry(key, fill);
        if (std::isfinite(out.result.timeNs)) {
            sims_.fetch_add(1, std::memory_order_relaxed);
            if (!out.fromWorker)
                store_->insert(ck, toCasValue(out.result));
        }
        return out.result.timeNs;
    }
    SliceOutcome out = simulateWithRetry(key, fill);
    if (std::isfinite(out.result.timeNs))
        sims_.fetch_add(1, std::memory_order_relaxed);
    return out.result.timeNs;
}

double
TrainingEstimator::sliceTime(const Key &key)
{
    std::promise<double> promise;
    std::shared_future<double> fut;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(cache_mu_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            fut = it->second;
        } else {
            fut = promise.get_future().share();
            cache_.emplace(key, fut);
            owner = true;
        }
    }
    if (!owner)
        return fut.get(); // single-flight: wait for the simulating thread

    double t;
    try {
        CasValue v;
        if (store_ && store_->lookup(casKey(key), &v))
            t = v.timeNs; // persistent hit: no simulation at all
        else
            t = computeCold(key);
    } catch (...) {
        // failFast (or a non-isolatable error): fail every waiter too,
        // then let the sweep driver unwind.
        promise.set_exception(std::current_exception());
        throw;
    }
    // NaN (exhausted retries) is cached like any value: the point is
    // not re-attempted within this process, and waiters observe the
    // same poisoned result instead of a duplicate simulation.
    promise.set_value(t);
    return t;
}

std::vector<SliceFailure>
TrainingEstimator::failures() const
{
    std::lock_guard<std::mutex> lk(failures_mu_);
    return failures_;
}

std::string
TrainingEstimator::failureReport() const
{
    std::ostringstream os;
    {
        std::lock_guard<std::mutex> lk(failures_mu_);
        if (!failures_.empty()) {
            os << failures_.size()
               << " surface point(s) failed permanently:\n";
            for (const SliceFailure &f : failures_)
                os << "  " << f.point << ": " << f.reason << " ("
                   << f.attempts << " attempts)\n";
        }
    }
    if (proc_pool_ && proc_pool_->crashes() > 0)
        os << proc_pool_->report() << "\n";
    return os.str();
}

TrainingEstimator::Bin
TrainingEstimator::bin(double s) const
{
    const int step = opt_.gridStep;
    const int max_bin = ((SparsitySurface::kGrid - 1) / step) * step;
    const double b =
        std::clamp(s, 0.0, SparsitySurface::kMax) / SparsitySurface::kStep;
    Bin r;
    r.lo = std::min(static_cast<int>(b) / step * step, max_bin);
    r.hi = std::min(r.lo + step, max_bin);
    r.frac = r.hi > r.lo ? (b - r.lo) / (r.hi - r.lo) : 0.0;
    r.frac = std::clamp(r.frac, 0.0, 1.0);
    return r;
}

template <typename Read>
double
TrainingEstimator::layerTime(const Bin &w, const Bin &a, double mac_scale,
                             Read &&read)
{
    // A corner whose weight is exactly 0 adds exactly 0 to any finite
    // interpolation, so it is neither simulated nor read: a first-layer
    // kernel (bs = 0) or a dense-weight kernel (nbs = 0) reads one row
    // or column of the four. Corners go (lo,lo), (lo,hi), (hi,lo), (hi,hi).
    const double dw = w.frac, da = a.frac;
    const double fw[2] = {1 - dw, dw}, fa[2] = {1 - da, da};
    const int wb[2] = {w.lo, w.hi}, ab[2] = {a.lo, a.hi};
    double t[4];
    for (int i = 0; i < 4; ++i)
        t[i] = fw[i >> 1] != 0 && fa[i & 1] != 0
                   ? read(wb[i >> 1], ab[i & 1])
                   : 0.0;
    return (t[0] * (1 - dw) * (1 - da) + t[2] * dw * (1 - da) +
            t[1] * (1 - dw) * da + t[3] * dw * da) *
           mac_scale;
}

TrainingEstimator::Key
TrainingEstimator::baseKey(const KernelSpec &spec, Precision precision,
                           double &mac_scale) const
{
    // Neither the key nor the MAC scale reads the slice's sparsities.
    GemmConfig slice = spec.slice(precision, 0.0, 0.0, opt_.kSteps,
                                  opt_.seed);
    slice.tiles = opt_.tiles;
    mac_scale = spec.macScale(slice);
    Key key{};
    key.mr = slice.mr;
    key.nr = slice.nrVecs;
    key.kSteps = slice.kSteps;
    key.pattern = static_cast<uint8_t>(slice.pattern);
    key.precision = static_cast<uint8_t>(precision);
    return key;
}

double
TrainingEstimator::kernelTime(const KernelSpec &spec, Precision precision,
                              double bs, double nbs, bool save_on,
                              int vpus)
{
    double mac_scale = 0.0;
    Key key = baseKey(spec, precision, mac_scale);
    key.saveOn = save_on ? 1 : 0;
    key.vpus = static_cast<uint8_t>(vpus);
    // The baseline pipeline is data-oblivious: its one sample serves
    // every sparsity.
    const Bin w = save_on ? bin(nbs) : Bin{}, a = save_on ? bin(bs) : Bin{};
    return layerTime(w, a, mac_scale, [&](int wb, int ab) {
        return sliceTime(pointOf(key, wb, ab));
    });
}

namespace {

/** Route a kernel's time into the right breakdown bucket. */
void
bucket(PhaseBreakdown &bd, Phase phase, bool first_layer, double t)
{
    if (first_layer)
        bd.firstLayer += t;
    else if (phase == Phase::Forward)
        bd.forward += t;
    else if (phase == Phase::BwdInput)
        bd.bwdInput += t;
    else
        bd.bwdWeights += t;
}

/** A point's place in an evaluation's per-surface 10x10 table. */
size_t
slotOf(size_t surf, int w_bin, int a_bin)
{
    constexpr size_t g = SparsitySurface::kGrid;
    return (surf * g + static_cast<size_t>(w_bin)) * g +
           static_cast<size_t>(a_bin);
}

} // namespace

TrainingEstimator::Evaluation
TrainingEstimator::evaluation(const NetworkModel &net, Precision precision,
                              bool inference_only) const
{
    // The kernel list, in accumulation order; no field depends on epochs.
    Evaluation ev;
    std::map<Key, size_t> surfaces;
    auto add = [&](const KernelSpec &spec, size_t bs, size_t nbs,
                   bool first, double mac_factor) {
        Kernel k{spec.phase, first, bs, nbs, mac_factor, 0.0, {}};
        Key key = baseKey(spec, precision, k.macScale);
        for (int c = 0; c < 3; ++c) {
            key.saveOn = c > 0;
            key.vpus = c == 2 ? 1 : 2;
            auto [it, fresh] = surfaces.try_emplace(key, ev.surfaces.size());
            if (fresh)
                ev.surfaces.push_back(key);
            k.surf[c] = it->second;
        }
        ev.kernels.push_back(k);
    };

    if (!net.isLstm()) {
        const size_t n = net.convLayers.size();
        for (size_t i = 0; i < n; ++i) {
            const ConvLayer &layer = net.convLayers[i];
            bool first = i == 0;
            size_t in_act = first ? kZero : kAct + i;
            // Output-gradient sparsity: the layer's own ReLU mask,
            // approximated by its output activation sparsity (the
            // next layer's input); zero under BatchNorm.
            size_t grad = net.sparseGradients
                ? kAct + std::min(i + 1, n - 1)
                : kZero;

            add(makeConvKernel(layer, Phase::Forward, net.batch), in_act,
                kWeights, first, 1.0);
            if (inference_only)
                continue;
            if (!first) {
                // dX = dY * W^T: dY broadcast (BS), W^T vector (NBS).
                add(makeConvKernel(layer, Phase::BwdInput, net.batch),
                    grad, kWeights, false, 1.0);
            }
            // dW = X^T dY: X broadcast (BS), dY vector (NBS).
            add(makeConvKernel(layer, Phase::BwdWeights, net.batch),
                in_act, grad, first, 1.0);
        }
    } else {
        for (size_t i = 0; i < net.cells.size(); ++i) {
            const LstmCell &cell = net.cells[i];
            add(makeLstmKernel(cell, Phase::Forward), kAct + i, kWeights,
                false, 1.0);
            if (inference_only)
                continue;
            // The merged LSTM backward computes both dX and dW: twice
            // the forward GEMM work at gradient/weight sparsity.
            add(makeLstmKernel(cell, Phase::BwdInput), kAct + i, kWeights,
                false, 2.0);
        }
    }

    // The bins table: each evaluated epoch's sparsities, binned once.
    const int64_t first = inference_only ? net.steps() - 1 : 0;
    const ActivationProfile act = net.profile();
    ev.width = kAct + static_cast<size_t>(net.numKernels());
    ev.bins.resize(static_cast<size_t>(net.steps() - first) * ev.width);

    // The key walk: every corner layerTime() reads, of every kernel and
    // configuration, deduped by its slot, in first-request order. A
    // bin's (lo, hi, frac == 0, frac == 1) fixes its live corners and
    // their keys, so an epoch that matches the last walked epoch in all
    // of them requests nothing new and is skipped.
    auto same = [](const Bin &x, const Bin &y) {
        return x.lo == y.lo && x.hi == y.hi &&
               (x.frac == 0) == (y.frac == 0) &&
               (x.frac == 1) == (y.frac == 1);
    };
    constexpr size_t g = SparsitySurface::kGrid;
    ev.slots.assign(ev.surfaces.size() * g * g, 0);
    const Bin *walked = nullptr;
    for (int64_t e = first; e < net.steps(); ++e) {
        Bin *row = &ev.bins[static_cast<size_t>(e - first) * ev.width];
        row[kZero] = bin(0.0);
        row[kWeights] = bin(net.schedule.sparsityAt(e));
        for (int i = 0; i < net.numKernels(); ++i)
            row[kAct + static_cast<size_t>(i)] = bin(act.at(i, e));
        if (walked && std::equal(row, row + ev.width, walked, same))
            continue;
        walked = row;
        for (const Kernel &k : ev.kernels)
            for (int c = 0; c < 3; ++c) {
                const size_t s = k.surf[c];
                layerTime(c ? row[k.nbs] : Bin{}, c ? row[k.bs] : Bin{},
                          0.0, [&](int w, int a) {
                              uint32_t &slot = ev.slots[slotOf(s, w, a)];
                              if (slot == 0) {
                                  ev.points.push_back(
                                      pointOf(ev.surfaces[s], w, a));
                                  slot = static_cast<uint32_t>(
                                      ev.points.size());
                              }
                              return 0.0;
                          });
            }
    }
    return ev;
}

void
TrainingEstimator::prefetch(const NetworkModel &net, Precision precision,
                            bool inference_only)
{
    fetch(evaluation(net, precision, inference_only).points);
}

void
TrainingEstimator::fetch(const std::vector<Key> &points)
{
    // Claim every un-cached point up front: inserting the shared
    // future under the lock takes single-flight ownership, exactly as
    // sliceTime's owner path would, so a concurrent kernelTime that
    // races the prefetch waits on our fan-out instead of duplicating the
    // simulation. promises[] stays parallel to todo[].
    std::vector<Key> todo;
    std::vector<std::promise<double>> promises;
    {
        std::lock_guard<std::mutex> lk(cache_mu_);
        for (const Key &k : points) {
            if (cache_.count(k))
                continue;
            std::promise<double> p;
            cache_.emplace(k, p.get_future().share());
            todo.push_back(k);
            promises.push_back(std::move(p));
        }
    }
    if (todo.empty())
        return;

    // Serve persistent-store hits immediately: only the points the
    // store has never seen are fanned out. cold[] holds their slots in
    // todo[] (and promises[]).
    std::vector<size_t> cold;
    for (size_t i = 0; i < todo.size(); ++i) {
        CasValue v;
        if (store_ && store_->lookup(casKey(todo[i]), &v))
            promises[i].set_value(v.timeNs);
        else
            cold.push_back(i);
    }

    // One pool index per cold point, the largest slices first, so the
    // longest simulations start early and the tail behind the
    // barrier is a single slice. Each point simulates with its own
    // seeded Engine: the order changes scheduling, never values.
    auto work = [&](size_t i) {
        return static_cast<int64_t>(todo[i].mr) * todo[i].nr *
               todo[i].kSteps;
    };
    std::stable_sort(cold.begin(), cold.end(), [&](size_t x, size_t y) {
        return work(x) > work(y);
    });

    // In-process, the cold points that differ only in configuration
    // (SAVE's 2- and 1-VPU twins, and the baseline at bins (0, 0))
    // simulate the same slice data, so they share one fill per
    // fan-out: fill_of[i] for cold point i, keyed by the point with
    // its configuration cleared. A worker process fills its own, so
    // under process isolation the parent fills none.
    std::map<Key, SharedFill> fills;
    std::vector<SharedFill *> fill_of(todo.size(), nullptr);
    if (!proc_pool_)
        for (size_t i : cold) {
            Key data = todo[i];
            data.saveOn = data.vpus = 0;
            fill_of[i] = &fills[data];
            ++fill_of[i]->users;
        }

    // Every index resolves its own promise exactly once. After a
    // failFast failure the indices not yet started skip their
    // simulation and fail their waiters with the first error, which
    // is then rethrown.
    std::mutex error_mu;
    std::exception_ptr error;
    auto run = [&](int64_t n) {
        const size_t i = cold[static_cast<size_t>(n)];
        SharedFill *fill = fill_of[i];
        std::exception_ptr e;
        {
            std::lock_guard<std::mutex> lk(error_mu);
            e = error;
        }
        double t = 0;
        if (!e) {
            try {
                t = computeCold(todo[i], fill);
            } catch (...) {
                e = std::current_exception();
                std::lock_guard<std::mutex> lk(error_mu);
                if (!error)
                    error = e;
            }
        }
        // Simulated, served by the store, failed or skipped: this
        // point no longer needs its fill.
        if (fill)
            fill->leave();
        if (e)
            promises[i].set_exception(e);
        else
            promises[i].set_value(t);
    };
    const auto n = static_cast<int64_t>(cold.size());
    if (pool_)
        pool_->parallelFor(n, run);
    else
        for (int64_t i = 0; i < n; ++i)
            run(i);
    if (error)
        std::rethrow_exception(error);
}

void
TrainingEstimator::readTimes(Evaluation &ev)
{
    fetch(ev.points);
    for (const Key &k : ev.points)
        ev.times.push_back(sliceTime(k));
}

void
TrainingEstimator::addEpoch(const Evaluation &ev, const Bin *row,
                            NetResult &acc)
{
    PhaseBreakdown epoch2, epoch1; // for the per-epoch static choice

    for (const Kernel &k : ev.kernels) {
        double t[3];
        for (int c = 0; c < 3; ++c) {
            const size_t s = k.surf[c];
            t[c] = k.macFactor *
                   layerTime(c ? row[k.nbs] : Bin{}, c ? row[k.bs] : Bin{},
                             k.macScale, [&](int w, int a) {
                                 return ev.times[ev.slots[slotOf(s, w, a)] -
                                                 1];
                             });
        }
        bucket(acc.baseline2, k.phase, k.firstLayer, t[0]);
        bucket(acc.save2, k.phase, k.firstLayer, t[1]);
        bucket(acc.save1, k.phase, k.firstLayer, t[2]);
        bucket(acc.saveDynamic, k.phase, k.firstLayer,
               std::min(t[1], t[2]));
        bucket(epoch2, k.phase, k.firstLayer, t[1]);
        bucket(epoch1, k.phase, k.firstLayer, t[2]);
    }

    // Static: the better fixed VPU count for this whole epoch.
    acc.saveStatic +=
        epoch2.total() <= epoch1.total() ? epoch2 : epoch1;
}

NetResult
TrainingEstimator::inference(const NetworkModel &net, Precision precision)
{
    Evaluation ev = evaluation(net, precision, true);
    readTimes(ev);
    NetResult r;
    addEpoch(ev, ev.row(0), r); // the final epoch's row, the only one
    // Inference has no epoch granularity: static == the better fixed
    // configuration == what addEpoch already computed.
    return r;
}

NetResult
TrainingEstimator::training(const NetworkModel &net, Precision precision)
{
    Evaluation ev = evaluation(net, precision, false);
    readTimes(ev);
    NetResult r;
    for (int64_t e = 0; e < net.steps(); ++e)
        addEpoch(ev, ev.row(static_cast<size_t>(e)), r);
    double inv = 1.0 / static_cast<double>(net.steps());
    r.baseline2 *= inv;
    r.save2 *= inv;
    r.save1 *= inv;
    r.saveStatic *= inv;
    r.saveDynamic *= inv;
    return r;
}

} // namespace save
