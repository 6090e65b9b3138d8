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

} // namespace

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

    // Each worker simulates with its own short-lived Engine: there is
    // no shared simulator state between concurrent slice points.
    Engine eng(mcfg, key.saveOn ? save_on_cfg : SaveConfig::baseline());
    return eng.runGemm(g, cores, key.vpus);
}

KernelResult
TrainingEstimator::simulateSlice(const Key &key) const
{
    return simulateSliceKernel(mcfg_, save_cfg_, key, opt_.tiles,
                               opt_.cores, opt_.seed);
}

CasKey
TrainingEstimator::casKey(const Key &key) const
{
    return CasKey{config_hash_, casSliceWorkload(key)};
}

TrainingEstimator::SliceOutcome
TrainingEstimator::runSliceIsolated(const Key &key, int attempt)
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
                return SliceOutcome{simulateSlice(key), false};
            }
            throw;
        }
    }
    return SliceOutcome{simulateSlice(key), false};
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
TrainingEstimator::simulateWithRetry(const Key &key)
{
    const uint64_t site = keyHash(key);
    const int attempts = 1 + opt_.maxRetries;
    for (int a = 1;; ++a) {
        try {
            FaultInjector::global().maybeFailSlice(site);
            return runSliceIsolated(key, a);
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
TrainingEstimator::computeCold(const Key &key)
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
        SliceOutcome out = simulateWithRetry(key);
        if (std::isfinite(out.result.timeNs)) {
            sims_.fetch_add(1, std::memory_order_relaxed);
            if (!out.fromWorker)
                store_->insert(ck, toCasValue(out.result));
        }
        return out.result.timeNs;
    }
    SliceOutcome out = simulateWithRetry(key);
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

TrainingEstimator::Corners
TrainingEstimator::corners(Key key, double nbs, double bs) const
{
    Corners c{};
    int w[2] = {0, 0}, a[2] = {0, 0};
    // The baseline pipeline is data-oblivious: one sample at bins
    // (0, 0), with full weight, serves every sparsity point.
    if (key.saveOn) {
        const int step = opt_.gridStep;
        const int max_bin = ((SparsitySurface::kGrid - 1) / step) * step;
        auto bins = [&](double s, int bin[2], double &frac) {
            double b = std::clamp(s, 0.0, SparsitySurface::kMax) /
                       SparsitySurface::kStep;
            bin[0] = std::min(static_cast<int>(b) / step * step, max_bin);
            bin[1] = std::min(bin[0] + step, max_bin);
            frac = bin[1] > bin[0] ? (b - bin[0]) / (bin[1] - bin[0]) : 0.0;
            frac = std::clamp(frac, 0.0, 1.0);
        };
        bins(nbs, w, c.dw);
        bins(bs, a, c.da);
    }
    // A corner whose weight is exactly 0 adds exactly 0 to any finite
    // interpolation, so it is neither simulated nor read: a first-layer
    // kernel (bs = 0) or a dense-weight kernel (nbs = 0) reads one row
    // or column of the four.
    const double fw[2] = {1 - c.dw, c.dw}, fa[2] = {1 - c.da, c.da};
    for (int i = 0; i < 4; ++i) {
        c.keys[i] = key;
        c.keys[i].wBin = static_cast<uint8_t>(w[i >> 1]);
        c.keys[i].aBin = static_cast<uint8_t>(a[i & 1]);
        c.live[i] = fw[i >> 1] != 0 && fa[i & 1] != 0;
    }
    return c;
}

template <typename Read>
double
TrainingEstimator::layerTime(const Key &base, double mac_scale, double nbs,
                             double bs, Read &&read) const
{
    const Corners c = corners(base, nbs, bs);
    double t[4];
    for (int i = 0; i < 4; ++i)
        t[i] = c.live[i] ? read(c.keys[i]) : 0.0;
    return (t[0] * (1 - c.dw) * (1 - c.da) + t[2] * c.dw * (1 - c.da) +
            t[1] * (1 - c.dw) * c.da + t[3] * c.dw * c.da) *
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
    return layerTime(key, mac_scale, nbs, bs,
                     [this](const Key &k) { return sliceTime(k); });
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

/** A point's place in an evaluation's per-surface bin table. */
size_t
slotOf(size_t surf, const SliceKey &point)
{
    constexpr size_t g = SparsitySurface::kGrid;
    return (surf * g + point.wBin) * g + point.aBin;
}

} // namespace

template <typename Fn>
void
TrainingEstimator::forEachKernel(const Evaluation &ev,
                                 const NetworkModel &net, int64_t step,
                                 Fn &&fn) const
{
    const ActivationProfile act = net.profile();
    std::vector<double> s(kAct + static_cast<size_t>(net.numKernels()));
    s[kWeights] = net.schedule.sparsityAt(step);
    for (int i = 0; i < net.numKernels(); ++i)
        s[kAct + static_cast<size_t>(i)] = act.at(i, step);
    for (const Kernel &k : ev.kernels)
        fn(k, s[k.bs], s[k.nbs]);
}

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

    // The key walk: every live corner of every configuration, deduped
    // by its slot in the bin table, in first-request order.
    constexpr size_t g = SparsitySurface::kGrid;
    ev.slots.assign(ev.surfaces.size() * g * g, 0);
    for (int64_t e = inference_only ? net.steps() - 1 : 0;
         e < net.steps(); ++e)
        forEachKernel(ev, net, e, [&](const Kernel &k, double bs,
                                      double nbs) {
            for (size_t surf : k.surf) {
                const Corners c = corners(ev.surfaces[surf], nbs, bs);
                for (int i = 0; i < 4; ++i) {
                    uint32_t &slot = ev.slots[slotOf(surf, c.keys[i])];
                    if (c.live[i] && slot == 0) {
                        ev.points.push_back(c.keys[i]);
                        slot = static_cast<uint32_t>(ev.points.size());
                    }
                }
            }
        });
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

    // Every index resolves its own promise exactly once. After a
    // failFast failure the indices not yet started skip their
    // simulation and fail their waiters with the first error, which
    // is then rethrown.
    std::mutex error_mu;
    std::exception_ptr error;
    auto run = [&](int64_t n) {
        const size_t i = cold[static_cast<size_t>(n)];
        std::exception_ptr e;
        {
            std::lock_guard<std::mutex> lk(error_mu);
            e = error;
        }
        if (!e) {
            try {
                promises[i].set_value(computeCold(todo[i]));
                return;
            } catch (...) {
                e = std::current_exception();
                std::lock_guard<std::mutex> lk(error_mu);
                if (!error)
                    error = e;
            }
        }
        promises[i].set_exception(e);
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
TrainingEstimator::addEpoch(const Evaluation &ev, const NetworkModel &net,
                            int64_t step, NetResult &acc) const
{
    PhaseBreakdown epoch2, epoch1; // for the per-epoch static choice

    forEachKernel(ev, net, step, [&](const Kernel &k, double bs,
                                     double nbs) {
        double t[3];
        for (int c = 0; c < 3; ++c) {
            auto read = [&, s = k.surf[c]](const Key &p) {
                return ev.times[ev.slots[slotOf(s, p)] - 1];
            };
            t[c] = k.macFactor * layerTime(ev.surfaces[k.surf[c]],
                                           k.macScale, nbs, bs, read);
        }
        bucket(acc.baseline2, k.phase, k.firstLayer, t[0]);
        bucket(acc.save2, k.phase, k.firstLayer, t[1]);
        bucket(acc.save1, k.phase, k.firstLayer, t[2]);
        bucket(acc.saveDynamic, k.phase, k.firstLayer,
               std::min(t[1], t[2]));
        bucket(epoch2, k.phase, k.firstLayer, t[1]);
        bucket(epoch1, k.phase, k.firstLayer, t[2]);
    });

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
    addEpoch(ev, net, net.steps() - 1, r);
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
        addEpoch(ev, net, e, r);
    double inv = 1.0 / static_cast<double>(net.steps());
    r.baseline2 *= inv;
    r.save2 *= inv;
    r.save1 *= inv;
    r.saveStatic *= inv;
    r.saveDynamic *= inv;
    return r;
}

} // namespace save
