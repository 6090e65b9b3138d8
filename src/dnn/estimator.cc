#include "dnn/estimator.h"

#include <algorithm>
#include <cmath>

#include "dnn/surface.h"
#include "sweep/sweep.h"
#include "util/error.h"
#include "util/runtime_options.h"

namespace save {

namespace {

/** The surface point of `base` at bins (w_bin, a_bin). */
SliceKey
pointOf(SliceKey base, int w_bin, int a_bin)
{
    base.wBin = static_cast<uint8_t>(w_bin);
    base.aBin = static_cast<uint8_t>(a_bin);
    return base;
}

} // namespace

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
    RuntimeOptions rt;
    rt.isolation = isolation;
    rt.resolveIsolation();
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
                                     EstimatorOptions opt,
                                     ThreadPool *shared_pool,
                                     ResultStore *shared_store,
                                     SliceProducer *shared_producer)
    : mcfg_(mcfg), save_cfg_(save_features), opt_(std::move(opt)),
      producer_(shared_producer)
{
    opt_.validate();
    mcfg_.validate();
    save_cfg_.validate();

    // The options name the isolation and the store; unset ones defer
    // to the environment. A shared producer brings its own.
    RuntimeOptions rt;
    if (!producer_) {
        rt = RuntimeOptions::fromEnv();
        if (!opt_.isolation.empty())
            rt.isolation = opt_.isolation;
        if (!opt_.cacheDir.empty())
            rt.cacheDir = opt_.cacheDir;
        if (opt_.cacheMaxMb != 0)
            rt.cacheMaxMb = opt_.cacheMaxMb;
    }
    const std::string isolation =
        producer_ ? producer_->isolation() : rt.resolveIsolation();
    if (isolation != "none") {
        if (shared_pool) {
            pool_ = shared_pool;
        } else if (opt_.threads >= 2) {
            owned_pool_ = std::make_unique<ThreadPool>(opt_.threads);
            pool_ = owned_pool_.get();
        } else if (opt_.threads == 0) {
            pool_ = &ThreadPool::global();
        } // threads == 1: pool_ stays null, strictly serial
    }     // isolation == none: strictly serial regardless of threads

    if (!producer_) {
        if (!shared_store) {
            owned_store_ = std::make_unique<ResultStore>(
                ResultStore::resolveOptions(rt));
            shared_store = owned_store_.get();
        }
        ProcOptions proc = opt_.proc;
        if (proc.workers == 0)
            proc.workers = threads();
        owned_producer_ = std::make_unique<SliceProducer>(
            *shared_store, isolation, opt_.maxRetries, opt_.failFast, proc);
        producer_ = owned_producer_.get();
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
    const SliceRequest r =
        sliceRequest(mcfg, save_on_cfg, key, tiles, cores, seed);
    return Engine(r.mcfg, r.scfg).runGemm(r.gemm, r.cores, r.vpus);
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
        return readTimes({pointOf(key, wb, ab)})[0];
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
    // future under the lock takes single-flight ownership, so a
    // concurrent caller that races this fetch waits on our fan-out
    // instead of duplicating the simulation. NaN (exhausted retries)
    // is cached like any value: the point is not re-attempted within
    // this process. promises[] stays parallel to todo[].
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
        if (producer_->store().lookup(casSliceKey(request(todo[i])), &v))
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
    std::map<Key, SliceProducer::Fill> fills;
    std::vector<SliceProducer::Fill *> fill_of(todo.size(), nullptr);
    if (!producer_->pool())
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
        SliceProducer::Fill *fill = fill_of[i];
        std::exception_ptr e;
        {
            std::lock_guard<std::mutex> lk(error_mu);
            e = error;
        }
        double t = 0;
        if (!e) {
            try {
                t = producer_->produce(request(todo[i]), sims_, fill)
                        .timeNs;
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

std::vector<double>
TrainingEstimator::readTimes(const std::vector<Key> &points)
{
    fetch(points);
    std::vector<std::shared_future<double>> futures;
    {
        std::lock_guard<std::mutex> lk(cache_mu_);
        for (const Key &k : points)
            futures.push_back(cache_.at(k));
    }
    std::vector<double> out;
    out.reserve(points.size());
    for (const std::shared_future<double> &f : futures)
        out.push_back(f.get());
    return out;
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
    ev.times = readTimes(ev.points);
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
    ev.times = readTimes(ev.points);
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
