#include "serve/session.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace save {

namespace {

std::string
knobId(const SweepKnobs &k)
{
    return std::to_string(k.gridStep) + "/" + std::to_string(k.kSteps) +
           "/" + std::to_string(k.tiles) + "/" + std::to_string(k.cores) +
           "/" + std::to_string(k.seed);
}

} // namespace

SimSession::SimSession(Options opt) : opt_(std::move(opt))
{
    if (opt_.sharedPool != nullptr) {
        pool_ = opt_.sharedPool;
    } else {
        owned_pool_ = std::make_unique<ThreadPool>(
            std::max(1, opt_.runtime.resolveThreads()));
        pool_ = owned_pool_.get();
    }
    if (opt_.sharedStore != nullptr) {
        store_ = opt_.sharedStore;
    } else {
        owned_store_ = std::make_unique<ResultStore>(
            ResultStore::resolveOptions(opt_.runtime));
        store_ = owned_store_.get();
    }
    ProcOptions proc = opt_.proc;
    proc.workerBin = opt_.runtime.workerBin;
    if (proc.workers == 0)
        proc.workers = pool_->size();
    producer_ = std::make_unique<SliceProducer>(
        *store_, opt_.runtime.resolveIsolation(), opt_.maxRetries,
        opt_.failFast, proc);
}

SimSession::~SimSession() = default;

KernelResult
SimSession::runGemm(const SliceRequest &r)
{
    // A stored slice is answered from the store's index, without a
    // flight lock file, as the estimator looks its points up before
    // its fan-out; only a miss goes to the producer.
    CasValue v;
    if (!store_->lookup(casSliceKey(r), &v))
        v = producer_->produce(r, gemmSims_);
    return toKernelResult(v);
}

TrainingEstimator &
SimSession::estimator(const SweepKnobs &k)
{
    const std::string id = knobId(k);
    std::lock_guard<std::mutex> lk(mu_);
    auto it = estimators_.find(id);
    if (it != estimators_.end())
        return *it->second;

    EstimatorOptions eo;
    eo.gridStep = k.gridStep;
    eo.kSteps = k.kSteps;
    eo.tiles = k.tiles;
    eo.cores = k.cores;
    eo.seed = k.seed;
    // A one-thread pool still runs two threads (the caller joins
    // parallelFor), so one thread gets no pool: strictly serial.
    ThreadPool *pool = pool_->size() > 1 ? pool_ : nullptr;
    eo.threads = pool ? 0 : 1;
    eo.validate();

    auto est = std::make_unique<TrainingEstimator>(
        opt_.mcfg, opt_.scfg, eo, pool, nullptr, producer_.get());
    TrainingEstimator &ref = *est;
    estimators_.emplace(id, std::move(est));
    return ref;
}

std::vector<double>
SimSession::runPoint(const SweepSpec &spec, const SweepKnobs &knobs,
                     size_t index)
{
    knobs.validate();
    const std::vector<SweepPoint> points = spec.points(knobs);
    if (index >= points.size())
        throw ConfigError(std::string(spec.name) + " point index " +
                          std::to_string(index) + " out of range [0, " +
                          std::to_string(points.size()) + ")");
    const SweepPoint &p = points[index];
    std::vector<double> values = p.run(*this);
    if (values.size() != spec.width)
        throw SimError(std::string(spec.name) + " point '" + p.key +
                       "' returned " + std::to_string(values.size()) +
                       " value(s), expected " +
                       std::to_string(spec.width));
    // Other points' slices fail on this session too, so the error
    // names no slice: it could not tell which of them is this point's.
    if (std::any_of(values.begin(), values.end(),
                    [](double v) { return std::isnan(v); }))
        throw SimError(std::string(spec.name) + " point '" + p.key +
                       "' holds a failed slice");
    return values;
}

uint64_t
SimSession::simulations() const
{
    uint64_t n = gemmSims_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[id, est] : estimators_)
        n += est->simulations();
    return n;
}

std::string
SimSession::failureReport() const
{
    return producer_->failureReport();
}

std::string
SimSession::sliceFailure(const SliceRequest &r) const
{
    const std::optional<SliceFailure> f =
        producer_->failure(casSliceKey(r));
    if (!f)
        return "";
    return f->point + ": " + f->reason + " (" +
           std::to_string(f->attempts) + " attempts)";
}

} // namespace save
