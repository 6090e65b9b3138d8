#include "serve/session.h"

#include <algorithm>
#include <cmath>

#include "cache/cas_key.h"
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
}

SimSession::~SimSession() = default;

KernelResult
SimSession::runGemm(const Engine &eng, const GemmConfig &g, int cores,
                    int vpus)
{
    const CasKey key{casHashConfig(eng.machine(), eng.save(), 0),
                     casGemmWorkload(g, cores, vpus)};
    CasValue v;
    if (store_->lookup(key, &v))
        return toKernelResult(v);
    KernelResult kr = eng.runGemm(g, cores, vpus);
    gemmSims_.fetch_add(1, std::memory_order_relaxed);
    if (std::isfinite(kr.timeNs))
        store_->insert(key, toCasValue(kr));
    return kr;
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
    eo.isolation = opt_.runtime.resolveIsolation();
    eo.maxRetries = opt_.maxRetries;
    eo.failFast = opt_.failFast;
    eo.proc = opt_.proc;
    eo.proc.workerBin = opt_.runtime.workerBin;
    // A one-thread pool still runs two threads (the caller joins
    // parallelFor), so one thread gets no pool: strictly serial.
    ThreadPool *pool = pool_->size() > 1 ? pool_ : nullptr;
    eo.threads = pool ? 0 : 1;
    eo.validate();

    auto est = std::make_unique<TrainingEstimator>(opt_.mcfg, opt_.scfg,
                                                   eo, pool, store_);
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
    if (std::none_of(values.begin(), values.end(),
                     [](double v) { return std::isnan(v); }))
        return values;

    std::string why = std::string(spec.name) + " point '" + p.key +
                      "' holds a failed slice";
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = estimators_.find(knobId(knobs));
        if (it != estimators_.end()) {
            const std::vector<SliceFailure> f = it->second->failures();
            if (!f.empty())
                why += " (first: " + f.front().point + ": " +
                       f.front().reason + ")";
        }
    }
    throw SimError(why);
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
    std::string report;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[id, est] : estimators_)
        report += est->failureReport();
    return report;
}

} // namespace save
