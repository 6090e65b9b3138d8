#include "serve/session.h"

#include <algorithm>

#include "util/error.h"

namespace save {

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
        // The snapshot is authoritative: resolve "none"/"-" here
        // instead of via ResultStore::resolveDir, which would consult
        // the environment again.
        ResultStore::Options so;
        if (opt_.runtime.cacheDir != "none" &&
            opt_.runtime.cacheDir != "-")
            so.dir = opt_.runtime.cacheDir;
        so.maxBytes = opt_.runtime.cacheMaxBytes();
        owned_store_ = std::make_unique<ResultStore>(so);
        store_ = owned_store_.get();
    }
}

SimSession::~SimSession() = default;

KernelResult
SimSession::runGemm(const GemmConfig &g, int cores, int vpus)
{
    return memoRunGemm(*store_, Engine(opt_.mcfg, opt_.scfg), g, cores,
                       vpus);
}

TrainingEstimator &
SimSession::estimatorFor(const Fig14Knobs &k)
{
    const std::string id =
        std::to_string(k.gridStep) + "/" + std::to_string(k.kSteps) +
        "/" + std::to_string(k.tiles) + "/" + std::to_string(k.cores) +
        "/" + std::to_string(k.seed);
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
    eo.proc.workerBin = opt_.runtime.workerBin;
    eo.validate();

    auto est = std::make_unique<TrainingEstimator>(
        opt_.mcfg, opt_.scfg, eo, pool_, store_);
    TrainingEstimator &ref = *est;
    estimators_.emplace(id, std::move(est));
    return ref;
}

NetResult
SimSession::runFig14Point(const Fig14Knobs &knobs, int index)
{
    const std::vector<Fig14Point> &pts = fig14Points();
    if (index < 0 || index >= static_cast<int>(pts.size()))
        throw ConfigError("fig14 point index " + std::to_string(index) +
                          " out of range [0, " +
                          std::to_string(pts.size()) + ")");
    const Fig14Point &p = pts[static_cast<size_t>(index)];
    TrainingEstimator &est = estimatorFor(knobs);
    return p.training ? est.training(p.entry.net, p.entry.prec)
                      : est.inference(p.entry.net, p.entry.prec);
}

uint64_t
SimSession::simulations() const
{
    uint64_t n = 0;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[id, est] : estimators_)
        n += est->simulations();
    return n;
}

uint64_t
SimSession::sliceFailures() const
{
    uint64_t n = 0;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[id, est] : estimators_)
        n += est->failures().size();
    return n;
}

} // namespace save
