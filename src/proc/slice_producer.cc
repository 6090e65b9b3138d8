#include "proc/slice_producer.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "engine/engine.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace save {

namespace {

/** How long a single-flight follower waits for a live but slow
 *  owner before running the slice itself. A dead owner's flight ends
 *  the wait at once. */
constexpr int kFlightWaitMs = 60000;

std::string
label(const SliceRequest &r)
{
    const GemmConfig &g = r.gemm;
    std::ostringstream os;
    os << "slice mr=" << g.mr << " nr=" << g.nrVecs
       << " kSteps=" << g.kSteps << " tiles=" << g.tiles
       << " pattern=" << static_cast<int>(g.pattern)
       << " precision=" << static_cast<int>(g.precision)
       << " nbs=" << g.nbsSparsity << " bs=" << g.bsSparsity
       << " seed=" << g.seed << " cores=" << r.cores
       << " vpus=" << r.vpus << " save=" << (r.scfg.enabled ? 1 : 0);
    return os.str();
}

/** The record of a slice that failed for good. */
CasValue
poisoned()
{
    CasValue v;
    v.timeNs = std::numeric_limits<double>::quiet_NaN();
    return v;
}

} // namespace

void
SliceProducer::Fill::leave()
{
    std::lock_guard<std::mutex> lk(mu);
    if (--users == 0) {
        image = MemoryImage();
        work.clear();
    }
}

SliceProducer::SliceProducer(ResultStore &store, std::string isolation,
                             int max_retries, bool fail_fast,
                             const ProcOptions &proc)
    : store_(store), isolation_(std::move(isolation)),
      max_retries_(max_retries), fail_fast_(fail_fast)
{
    const FaultInjector &inj = FaultInjector::global();
    if (isolation_ != "process" && inj.enabled() &&
        inj.plan().anyProcessFaults())
        throw ConfigError(
            "SAVE_FAULT_INJECT crash/abort/hang/oom modes require "
            "--isolation=process (current isolation: " +
            isolation_ + ")");
    if (isolation_ == "process")
        pool_ = std::make_unique<WorkerPool>(proc);
}

SliceProducer::~SliceProducer() = default;

CasValue
SliceProducer::produce(const SliceRequest &r, std::atomic<uint64_t> &sims,
                       Fill *fill)
{
    // A slice that failed for good here is not run again: a point
    // retry or a repeated request gets its NaN at once, and a slice
    // that crashes every worker spends 1 + max_retries crashes of the
    // pool's budget in all.
    const CasKey key = casSliceKey(r);
    {
        std::lock_guard<std::mutex> lk(failures_mu_);
        if (failed_.count(key))
            return poisoned();
    }
    // A disabled store makes every caller the owner, finds nothing
    // and inserts nothing. A follower waits for the owner's insert; if
    // the owner dies or times out, it runs the slice itself (inserts
    // are idempotent, so a late duplicate is harmless). The owner
    // reads the store first: another process can have stored and
    // released this slice since the caller last looked.
    ResultStore::Flight flight = store_.beginFlight(key);
    CasValue v;
    if (flight.owner() ? store_.lookup(key, &v)
                       : store_.waitForResult(key, &v, kFlightWaitMs))
        return v;
    v = runWithRetry(r, key, fill);
    if (std::isfinite(v.timeNs)) {
        sims.fetch_add(1, std::memory_order_relaxed);
        store_.insert(key, v);
    }
    return v;
}

CasValue
SliceProducer::runOnce(const SliceRequest &r, int attempt, Fill *fill)
{
    if (pool_ && !pool_->degraded()) {
        try {
            return pool_->run(r, attempt);
        } catch (const WorkerError &e) {
            if (!pool_->degraded())
                throw;
            // The pool has drained past its crash budget: finish the
            // slice in-process instead of failing it. This is the
            // graceful-degradation path, so it does not burn one of
            // the slice's own retries.
            SAVE_WARN("slice falling back in-process after pool "
                      "degradation: ", e.what());
        }
    }
    const Engine eng(r.mcfg, r.scfg);
    if (!fill)
        return toCasValue(eng.runGemm(r.gemm, r.cores, r.vpus));
    MemoryImage image;
    std::vector<GemmWorkload> work;
    {
        std::lock_guard<std::mutex> lk(fill->mu);
        if (fill->work.empty()) {
            // A fill that throws leaves the share empty for the next
            // attempt.
            MemoryImage fresh;
            std::vector<GemmWorkload> placed =
                fillShardedGemm(r.gemm, fresh, r.cores);
            fill->image = std::move(fresh);
            fill->work = std::move(placed);
        }
        image = fill->image;
        work = fill->work;
    }
    return toCasValue(eng.runFilled(std::move(image), work, r.vpus));
}

CasValue
SliceProducer::runWithRetry(const SliceRequest &r, const CasKey &key,
                            Fill *fill)
{
    const uint64_t site = sliceFaultSite(r);
    const int attempts = 1 + max_retries_;
    for (int a = 1;; ++a) {
        try {
            FaultInjector::global().maybeFailSlice(site);
            return runOnce(r, a, fill);
        } catch (const ConfigError &) {
            // A request the engine refuses (say, a core or VPU count
            // out of range) fails the same way on every attempt: it
            // is the caller's error, not a failed slice.
            throw;
        } catch (const std::exception &e) {
            if (a < attempts) {
                SAVE_WARN("retrying ", label(r), " after attempt ", a,
                          "/", attempts, " failed: ", e.what());
                continue;
            }
            if (fail_fast_)
                throw;
            SliceFailure f;
            f.point = label(r);
            f.reason = e.what();
            f.attempts = attempts;
            SAVE_WARN(f.point, " failed permanently after ", attempts,
                      " attempts: ", f.reason);
            {
                std::lock_guard<std::mutex> lk(failures_mu_);
                failed_.emplace(key, std::move(f));
            }
            return poisoned();
        }
    }
}

std::vector<SliceFailure>
SliceProducer::failures() const
{
    std::lock_guard<std::mutex> lk(failures_mu_);
    std::vector<SliceFailure> out;
    for (const auto &[key, f] : failed_)
        out.push_back(f);
    return out;
}

std::optional<SliceFailure>
SliceProducer::failure(const CasKey &key) const
{
    std::lock_guard<std::mutex> lk(failures_mu_);
    const auto it = failed_.find(key);
    if (it == failed_.end())
        return std::nullopt;
    return it->second;
}

std::string
SliceProducer::failureReport() const
{
    std::ostringstream os;
    {
        std::lock_guard<std::mutex> lk(failures_mu_);
        if (!failed_.empty()) {
            os << failed_.size() << " slice(s) failed permanently:\n";
            for (const auto &[key, f] : failed_)
                os << "  " << f.point << ": " << f.reason << " ("
                   << f.attempts << " attempts)\n";
        }
    }
    if (pool_ && pool_->crashes() > 0)
        os << pool_->report() << "\n";
    return os.str();
}

} // namespace save
