#include "proc/worker_pool.h"

#include <algorithm>
#include <csignal>
#include <sstream>

#include "util/error.h"
#include "util/logging.h"

namespace save {

namespace {

void
ignoreSigpipeOnce()
{
    static bool done = [] {
        std::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)done;
}

} // namespace

void
ProcOptions::validate() const
{
    if (workers < 0)
        throw ConfigError("--workers must be >= 0 (got " +
                          std::to_string(workers) + ")");
    if (sliceTimeoutMs <= 0)
        throw ConfigError("--worker-timeout-ms must be > 0 (got " +
                          std::to_string(sliceTimeoutMs) + ")");
    if (maxWorkerCrashes < 1)
        throw ConfigError("--max-worker-crashes must be >= 1 (got " +
                          std::to_string(maxWorkerCrashes) + ")");
    if (maxSlicesPerWorker < 0)
        throw ConfigError("--worker-max-slices must be >= 0 (got " +
                          std::to_string(maxSlicesPerWorker) + ")");
    if (rssCapMb < 0)
        throw ConfigError("--worker-rss-mb must be >= 0 (got " +
                          std::to_string(rssCapMb) + ")");
    if (backoffBaseMs <= 0 || backoffMaxMs < backoffBaseMs)
        throw ConfigError(
            "worker backoff must satisfy 0 < base <= max (got base " +
            std::to_string(backoffBaseMs) + ", max " +
            std::to_string(backoffMaxMs) + ")");
}

WorkerPool::WorkerPool(ProcOptions opts, WireSessionInit init)
    : opts_(opts), init_(init)
{
    opts_.validate();
    ignoreSigpipeOnce();
    bin_ = resolveWorkerBin(opts_.workerBin);
    int n = std::max(1, opts_.workers);
    slots_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        slots_[static_cast<size_t>(i)].worker =
            std::make_unique<Worker>(i, bin_, opts_.rssCapMb);
}

WorkerPool::~WorkerPool()
{
    shutdown();
}

int
WorkerPool::checkout()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (degraded_ || shut_down_)
            throw WorkerError(
                WorkerError::Kind::Crash,
                "worker pool " +
                    std::string(degraded_ ? "degraded" : "shut down") +
                    " (" + std::to_string(crashes_) + " of " +
                    std::to_string(opts_.maxWorkerCrashes) +
                    " crash budget spent)");
        auto now = std::chrono::steady_clock::now();
        auto earliest = std::chrono::steady_clock::time_point::max();
        int pick = -1;
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].busy)
                continue;
            if (slots_[i].notBefore <= now) {
                pick = static_cast<int>(i);
                break;
            }
            earliest = std::min(earliest, slots_[i].notBefore);
        }
        if (pick >= 0) {
            slots_[static_cast<size_t>(pick)].busy = true;
            return pick;
        }
        // Either every slot is busy, or the free ones are all backing
        // off; sleep until something changes.
        if (earliest == std::chrono::steady_clock::time_point::max())
            cv_.wait(lk);
        else
            cv_.wait_until(lk, earliest);
    }
}

void
WorkerPool::release(int idx, bool crashed)
{
    Worker *recycle = nullptr;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Slot &slot = slots_[static_cast<size_t>(idx)];
        slot.busy = false;
        if (crashed) {
            ++crashes_;
            ++respawns_;
            // Exponential backoff with deterministic jitter: doubles
            // per consecutive crash of this slot, capped, plus up to
            // 25% skew so slots crashing in lockstep do not respawn
            // in lockstep.
            int streak =
                std::max(1, slot.worker->consecutiveCrashes());
            int64_t delay = opts_.backoffBaseMs;
            for (int i = 1;
                 i < streak && delay < opts_.backoffMaxMs; ++i)
                delay *= 2;
            delay = std::min<int64_t>(delay, opts_.backoffMaxMs);
            uint64_t mixed =
                (static_cast<uint64_t>(idx) * 0x9e3779b97f4a7c15ull) ^
                (static_cast<uint64_t>(crashes_) * 0xbf58476d1ce4e5b9ull);
            delay += static_cast<int64_t>(mixed % 1000) * delay / 4000;
            slot.notBefore = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(delay);
            if (crashes_ >= opts_.maxWorkerCrashes && !degraded_) {
                degraded_ = true;
                SAVE_WARN("worker pool: crash budget exhausted (",
                          crashes_, " process failures); draining and "
                          "degrading to in-process execution");
                // Busy slots are owned by the thread blocked inside
                // Worker::run(); kill()ing them here would close the
                // fds that thread is reading and reset its pid. Only
                // signal those children (interrupt) — the owner sees
                // EOF and closes/reaps in its own error path. Idle
                // slots are unowned and safe to reap in place.
                for (auto &s : slots_) {
                    if (!s.worker)
                        continue;
                    if (s.busy)
                        s.worker->interrupt();
                    else
                        s.worker->kill();
                }
            }
        } else {
            slot.notBefore =
                std::chrono::steady_clock::time_point::min();
            if (opts_.maxSlicesPerWorker > 0 && slot.worker->alive() &&
                slot.worker->slicesDone() >= opts_.maxSlicesPerWorker) {
                SAVE_INFORM("worker pool: recycling slot ", idx,
                            " after ", slot.worker->slicesDone(),
                            " slices");
                // Drain outside the lock: the BYE wait can block up
                // to 500 ms and must not stall every other thread's
                // checkout/release. Keep the slot checked out while
                // we drain so nobody else touches the Worker.
                slot.busy = true;
                recycle = slot.worker.get();
            }
        }
        cv_.notify_all();
    }
    if (recycle) {
        recycle->shutdown();
        std::lock_guard<std::mutex> lk(mu_);
        slots_[static_cast<size_t>(idx)].busy = false;
        ++respawns_;
        cv_.notify_all();
    }
}

CasValue
WorkerPool::runSlice(const SliceKey &key, uint64_t, int attempt)
{
    return run(sliceRequest(init_.mcfg, init_.scfg, key, init_.tiles,
                            init_.cores, init_.seed),
               attempt);
}

CasValue
WorkerPool::run(const SliceRequest &r, int attempt)
{
    int idx = checkout();
    Worker &w = *slots_[static_cast<size_t>(idx)].worker;
    try {
        CasValue res = w.run(r, attempt, opts_.sliceTimeoutMs);
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++slices_run_;
        }
        release(idx, /*crashed=*/false);
        return res;
    } catch (const WorkerError &) {
        release(idx, /*crashed=*/true);
        throw;
    } catch (...) {
        // Clean ERR frame from a healthy worker: no crash charged.
        release(idx, /*crashed=*/false);
        throw;
    }
}

bool
WorkerPool::degraded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return degraded_;
}

void
WorkerPool::shutdown()
{
    std::vector<Worker *> idle;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (shut_down_)
            return;
        shut_down_ = true;
        for (auto &s : slots_) {
            if (!s.worker)
                continue;
            // Same ownership rule as degradation: a busy slot's fds
            // belong to the thread that checked it out, so only
            // signal its child; that thread closes and reaps on EOF.
            if (s.busy)
                s.worker->interrupt();
            else
                idle.push_back(s.worker.get());
        }
        cv_.notify_all();
    }
    // shut_down_ makes checkout() throw, so the idle slots can no
    // longer be claimed: this thread owns them and can run the
    // blocking BYE drain without holding the pool lock.
    for (Worker *w : idle)
        w->shutdown();
}

int
WorkerPool::crashes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return crashes_;
}

uint64_t
WorkerPool::slicesRun() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return slices_run_;
}

int
WorkerPool::respawns() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return respawns_;
}

std::string
WorkerPool::report() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ostringstream os;
    os << "worker pool: " << slots_.size() << " worker(s), "
       << slices_run_ << " slice(s) out-of-process, " << crashes_
       << " process failure(s), " << respawns_ << " respawn(s)";
    if (degraded_)
        os << "; DEGRADED to in-process execution after exhausting the "
           << opts_.maxWorkerCrashes << "-crash budget";
    return os.str();
}

} // namespace save
