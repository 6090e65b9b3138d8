/**
 * @file
 * Host thread pool for the embarrassingly-parallel slice fan-out (the
 * estimator's surface prefetch) and for the sessions that share it.
 *
 * Design: `parallelFor` is the only entry point. It queues one helper
 * task per worker on one shared queue; each helper, and the calling
 * thread, claims indices from one shared counter until none is left,
 * so a helper that starts late (or never) costs nothing. Because the
 * caller drains indices itself, nested use from inside a worker
 * cannot deadlock.
 *
 * Determinism: the pool only decides *where* an index runs, never what
 * it computes. Callers that need bit-identical output across thread
 * counts must make each index's work independent and write results
 * into per-index slots (as the estimator does).
 */

#ifndef SAVE_UTIL_THREAD_POOL_H
#define SAVE_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace save {

/** A fixed-size thread pool. */
class ThreadPool
{
  public:
    /** threads == 0 picks defaultThreads(). threads == 1 still spawns
     *  one worker, but parallelFor degrades to a serial loop on the
     *  calling thread plus that worker. */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * Run body(0..n-1) across the pool and the calling thread; returns
     * when all n indices completed. The first exception thrown by any
     * index is rethrown on the caller after the loop drains. Safe to
     * call from inside a pool task (the nested caller drains its own
     * indices).
     */
    void parallelFor(int64_t n, const std::function<void(int64_t)> &body);

    /** Process-wide shared pool, lazily built with defaultThreads(). */
    static ThreadPool &global();

    /** SAVE_THREADS env override, else std::thread::hardware_concurrency
     *  (min 1). */
    static int defaultThreads();

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_; ///< guarded by mu_
    bool stop_ = false;                       ///< guarded by mu_
    std::vector<std::thread> workers_;
};

} // namespace save

#endif // SAVE_UTIL_THREAD_POOL_H
