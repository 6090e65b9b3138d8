#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/runtime_options.h"

namespace save {

ThreadPool::ThreadPool(int threads)
{
    int n = threads > 0 ? threads : defaultThreads();
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping, and every queued task has run
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(int64_t n,
                        const std::function<void(int64_t)> &body)
{
    if (n <= 0)
        return;

    struct Loop
    {
        std::atomic<int64_t> next{0};
        std::atomic<int64_t> done{0};
        int64_t total;
        std::mutex mu;
        std::condition_variable cv;
        std::exception_ptr error;
    };
    auto loop = std::make_shared<Loop>();
    loop->total = n;

    auto drain = [loop, &body] {
        int64_t i;
        while ((i = loop->next.fetch_add(1, std::memory_order_relaxed)) <
               loop->total) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(loop->mu);
                if (!loop->error)
                    loop->error = std::current_exception();
            }
            if (loop->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                loop->total) {
                std::lock_guard<std::mutex> lk(loop->mu);
                loop->cv.notify_all();
            }
        }
    };

    // One helper task per worker; each loops over the shared index
    // counter, so helpers that start late (or never) cost nothing.
    int64_t helpers =
        std::min<int64_t>(static_cast<int64_t>(size()), n - 1);
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (int64_t h = 0; h < helpers; ++h)
            tasks_.push_back(drain);
    }
    for (int64_t h = 0; h < helpers; ++h)
        cv_.notify_one();

    drain(); // the caller participates — nested calls cannot deadlock

    std::unique_lock<std::mutex> lk(loop->mu);
    loop->cv.wait(lk, [&] {
        return loop->done.load(std::memory_order_acquire) == loop->total;
    });
    if (loop->error)
        std::rethrow_exception(loop->error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreads());
    return pool;
}

int
ThreadPool::defaultThreads()
{
    return RuntimeOptions::fromEnv().resolveThreads();
}

} // namespace save
