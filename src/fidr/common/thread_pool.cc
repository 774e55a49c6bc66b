#include "fidr/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "fidr/common/status.h"

namespace fidr {
namespace {

/**
 * State of one parallel_for call, shared by the caller and its helper
 * tasks.  Held through a shared_ptr: a helper that dequeues after the
 * call returned finds every shard claimed and never touches `body`.
 */
struct ForkJoin {
    using Body = std::function<void(std::size_t, std::size_t)>;

    ForkJoin(const Body &body, std::size_t n, std::size_t shards)
        : body(body), shards(shards), q(n / shards), r(n % shards)
    {}

    /** Claims and runs shards until none is left unclaimed. */
    void
    drain()
    {
        for (;;) {
            const std::size_t s = next.fetch_add(1);
            if (s >= shards)
                return;
            // Shard s covers [s*q + min(s,r), ...) where q = n/shards,
            // r = n%shards — the first r shards get one extra index.
            // Purely a function of (n, shards), so deterministic.
            const std::size_t begin = s * q + std::min(s, r);
            const std::size_t end = begin + q + (s < r ? 1 : 0);
            std::exception_ptr e;
            try {
                body(begin, end);
            } catch (...) {
                e = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (e && !error)
                error = std::move(e);
            if (++finished == shards)
                done.notify_all();
        }
    }

    /** Blocks until every shard finished (claimed shards all run). */
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        done.wait(lock, [this] { return finished == shards; });
    }

    const Body &body;
    const std::size_t shards;
    const std::size_t q;
    const std::size_t r;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t finished = 0;
    std::exception_ptr error;
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers)
{
    workers = std::max<std::size_t>(workers, 1);
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            // Graceful shutdown: drain what was queued before stopping.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)> &body)
{
    if (n == 0)
        return;
    const std::size_t shards = std::min(n, workers());
    if (shards <= 1) {
        body(0, n);
        return;
    }

    // The caller is one lane; shards - 1 helpers join it if a worker
    // is free.  Whoever claims a shard first runs it, so a busy pool
    // (or a caller that is itself a pool worker) never deadlocks.
    const auto join = std::make_shared<ForkJoin>(body, n, shards);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FIDR_CHECK(!stopping_);
        for (std::size_t s = 1; s < shards; ++s)
            queue_.push_back([join] { join->drain(); });
    }
    work_ready_.notify_all();
    join->drain();
    join->wait();
    if (join->error)
        std::rethrow_exception(join->error);
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FIDR_CHECK(!stopping_);
        queue_.push_back(std::move(task));
    }
    work_ready_.notify_one();
}

std::size_t
ThreadPool::hardware_lanes()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

}  // namespace fidr
