/**
 * @file
 * Fixed-size worker pool for the parallel data plane.
 *
 * The paper's accelerators are arrays of identical lanes (Table 4
 * instantiates multiple SHA-256 cores per NIC; the Compression Engine
 * packs several LZ cores).  This pool is the software stand-in: a
 * fixed set of worker threads and a `parallel_for` that shards an
 * index range across them, one contiguous shard per lane.  There is
 * deliberately no work stealing and no dynamic chunking — the shard a
 * lane computes is a pure function of (range size, lane count), so a
 * run is reproducible and easy to reason about under TSan.
 *
 * Determinism contract: `parallel_for` runs the caller's functor on
 * worker threads and on the caller itself; everything order-sensitive
 * (ledger billing, DMA accounting, stats) must happen on the calling
 * thread after the call returns.  The call blocks until every shard
 * finished, so the caller observes fully joined state.
 *
 * One pool serves every fan-out of a FidrSystem (NIC hashing, the
 * write pipeline's hash tasks, compression, read fetch lanes), so a
 * `parallel_for` may be called from inside a `submit()`ted task on the
 * same pool.  That is safe because the caller claims and runs shards
 * from the same per-call counter its helper tasks use: if every worker
 * is busy, the caller simply runs all the shards itself.
 */
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fidr {

/** Fixed worker pool; see file comment for the determinism contract. */
class ThreadPool {
  public:
    /**
     * Spawns `workers` threads (at least 1).  Workers idle on a queue
     * until parallel_for() or submit() hands them shards.
     */
    explicit ThreadPool(std::size_t workers);

    /** Graceful shutdown: drains queued work, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t workers() const { return threads_.size(); }

    /**
     * Splits [0, n) into up to workers() contiguous shards and runs
     * `body(begin, end)` once per shard.  The caller and up to
     * workers() - 1 queued helper tasks claim shards from one per-call
     * counter, so the call completes even when every worker is busy
     * (or is the caller).  Shard boundaries are a pure function of
     * (n, workers()).  Blocks until all shards completed.  If any
     * shard throws, the first exception (in shard order as observed)
     * is rethrown on the calling thread after the join — remaining
     * shards still run to completion, so the pool stays reusable.
     * n == 0 is a no-op; n == 1 or workers() == 1 runs inline on the
     * caller.
     */
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t, std::size_t)>
                          &body);

    /**
     * Queues one task for asynchronous execution on a worker thread
     * and returns immediately.  Unlike parallel_for, submit() never
     * runs the task inline — the write pipeline relies on submitted
     * work proceeding concurrently with the caller even on one-core
     * hosts (the OS timeshares the lanes).  Tasks start in submission
     * order; exceptions must be handled inside the task.
     */
    void submit(std::function<void()> task);

    /**
     * Lane count to use when a config knob is 0 ("auto"): the hardware
     * concurrency, never less than 1.
     */
    static std::size_t hardware_lanes();

  private:
    void worker_loop();

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
};

}  // namespace fidr
