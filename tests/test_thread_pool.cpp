// ThreadPool: shard coverage, exception propagation, reuse after a
// drained run, nested and starved fork-joins, and shutdown — the
// properties the parallel data plane (one pool per FidrSystem serving
// NIC hashing, pipeline hash tasks, compression and read lanes)
// relies on.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fidr/common/thread_pool.h"

namespace fidr {
namespace {

TEST(ThreadPool, HardwareLanesIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardware_lanes(), 1u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ShardsAreContiguousAndOrdered)
{
    // Lane s must own a contiguous range and ranges must tile [0, n):
    // the NIC relies on this to mirror per-core slices of NIC DRAM.
    ThreadPool pool(3);
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> shards;
    pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        shards.emplace_back(begin, end);
    });
    std::sort(shards.begin(), shards.end());
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards.front().first, 0u);
    EXPECT_EQ(shards.back().second, 100u);
    for (std::size_t s = 1; s < shards.size(); ++s)
        EXPECT_EQ(shards[s].first, shards[s - 1].second);
}

TEST(ThreadPool, PropagatesExceptionsToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [](std::size_t begin, std::size_t) {
                              if (begin >= 50)
                                  throw std::runtime_error("lane fault");
                          }),
        std::runtime_error);
}

TEST(ThreadPool, ReusableAfterExceptionAndDrain)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(
                     10, [](std::size_t, std::size_t) {
                         throw std::runtime_error("boom");
                     }),
                 std::runtime_error);

    // The pool must still process work correctly afterwards — and
    // across many successive drained runs.
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(64, [&](std::size_t begin, std::size_t end) {
            std::size_t local = 0;
            for (std::size_t i = begin; i < end; ++i)
                local += i;
            sum.fetch_add(local, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 64u * 63u / 2);
    }
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::thread::id seen;
    pool.parallel_for(8, [&](std::size_t, std::size_t) {
        seen = std::this_thread::get_id();
    });
    EXPECT_EQ(seen, caller);
}

using Shard = std::pair<std::size_t, std::size_t>;

/** 10 indices over 4 workers: 3, 3, 2, 2 — first r shards one larger. */
void
expect_ten_over_four(std::vector<Shard> shards)
{
    std::sort(shards.begin(), shards.end());
    ASSERT_EQ(shards.size(), 4u);
    EXPECT_EQ(shards[0], (Shard{0, 3}));
    EXPECT_EQ(shards[1], (Shard{3, 6}));
    EXPECT_EQ(shards[2], (Shard{6, 8}));
    EXPECT_EQ(shards[3], (Shard{8, 10}));
}

TEST(ThreadPool, SingleLaneHostKeepsShardBoundaries)
{
    // Whichever thread claims a shard, the tiling is a pure function
    // of (n, workers()): per-shard tracing and shard-local state
    // depend on it.
    ThreadPool pool(4);
    std::mutex mu;
    std::vector<Shard> shards;
    pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        shards.emplace_back(begin, end);
    });
    expect_ten_over_four(shards);
}

/** Count-down latch plus a release gate for blocking pool workers. */
class Gate {
  public:
    void
    arrive()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++arrived_;
        cv_.notify_all();
    }

    void
    wait_arrived(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return arrived_ >= n; });
    }

    void
    open()
    {
        std::lock_guard<std::mutex> lock(mu_);
        open_ = true;
        cv_.notify_all();
    }

    void
    wait_open()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return open_; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t arrived_ = 0;
    bool open_ = false;
};

TEST(ThreadPool, ParallelForInsideSubmittedTaskCompletes)
{
    // A pool worker calling parallel_for on its own pool — the write
    // pipeline's hash task hashing its batch — must not deadlock.
    ThreadPool pool(4);
    std::atomic<std::size_t> sum{0};
    Gate done;
    pool.submit([&] {
        pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                sum.fetch_add(i, std::memory_order_relaxed);
        });
        done.arrive();
    });
    done.wait_arrived(1);
    EXPECT_EQ(sum.load(), 100u * 99u / 2);
}

TEST(ThreadPool, NestedParallelForCompletesWithEveryWorkerBusy)
{
    // Every worker runs a task that calls parallel_for; no worker is
    // left to run a helper, so each caller must run all its shards.
    constexpr std::size_t kWorkers = 4;
    ThreadPool pool(kWorkers);
    Gate started;
    Gate done;
    std::vector<std::atomic<std::size_t>> sums(kWorkers);
    for (std::size_t t = 0; t < kWorkers; ++t) {
        pool.submit([&, t] {
            // Hold every worker until all of them are inside a task.
            started.arrive();
            started.wait_arrived(kWorkers);
            pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i)
                    sums[t].fetch_add(i + 1, std::memory_order_relaxed);
            });
            done.arrive();
        });
    }
    done.wait_arrived(kWorkers);
    for (std::size_t t = 0; t < kWorkers; ++t)
        EXPECT_EQ(sums[t].load(), 55u) << "task " << t;
}

TEST(ThreadPool, CallerRunsEveryShardWhileWorkersAreBlocked)
{
    // The executor's compress call must never wait behind queued work:
    // with every worker blocked in a submitted task, the caller claims
    // and runs all the shards itself, with the usual tiling.
    constexpr std::size_t kWorkers = 4;
    ThreadPool pool(kWorkers);
    Gate blocked;
    for (std::size_t t = 0; t < kWorkers; ++t) {
        pool.submit([&] {
            blocked.arrive();
            blocked.wait_open();
        });
    }
    blocked.wait_arrived(kWorkers);

    const auto caller = std::this_thread::get_id();
    std::mutex mu;
    std::vector<Shard> shards;
    std::vector<std::thread::id> ids;
    pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        shards.emplace_back(begin, end);
        ids.push_back(std::this_thread::get_id());
    });
    blocked.open();
    expect_ten_over_four(shards);
    for (const std::thread::id id : ids)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ExceptionStillRunsRemainingShards)
{
    // A throwing shard does not cancel its siblings, whether a helper
    // or the caller claimed them.
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallel_for(4,
                          [&](std::size_t begin, std::size_t) {
                              ran.fetch_add(1, std::memory_order_relaxed);
                              if (begin == 0)
                                  throw std::runtime_error("lane fault");
                          }),
        std::runtime_error);
    EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, SubmitRunsTaskOnWorkerThread)
{
    // submit() must never run inline — the write pipeline counts on
    // submitted hash work proceeding off the caller's thread even on
    // one-core hosts.
    ThreadPool pool(2);
    const auto caller = std::this_thread::get_id();
    std::mutex mu;
    std::condition_variable done;
    std::size_t completed = 0;
    std::thread::id seen;
    pool.submit([&] {
        std::lock_guard<std::mutex> lock(mu);
        seen = std::this_thread::get_id();
        ++completed;
        done.notify_all();
    });
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return completed == 1; });
    EXPECT_NE(seen, caller);
}

TEST(ThreadPool, SubmitPreservesOrderOnSingleWorker)
{
    // Tasks run in submission order per worker; with one worker that
    // means globally FIFO — what keeps a depth-1-equivalent pipeline
    // schedule reproducible.
    ThreadPool pool(1);
    constexpr int kTasks = 100;
    std::mutex mu;
    std::condition_variable done;
    std::vector<int> order;
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&, i] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(i);
            if (order.size() == kTasks)
                done.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return order.size() == kTasks; });
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, DestructorDrainsSubmittedTasks)
{
    // Graceful shutdown: everything submitted before destruction runs.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ConstructDestructRepeatedly)
{
    // Graceful shutdown must not hang or leak when no work (or little
    // work) was ever submitted.
    for (int i = 0; i < 20; ++i) {
        ThreadPool pool(3);
        if (i % 2 == 0)
            pool.parallel_for(4, [](std::size_t, std::size_t) {});
    }
}

}  // namespace
}  // namespace fidr
