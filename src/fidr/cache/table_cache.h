/**
 * @file
 * Hash-PBN table cache (paper Sec 2.1.3, 4.3, 5.5).
 *
 * The full Hash-PBN table is multi-TB and lives on table SSDs; only a
 * slice is cached in host DRAM as 4 KB cache lines, one table bucket
 * per line.  Four data structures cooperate:
 *
 *  - the *index*: (bucket index on SSD) -> (cache line) map.  The
 *    baseline implements it as a software B+ tree on the CPU; FIDR
 *    moves it into the Cache HW-Engine's pipelined tree.  Both hide
 *    behind the CacheIndex interface so the systems share TableCache.
 *  - the *free list*: a circular buffer of unused line slots (the
 *    paper places it in FPGA-board DRAM, Sec 6.3);
 *  - the *LRU list*: eviction order, kept host-side in both systems
 *    (Sec 5.5: the host touches content, so it maintains recency);
 *  - the *lines*: the cached bucket contents in host DRAM, scanned by
 *    host software in both systems (Observation #4).
 *
 * TableCache is write-back: bucket mutations dirty the line and reach
 * the table SSD on eviction or writeback_all().
 *
 * Concurrency (Sec 5.5 / Observation #4): the paper's Cache HW-Engine
 * sustains many concurrent index operations because the tree is a
 * hardware pipeline that runs updates speculatively and replays them
 * on a conflict (Sec 6, Algorithms 1-2), not because the cache is
 * split.  The software cache is one structure over its whole budget
 * behind one mutex; FIDR drives it from one thread at a time (the
 * commit sequencer), and the mutex only keeps stats readers safe.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/tables/hash_pbn.h"

namespace fidr::cache {

/** Index mapping on-SSD bucket indexes to cache line slots. */
class CacheIndex {
  public:
    virtual ~CacheIndex() = default;

    virtual std::optional<std::size_t> find(BucketIndex bucket) = 0;
    virtual Status insert(BucketIndex bucket, std::size_t line) = 0;
    virtual void erase(BucketIndex bucket) = 0;
    virtual std::size_t size() const = 0;
};

/** Fixed-capacity circular buffer of free cache line slots. */
class FreeList {
  public:
    explicit FreeList(std::size_t capacity);

    void push(std::size_t line);
    std::optional<std::size_t> pop();

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

  private:
    std::vector<std::size_t> ring_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t count_ = 0;
};

/** Intrusive LRU list over cache line slots. */
class LruList {
  public:
    explicit LruList(std::size_t lines);

    /** Marks `line` most recently used (inserting it if absent). */
    void touch(std::size_t line);

    /** Removes and returns the least recently used line. */
    std::optional<std::size_t> pop_victim();

    /** Removes `line` from the list if present. */
    void remove(std::size_t line);

    std::size_t size() const { return count_; }

  private:
    static constexpr std::size_t kNil = SIZE_MAX;

    struct Links {
        std::size_t prev = kNil;
        std::size_t next = kNil;
        bool linked = false;
    };

    void unlink(std::size_t line);

    std::vector<Links> links_;
    std::size_t head_ = kNil;  ///< Most recently used.
    std::size_t tail_ = kNil;  ///< Least recently used.
    std::size_t count_ = 0;
};

/**
 * Victim-selection policy.  The paper uses plain LRU and notes
 * (Sec 8) that policy is orthogonal — prioritized/differentiated
 * policies slot in the same way; kFifo and kRandom exist for the
 * replacement-policy ablation bench.
 */
enum class EvictionPolicy {
    kLru,     ///< Least recently used (the paper's policy).
    kFifo,    ///< Insertion order; hits do not refresh recency.
    kRandom,  ///< Uniformly random resident line.
    /**
     * Two-class LRU (the Sec 8 multi-tenant suggestion): lines last
     * touched by a high-priority tenant are only evicted when no
     * low-priority victim exists, so a scanning tenant cannot flush a
     * latency-sensitive tenant's working set.
     */
    kPrioritizedLru,
};

/** Result of one cache access. */
struct CacheAccess {
    std::size_t line = 0;
    bool miss = false;
    bool evicted = false;
    bool evicted_dirty = false;
};

/** Hit/miss/eviction counters. */
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirty_evictions = 0;

    double
    hit_rate() const
    {
        const std::uint64_t total = hits + misses;
        return total > 0
                   ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
};

/** Write-back cache of Hash-PBN table buckets. */
class TableCache {
  public:
    /**
     * @param table  backing on-SSD table (fetch/flush target).
     * @param index  bucket->line index implementation (not owned).
     * @param lines  cache capacity in 4 KB lines (> 0).
     * @param policy victim selection policy (LRU in the paper).
     */
    TableCache(tables::HashPbnTable &table, CacheIndex &index,
               std::size_t lines,
               EvictionPolicy policy = EvictionPolicy::kLru);

    /**
     * Ensures the bucket is resident, evicting a victim when the free
     * list is empty.  The returned line stays valid until the next
     * access().  `high_priority` only matters under kPrioritizedLru,
     * where it pins the line into the protected class until a
     * low-priority access touches it.
     */
    Result<CacheAccess> access(BucketIndex bucket,
                               bool high_priority = false);

    /**
     * The cached bucket on `line` (must be valid/resident).  Content
     * ownership follows the access() contract: the caller that mapped
     * the line may read/mutate it without holding the cache lock.
     */
    tables::Bucket &bucket(std::size_t line);
    const tables::Bucket &bucket(std::size_t line) const;

    /** Marks `line` modified so eviction flushes it. */
    void mark_dirty(std::size_t line);

    /** Flushes every dirty line to the table SSD (lines stay cached). */
    Status writeback_all();

    /** Hit/miss/eviction counters (by value). */
    CacheStats stats() const;

    std::size_t lines() const { return lines_.size(); }

    /** The backing on-SSD table this cache fronts. */
    tables::HashPbnTable &table() { return table_; }
    const tables::HashPbnTable &table() const { return table_; }

    std::size_t resident() const;
    std::size_t free_lines() const;

    /** Cache capacity in bytes (the Table 5 "table cache size"). */
    std::uint64_t capacity_bytes() const
    { return lines_.size() * kBucketSize; }

    /**
     * Invariants: every resident line is indexed exactly once, free
     * and resident line sets partition the cache, and the LRU lists
     * cover exactly the resident lines.
     */
    Status validate() const;

  private:
    struct Line {
        tables::Bucket bucket;
        BucketIndex owner = 0;
        bool valid = false;
        bool dirty = false;
    };

    /** Caller holds mutex_. */
    Status evict_one();
    std::optional<std::size_t> pick_victim();

    tables::HashPbnTable &table_;
    CacheIndex &index_;
    EvictionPolicy policy_;
    std::vector<Line> lines_;
    FreeList free_;
    LruList lru_;
    LruList lru_high_;  ///< Protected class under kPrioritizedLru.
    CacheStats stats_;
    std::uint64_t victim_seed_ = 0x9E3779B97F4A7C15ull;
    mutable std::mutex mutex_;
};

}  // namespace fidr::cache
