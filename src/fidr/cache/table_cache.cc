#include "fidr/cache/table_cache.h"

#include "fidr/fault/failpoint.h"
#include "fidr/obs/trace.h"

namespace fidr::cache {

FreeList::FreeList(std::size_t capacity) : ring_(capacity + 1, 0) {}

void
FreeList::push(std::size_t line)
{
    FIDR_CHECK(count_ < ring_.size());
    ring_[tail_] = line;
    tail_ = (tail_ + 1) % ring_.size();
    ++count_;
}

std::optional<std::size_t>
FreeList::pop()
{
    if (count_ == 0)
        return std::nullopt;
    const std::size_t line = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return line;
}

LruList::LruList(std::size_t lines) : links_(lines) {}

void
LruList::unlink(std::size_t line)
{
    Links &l = links_[line];
    FIDR_CHECK(l.linked);
    if (l.prev != kNil)
        links_[l.prev].next = l.next;
    else
        head_ = l.next;
    if (l.next != kNil)
        links_[l.next].prev = l.prev;
    else
        tail_ = l.prev;
    l = Links{};
    --count_;
}

void
LruList::touch(std::size_t line)
{
    FIDR_CHECK(line < links_.size());
    if (links_[line].linked)
        unlink(line);
    Links &l = links_[line];
    l.linked = true;
    l.prev = kNil;
    l.next = head_;
    if (head_ != kNil)
        links_[head_].prev = line;
    head_ = line;
    if (tail_ == kNil)
        tail_ = line;
    ++count_;
}

std::optional<std::size_t>
LruList::pop_victim()
{
    if (tail_ == kNil)
        return std::nullopt;
    const std::size_t line = tail_;
    unlink(line);
    return line;
}

void
LruList::remove(std::size_t line)
{
    FIDR_CHECK(line < links_.size());
    if (links_[line].linked)
        unlink(line);
}

TableCache::TableCache(tables::HashPbnTable &table, CacheIndex &index,
                       std::size_t lines, EvictionPolicy policy)
    : table_(table), index_(index), policy_(policy), lines_(lines),
      free_(lines), lru_(lines), lru_high_(lines)
{
    FIDR_CHECK(lines > 0);
    for (std::size_t i = 0; i < lines; ++i)
        free_.push(i);
}

std::optional<std::size_t>
TableCache::pick_victim()
{
    if (policy_ == EvictionPolicy::kPrioritizedLru) {
        // Low-priority lines first; the protected class is touched
        // only when nothing else remains.
        if (const auto victim = lru_.pop_victim())
            return victim;
        return lru_high_.pop_victim();
    }
    if (policy_ != EvictionPolicy::kRandom)
        return lru_.pop_victim();  // LRU and FIFO share the list.

    // Random: splitmix64 step over the resident set.
    victim_seed_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = victim_seed_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const std::size_t count = lines_.size();
    const std::size_t candidate = z % count;
    for (std::size_t step = 0; step < count; ++step) {
        const std::size_t line = (candidate + step) % count;
        if (lines_[line].valid) {
            lru_.remove(line);
            return line;
        }
    }
    return std::nullopt;
}

tables::Bucket &
TableCache::bucket(std::size_t line)
{
    FIDR_CHECK(line < lines_.size() && lines_[line].valid);
    return lines_[line].bucket;
}

const tables::Bucket &
TableCache::bucket(std::size_t line) const
{
    FIDR_CHECK(line < lines_.size() && lines_[line].valid);
    return lines_[line].bucket;
}

void
TableCache::mark_dirty(std::size_t line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    FIDR_CHECK(line < lines_.size() && lines_[line].valid);
    lines_[line].dirty = true;
}

Status
TableCache::evict_one()
{
    const auto victim = pick_victim();
    if (!victim)
        return Status::internal("no evictable cache line");
    Line &line = lines_[*victim];
    FIDR_CHECK(line.valid);
    if (line.dirty) {
        FIDR_TPOINT(obs::Tpoint::kCacheWriteback, line.owner,
                    kBucketSize);
        Status flushed =
            fault::as_status(FIDR_FAULT_EVAL(fault::Site::kCacheWriteback),
                             fault::Site::kCacheWriteback);
        if (flushed.is_ok())
            flushed = table_.write_bucket(line.owner, line.bucket);
        if (!flushed.is_ok()) {
            // Failed flush: the line stays resident (and dirty), so no
            // update is lost; re-link it so the LRU still covers every
            // resident line.  It lands at MRU, which also keeps a
            // persistently failing victim from being retried on every
            // miss.
            lru_.touch(*victim);
            return flushed;
        }
        ++stats_.dirty_evictions;
    }
    ++stats_.evictions;
    index_.erase(line.owner);
    line = Line{};
    free_.push(*victim);
    return Status::ok();
}

Result<CacheAccess>
TableCache::access(BucketIndex bucket_index, bool high_priority)
{
    CacheAccess out;
    std::lock_guard<std::mutex> lock(mutex_);

    const auto touch = [this, high_priority](std::size_t line) {
        if (policy_ == EvictionPolicy::kPrioritizedLru) {
            // The line follows the class of its latest toucher.
            lru_.remove(line);
            lru_high_.remove(line);
            (high_priority ? lru_high_ : lru_).touch(line);
        } else {
            lru_.touch(line);
        }
    };

    if (const auto line = index_.find(bucket_index)) {
        ++stats_.hits;
        // FIFO deliberately does not refresh recency on a hit.
        if (policy_ != EvictionPolicy::kFifo &&
            policy_ != EvictionPolicy::kRandom) {
            touch(*line);
        }
        out.line = *line;
        return out;
    }

    ++stats_.misses;
    out.miss = true;

    // Injected fetch fault before any structural mutation, so a failed
    // access leaves the cache exactly as it was.
    FIDR_FAULT_RETURN_IF(fault::Site::kCacheFetch);

    if (free_.empty()) {
        const std::uint64_t dirty_before = stats_.dirty_evictions;
        const Status evicted = evict_one();
        if (!evicted.is_ok())
            return evicted;
        out.evicted = true;
        out.evicted_dirty = stats_.dirty_evictions > dirty_before;
    }
    const auto slot = free_.pop();
    FIDR_CHECK(slot.has_value());

    FIDR_TPOINT(obs::Tpoint::kCacheFetch, bucket_index, kBucketSize);
    Result<tables::Bucket> fetched = table_.read_bucket(bucket_index);
    if (!fetched.is_ok()) {
        // A failed fill (e.g. injected table-SSD read error) must not
        // leak the slot: return it so free+resident still partition
        // the cache.
        free_.push(*slot);
        return fetched.status();
    }

    Line &line = lines_[*slot];
    line.bucket = fetched.take();
    line.owner = bucket_index;
    line.valid = true;
    line.dirty = false;

    const Status indexed = index_.insert(bucket_index, *slot);
    if (!indexed.is_ok())
        return indexed;
    touch(*slot);
    out.line = *slot;
    return out;
}

Status
TableCache::writeback_all()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Line &line : lines_) {
        if (!line.valid || !line.dirty)
            continue;
        Status flushed =
            fault::as_status(FIDR_FAULT_EVAL(fault::Site::kCacheWriteback),
                             fault::Site::kCacheWriteback);
        if (flushed.is_ok())
            flushed = table_.write_bucket(line.owner, line.bucket);
        if (!flushed.is_ok())
            return flushed;  // Line stays dirty; retry resumes here.
        line.dirty = false;
    }
    return Status::ok();
}

CacheStats
TableCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
TableCache::resident() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    for (const Line &line : lines_) {
        if (line.valid)
            ++count;
    }
    return count;
}

std::size_t
TableCache::free_lines() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return free_.size();
}

Status
TableCache::validate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t valid_lines = 0;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const Line &line = lines_[i];
        if (!line.valid)
            continue;
        ++valid_lines;
        // Each resident line must be indexed at its owner key.
        const auto found = index_.find(line.owner);
        if (!found || *found != i)
            return Status::internal("resident line not indexed correctly");
    }
    if (free_.size() + valid_lines != lines_.size())
        return Status::internal("free list + resident != capacity");
    if (lru_.size() + lru_high_.size() != valid_lines)
        return Status::internal("LRU lists do not cover resident lines");
    if (index_.size() != valid_lines)
        return Status::internal("index size != resident lines");
    return Status::ok();
}

}  // namespace fidr::cache
