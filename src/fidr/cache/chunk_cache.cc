#include "fidr/cache/chunk_cache.h"

#include <algorithm>

namespace fidr::cache {

namespace {

/** Clamp band and starting point for the adaptive hot-tier byte
 *  target, as fractions of the budget. */
constexpr double kHotFractionMin = 0.10;
constexpr double kHotFractionMax = 0.90;
constexpr double kHotFractionInitial = 0.50;

/** Ghost-hit adaptation step, as a fraction of the budget.  The
 *  step is asymmetric: shrink signals (ghost-warm hits — a bigger warm
 *  tier would have kept the image in DRAM) move the target by the full
 *  step, grow signals (ghost-hot hits — a bigger hot tier would have
 *  skipped a decompress) by a quarter of it.  A hot entry bills raw +
 *  compressed bytes, ~3-4x a warm entry, and a demoted key is almost
 *  always still warm-resident when it re-hits, so an unweighted grow
 *  signal saturates and drags the split toward the low-density hot
 *  tier. */
constexpr double kAdaptStepFraction = 0.02;

/** Bounded ghost-list length (keys) per list. */
constexpr std::size_t kGhostEntries = 1024;

/** Hot-tier demotion batch: once a fill pushes the hot tier over its
 *  byte target, demote at least this many tail entries in one pass.
 *  Batching creates hot-tier slack so a near-fit working set does not
 *  demote and re-promote the same tail entry on every fill (the
 *  DESIGN.md §16 Read-Mixed 4 MiB regression). */
constexpr std::size_t kDemoteBatch = 8;

}  // namespace

void
ChunkReadCache::GhostList::push(const ChunkKey &key)
{
    if (cap == 0)
        return;
    const auto it = index.find(key);
    if (it != index.end()) {
        order.splice(order.begin(), order, it->second);
        return;
    }
    while (order.size() >= cap) {
        index.erase(order.back());
        order.pop_back();
    }
    order.push_front(key);
    index.emplace(key, order.begin());
}

bool
ChunkReadCache::GhostList::take(const ChunkKey &key)
{
    const auto it = index.find(key);
    if (it == index.end())
        return false;
    order.erase(it->second);
    index.erase(it);
    return true;
}

void
ChunkReadCache::GhostList::clear()
{
    order.clear();
    index.clear();
}

ChunkReadCache::ChunkReadCache(std::uint64_t capacity_bytes,
                               bool two_tier, SpillBackend *spill)
    : capacity_bytes_(capacity_bytes), two_tier_(two_tier),
      spill_backend_(spill)
{
    if (two_tier_ && spill_backend_)
        spill_capacity_ = spill_backend_->capacity_bytes();
    adapt_step_ = static_cast<std::uint64_t>(
        static_cast<double>(capacity_bytes_) * kAdaptStepFraction);
    hot_target_ = two_tier_
                      ? static_cast<std::uint64_t>(
                            static_cast<double>(capacity_bytes_) *
                            kHotFractionInitial)
                      : capacity_bytes_;
    ghost_hot_.cap = two_tier_ ? kGhostEntries : 0;
    ghost_warm_.cap = two_tier_ ? kGhostEntries : 0;
}

std::uint64_t
ChunkReadCache::billed_hot(const Entry &entry) const
{
    // Two-tier hot entries retain the compressed image so demotion is
    // free (no recompression, ever); one-tier entries bill raw only,
    // reproducing the PR 5 footprint exactly.
    return entry.raw.size() + (two_tier_ ? entry.compressed.size() : 0);
}

std::uint64_t
ChunkReadCache::billed_warm(const Entry &entry) const
{
    return entry.compressed.size();
}

void
ChunkReadCache::bump_hot_target(bool grow)
{
    const auto lo = static_cast<std::uint64_t>(
        static_cast<double>(capacity_bytes_) * kHotFractionMin);
    const auto hi = static_cast<std::uint64_t>(
        static_cast<double>(capacity_bytes_) * kHotFractionMax);
    if (grow)
        // Quarter step: hot bytes are ~3-4x as expensive per resident
        // entry as warm bytes (see kAdaptStepFraction).
        hot_target_ = std::min(hi, hot_target_ + adapt_step_ / 4);
    else
        hot_target_ = std::max(
            lo, hot_target_ > adapt_step_ ? hot_target_ - adapt_step_ : 0);
}

TierLookup
ChunkReadCache::lookup(const ChunkKey &key)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        Entry &entry = *it->second.it;
        if (it->second.hot) {
            ++stats_.hits;
            ++stats_.hot.hits;
            hot_.splice(hot_.begin(), hot_, it->second.it);
            TierLookup out;
            out.tier = CacheTier::kHot;
            out.raw = entry.raw;
            return out;
        }
        ++stats_.hits;
        ++stats_.warm.hits;
        warm_.splice(warm_.begin(), warm_, it->second.it);
        // A warm hit still inside the hot ghost: a bigger hot tier
        // would have skipped this decompress.  Grow the hot target.
        if (ghost_hot_.take(key)) {
            ++stats_.ghost_hot_hits;
            bump_hot_target(/*grow=*/true);
        }
        TierLookup out;
        out.tier = CacheTier::kWarm;
        out.compressed = entry.compressed;
        return out;
    }

    // Not in DRAM: probe the spill index.
    if (spill_enabled()) {
        const auto spilled = spill_.index.find(key);
        if (spilled != spill_.index.end()) {
            ++stats_.hits;
            ++stats_.spill.hits;
            // The image fell out of DRAM entirely: a bigger warm tier
            // would have held it.  Shrink the hot target.
            if (ghost_warm_.take(key))
                ++stats_.ghost_warm_hits;
            bump_hot_target(/*grow=*/false);
            TierLookup out;
            out.tier = CacheTier::kSpill;
            out.spill = spilled->second;
            return out;
        }
    }

    ++stats_.misses;
    if (ghost_warm_.take(key)) {
        ++stats_.ghost_warm_hits;
        bump_hot_target(/*grow=*/false);
    }
    return {};
}

CacheTier
ChunkReadCache::peek(const ChunkKey &key) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end())
        return it->second.hot ? CacheTier::kHot : CacheTier::kWarm;
    if (spill_enabled() && spill_.index.contains(key))
        return CacheTier::kSpill;
    return CacheTier::kNone;
}

void
ChunkReadCache::demote_tail()
{
    Entry &victim = hot_.back();
    hot_bytes_ -= billed_hot(victim);
    if (!two_tier_ || victim.compressed.empty()) {
        // Nothing to demote to: one-tier mode (or an entry without a
        // compressed image) drops straight out of DRAM.
        index_.erase(victim.key);
        hot_.pop_back();
        ++stats_.evictions;
        ++stats_.hot.evictions;
        return;
    }
    victim.raw = Buffer();  // Free the decompressed bytes.
    ghost_hot_.push(victim.key);
    ++stats_.demotions;
    ++stats_.hot.evictions;
    ++stats_.warm.insertions;
    warm_bytes_ += billed_warm(victim);
    auto slot = index_.find(victim.key);
    // Demoted entry becomes the warm tier's MRU (ARC-style).
    warm_.splice(warm_.begin(), hot_, std::prev(hot_.end()));
    slot->second.hot = false;
    slot->second.it = warm_.begin();
}

void
ChunkReadCache::spill_drop_overlaps(std::uint64_t offset,
                                    std::uint64_t size)
{
    // Entries whose bytes the ring is about to overwrite leave the
    // index.  by_offset is ordered, so scan from the first occupant
    // that could overlap.
    auto it = spill_.by_offset.lower_bound(offset);
    if (it != spill_.by_offset.begin()) {
        const auto prev = std::prev(it);
        if (prev->first + prev->second.size > offset)
            it = prev;
    }
    while (it != spill_.by_offset.end() && it->first < offset + size) {
        spill_.used_bytes -= it->second.size;
        spill_.index.erase(it->second.key);
        it = spill_.by_offset.erase(it);
        ++stats_.spill_overwritten;
        ++stats_.spill.evictions;
    }
}

void
ChunkReadCache::spill_out(Entry &&entry)
{
    const std::uint64_t size = entry.compressed.size();
    if (size == 0 || size > spill_capacity_)
        return;
    // Sequential ring: wrap when the image won't fit before the end.
    // The tail gap left by a wrap keeps its occupants readable until
    // a later lap actually overwrites them.
    if (spill_.cursor + size > spill_capacity_)
        spill_.cursor = 0;
    const std::uint64_t offset = spill_.cursor;
    spill_drop_overlaps(offset, size);
    // A re-spilled key must not leave a stale occupant elsewhere.
    spill_erase(entry.key);
    const Status written = spill_backend_->write(offset, entry.compressed);
    if (!written.is_ok()) {
        ++stats_.spill_write_failures;
        return;
    }
    spill_.cursor = offset + size;
    SpillRef ref;
    ref.offset = offset;
    ref.size = static_cast<std::uint32_t>(size);
    spill_.index.emplace(entry.key, ref);
    spill_.by_offset[offset] = SpillRing::Occupant{entry.key, ref.size};
    spill_.used_bytes += size;
    ++stats_.spill_writes;
    ++stats_.spill.insertions;
}

void
ChunkReadCache::evict_warm_tail()
{
    Entry victim = std::move(warm_.back());
    warm_bytes_ -= victim.compressed.size();
    index_.erase(victim.key);
    warm_.pop_back();
    ++stats_.evictions;
    ++stats_.warm.evictions;
    ghost_warm_.push(victim.key);
    if (spill_enabled())
        spill_out(std::move(victim));
}

void
ChunkReadCache::rebalance()
{
    if (two_tier_) {
        std::size_t demoted = 0;
        while (hot_bytes_ > hot_target_ && !hot_.empty()) {
            demote_tail();
            ++demoted;
        }
        // Batched demotion: once the target forced a demotion, demote
        // up to kDemoteBatch tail entries in the same pass.  The slack
        // below hot_target_ means a near-fit working set amortizes the
        // demote/re-promote churn over the next kDemoteBatch fills
        // instead of paying it on every one.  Never demotes the MRU
        // entry (the fill that triggered the pass).
        if (demoted > 0) {
            while (demoted < kDemoteBatch && hot_.size() > 1) {
                demote_tail();
                ++demoted;
            }
            ++stats_.demote_passes;
        }
    }
    while (hot_bytes_ + warm_bytes_ > capacity_bytes_) {
        if (!warm_.empty())
            evict_warm_tail();
        else if (!hot_.empty())
            demote_tail();  // One-tier mode: drops outright.
        else
            break;
    }
}

ChunkReadCache::Entry
ChunkReadCache::unlink(Index::iterator slot)
{
    Entry entry = std::move(*slot->second.it);
    if (slot->second.hot) {
        hot_bytes_ -= billed_hot(entry);
        hot_.erase(slot->second.it);
    } else {
        warm_bytes_ -= billed_warm(entry);
        warm_.erase(slot->second.it);
    }
    index_.erase(slot);
    return entry;
}

bool
ChunkReadCache::spill_erase(const ChunkKey &key)
{
    // The ring reclaims space by lapping, not by holes: the flash
    // bytes are simply forgotten.
    const auto spilled = spill_.index.find(key);
    if (spilled == spill_.index.end())
        return false;
    spill_.used_bytes -= spilled->second.size;
    spill_.by_offset.erase(spilled->second.offset);
    spill_.index.erase(spilled);
    return true;
}

void
ChunkReadCache::fill(const ChunkKey &key, const Buffer &raw,
                     const Buffer &compressed)
{
    if (raw.size() > capacity_bytes_)
        return;  // Would evict the whole cache for one entry.
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end() && it->second.hot) {
        // Already hot: the image is immutable, only recency moves.
        hot_.splice(hot_.begin(), hot_, it->second.it);
    } else if (it != index_.end()) {
        // Warm: re-attach the payload and move to the hot MRU slot.
        warm_bytes_ -= billed_warm(*it->second.it);
        it->second.it->raw = raw;
        hot_.splice(hot_.begin(), warm_, it->second.it);
        it->second.hot = true;
        hot_bytes_ += billed_hot(*it->second.it);
        ++stats_.promotions;
        ++stats_.hot.insertions;
    } else {
        // Not in DRAM: a spilled image re-enters and leaves the ring's
        // index (a promotion); anything else is a plain miss fill.
        const bool from_spill = spill_enabled() && spill_erase(key);
        Entry entry;
        entry.key = key;
        entry.raw = raw;
        entry.compressed = two_tier_ ? compressed : Buffer();
        hot_bytes_ += billed_hot(entry);
        hot_.push_front(std::move(entry));
        index_.emplace(key, Slot{true, hot_.begin()});
        ++(from_spill ? stats_.promotions : stats_.insertions);
        ++stats_.hot.insertions;
    }
    rebalance();
}

void
ChunkReadCache::invalidate(const ChunkKey &key)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    bool dropped = false;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        unlink(it);
        dropped = true;
    }
    // The DRAM and spill copies leave together, so no probe can see
    // the spilled image outlive an invalidation of its PBN.
    if (spill_enabled())
        dropped = spill_erase(key) || dropped;
    if (dropped)
        ++stats_.invalidations;
}

bool
ChunkReadCache::rekey(const ChunkKey &from, const ChunkKey &to)
{
    if (from == to)
        return false;
    // One critical section for the whole move: no interleaved probe
    // can miss the entry under both keys or find it under the retired
    // one.
    const std::lock_guard<std::mutex> lock(mutex_);

    bool moved = false;
    const auto it = index_.find(from);
    if (it != index_.end()) {
        const bool was_hot = it->second.hot;
        Entry entry = unlink(it);
        // The old physical location is gone whatever happens next, so
        // this is an invalidation first and a move second.
        ++stats_.invalidations;
        ++stats_.rekeys;

        entry.key = to;
        // Displace any stale resident under the destination key (the
        // relocated chunk's image is the authoritative one).
        const auto existing = index_.find(to);
        if (existing != index_.end()) {
            unlink(existing);
            ++stats_.invalidations;
        }
        if (was_hot) {
            hot_bytes_ += billed_hot(entry);
            hot_.push_front(std::move(entry));
            index_.emplace(to, Slot{true, hot_.begin()});
        } else {
            warm_bytes_ += billed_warm(entry);
            warm_.push_front(std::move(entry));
            index_.emplace(to, Slot{false, warm_.begin()});
        }
        rebalance();
        moved = true;
    }

    if (spill_enabled()) {
        // The spill index renames in the same critical section, so the
        // spilled image is never reachable under the retired key once
        // rekey returns — and never unreachable while it is.
        const auto spilled = spill_.index.find(from);
        if (spilled != spill_.index.end()) {
            const SpillRef ref = spilled->second;
            spill_.index.erase(spilled);
            const auto target = spill_.index.find(to);
            if (target != spill_.index.end()) {
                // Destination already spilled: keep it, drop ours.
                spill_.used_bytes -= ref.size;
                spill_.by_offset.erase(ref.offset);
            } else {
                spill_.index.emplace(to, ref);
                spill_.by_offset[ref.offset] =
                    SpillRing::Occupant{to, ref.size};
            }
            if (!moved) {
                ++stats_.invalidations;
                ++stats_.rekeys;
            }
            moved = true;
        }
    }
    return moved;
}

void
ChunkReadCache::invalidate_container(std::uint64_t container_id)
{
    // Invalidation happens at GC-discard rate, not request rate, so a
    // full scan of every tier is fine.
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::list<Entry> *tier : {&hot_, &warm_}) {
        for (auto it = tier->begin(); it != tier->end();) {
            const ChunkKey key = (it++)->key;
            if (key.container_id != container_id)
                continue;
            unlink(index_.find(key));
            ++stats_.invalidations;
        }
    }
    if (!spill_enabled())
        return;
    for (auto it = spill_.by_offset.begin();
         it != spill_.by_offset.end();) {
        if (it->second.key.container_id != container_id) {
            ++it;
            continue;
        }
        spill_.used_bytes -= it->second.size;
        spill_.index.erase(it->second.key);
        it = spill_.by_offset.erase(it);
        ++stats_.invalidations;
    }
}

void
ChunkReadCache::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.invalidations += hot_.size() + warm_.size();
    hot_.clear();
    warm_.clear();
    index_.clear();
    hot_bytes_ = 0;
    warm_bytes_ = 0;
    ghost_hot_.clear();
    ghost_warm_.clear();
    // The spill index is host DRAM: spilled bytes are unreachable after
    // a crash even though the flash region survives.
    spill_.index.clear();
    spill_.by_offset.clear();
    spill_.cursor = 0;
    spill_.used_bytes = 0;
}

ChunkCacheStats
ChunkReadCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::uint64_t
ChunkReadCache::used_bytes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return hot_bytes_ + warm_bytes_;
}

std::uint64_t
ChunkReadCache::hot_used_bytes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return hot_bytes_;
}

std::uint64_t
ChunkReadCache::warm_used_bytes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return warm_bytes_;
}

std::uint64_t
ChunkReadCache::hot_target_bytes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return hot_target_;
}

std::size_t
ChunkReadCache::entries() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return hot_.size() + warm_.size();
}

std::size_t
ChunkReadCache::hot_entries() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return hot_.size();
}

std::size_t
ChunkReadCache::warm_entries() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return warm_.size();
}

std::size_t
ChunkReadCache::spill_entries() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spill_.index.size();
}

std::uint64_t
ChunkReadCache::spill_used_bytes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spill_.used_bytes;
}

}  // namespace fidr::cache
