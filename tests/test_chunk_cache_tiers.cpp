// Two-tier chunk read cache (cache/chunk_cache): one-tier legacy
// behaviour, the hot->warm demotion / warm->hot promotion state
// machine, batched demotion, the asymmetric ghost-LRU auto-sizing,
// and the SSD spill ring — writes,
// hits, wrap-around overwrites, write failures, and key maintenance
// (rekey / invalidate / invalidate_container / clear) across every
// tier.  All through the public API with a fake in-memory spill
// backend; the wired-up system paths are covered by test_read_plane
// and test_gc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fidr/cache/chunk_cache.h"

namespace fidr::cache {
namespace {

constexpr std::uint64_t kCap = 16384;   ///< 4 raw chunks.
constexpr std::size_t kRaw = 4096;
constexpr std::size_t kComp = 1024;     ///< 4:1 compressible payloads.

Buffer
bytes(std::size_t n, std::uint8_t seed)
{
    Buffer out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(seed + i * 31);
    return out;
}

ChunkKey
key(std::uint64_t container, std::uint16_t offset)
{
    return ChunkKey{container, offset};
}

/** In-memory SpillBackend: a flat byte region + failure injection. */
class FakeSpill final : public SpillBackend {
  public:
    explicit FakeSpill(std::uint64_t capacity) : store_(capacity, 0) {}

    std::uint64_t capacity_bytes() const override { return store_.size(); }

    Status
    write(std::uint64_t offset, std::span<const std::uint8_t> data) override
    {
        if (fail_writes)
            return Status::unavailable("injected spill write failure");
        EXPECT_LE(offset + data.size(), store_.size());
        std::copy(data.begin(), data.end(), store_.begin() + offset);
        ++writes;
        return Status::ok();
    }

    Result<Buffer>
    read(std::uint64_t offset, std::uint64_t size) const override
    {
        EXPECT_LE(offset + size, store_.size());
        ++reads;
        return Buffer(store_.begin() + static_cast<std::ptrdiff_t>(offset),
                      store_.begin() +
                          static_cast<std::ptrdiff_t>(offset + size));
    }

    bool fail_writes = false;
    std::uint64_t writes = 0;
    mutable std::uint64_t reads = 0;

  private:
    std::vector<std::uint8_t> store_;
};

TEST(ChunkCacheOneTier, EvictionDropsOutrightAndBillsRawOnly)
{
    ChunkReadCache cache(2 * kRaw, /*two_tier=*/false);

    // Compressed images are passed (the read plane always has them)
    // but must not be billed or retained in one-tier mode.
    cache.fill(key(1, 0), bytes(kRaw, 1), bytes(kComp, 1));
    cache.fill(key(1, 1), bytes(kRaw, 2), bytes(kComp, 2));
    EXPECT_EQ(cache.used_bytes(), 2 * kRaw);
    EXPECT_EQ(cache.entries(), 2u);

    // A third insert evicts the LRU entry entirely: no warm tier, no
    // demotion, exactly the PR 5 cache.
    cache.fill(key(1, 2), bytes(kRaw, 3), bytes(kComp, 3));
    EXPECT_FALSE(cache.lookup(key(1, 0)).hit());
    EXPECT_EQ(cache.lookup(key(1, 1)).tier, CacheTier::kHot);
    EXPECT_EQ(cache.lookup(key(1, 2)).tier, CacheTier::kHot);
    const ChunkCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.demotions, 0u);
    EXPECT_EQ(cache.warm_entries(), 0u);
    EXPECT_EQ(cache.used_bytes(), 2 * kRaw);
}

TEST(ChunkCacheTiers, DemotionFreesRawAndKeepsCompressed)
{
    // hot_fraction_initial 0.5 of 16 KiB = 8192 target; a hot entry
    // bills raw + compressed = 5120, so two hot entries overflow the
    // target and the LRU one demotes.
    ChunkReadCache cache(kCap);
    const Buffer raw_a = bytes(kRaw, 10), comp_a = bytes(kComp, 11);
    cache.fill(key(1, 0), raw_a, comp_a);
    cache.fill(key(1, 1), bytes(kRaw, 12), bytes(kComp, 13));

    EXPECT_EQ(cache.hot_entries(), 1u);
    EXPECT_EQ(cache.warm_entries(), 1u);
    EXPECT_EQ(cache.used_bytes(), (kRaw + kComp) + kComp);
    EXPECT_EQ(cache.stats().demotions, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);  // Still DRAM-resident.

    // The demoted entry answers warm: the compressed image verbatim,
    // no raw payload.
    const TierLookup warm = cache.lookup(key(1, 0));
    EXPECT_EQ(warm.tier, CacheTier::kWarm);
    EXPECT_EQ(warm.compressed, comp_a);
    EXPECT_TRUE(warm.raw.empty());
}

TEST(ChunkCacheTiers, PromoteRestoresHotAndDemotesTheOther)
{
    ChunkReadCache cache(kCap);
    const Buffer raw_a = bytes(kRaw, 20), comp_a = bytes(kComp, 21);
    cache.fill(key(1, 0), raw_a, comp_a);
    cache.fill(key(1, 1), bytes(kRaw, 22), bytes(kComp, 23));
    ASSERT_EQ(cache.lookup(key(1, 0)).tier, CacheTier::kWarm);

    // The caller decompressed the warm image and hands it back.
    cache.fill(key(1, 0), raw_a, comp_a);
    EXPECT_GE(cache.stats().promotions, 1u);

    const TierLookup hot = cache.lookup(key(1, 0));
    EXPECT_EQ(hot.tier, CacheTier::kHot);
    EXPECT_EQ(hot.raw, raw_a);
    // The hot target fits one entry, so the previous hot entry took
    // the demoted slot — the tiers swapped, nothing left DRAM.
    EXPECT_EQ(cache.lookup(key(1, 1)).tier, CacheTier::kWarm);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ChunkCacheTiers, RebalanceDemotesABatchPerPass)
{
    // Small images let the hot target hold many entries: a hot entry
    // bills 256 + 64 bytes, the initial target is half of 16 KiB, so
    // 25 fit and the 26th fill overflows it.  That pass must demote a
    // batch of 8 tail entries, not just the one the target needs.
    ChunkReadCache cache(kCap);
    constexpr std::size_t kSmallRaw = 256, kSmallComp = 64;
    for (std::uint16_t i = 0; i < 25; ++i)
        cache.fill(key(1, i), bytes(kSmallRaw, static_cast<std::uint8_t>(i)),
                   bytes(kSmallComp, static_cast<std::uint8_t>(i)));
    ASSERT_EQ(cache.stats().demotions, 0u);
    cache.fill(key(1, 25), bytes(kSmallRaw, 25), bytes(kSmallComp, 25));
    EXPECT_EQ(cache.stats().demotions, 8u);
    EXPECT_EQ(cache.stats().demote_passes, 1u);
    EXPECT_EQ(cache.hot_entries(), 18u);
    EXPECT_EQ(cache.warm_entries(), 8u);
    // The eight LRU-most entries went warm, oldest first.
    for (std::uint16_t i = 0; i < 8; ++i)
        EXPECT_EQ(cache.peek(key(1, i)), CacheTier::kWarm) << "key " << i;
    EXPECT_EQ(cache.peek(key(1, 8)), CacheTier::kHot);
}

TEST(ChunkCacheTiers, BatchedDemotionNeverDemotesTheMru)
{
    // Three small hot entries, then one large fill that overflows the
    // 8 KiB target on its own: the pass demotes all three small
    // entries (fewer than a full batch) and stops at the MRU entry,
    // the fill that triggered it, even though that one alone still
    // fills most of the target.
    ChunkReadCache cache(kCap);
    for (std::uint16_t i = 0; i < 3; ++i)
        cache.fill(key(1, i), bytes(256, static_cast<std::uint8_t>(i)),
                   bytes(64, static_cast<std::uint8_t>(i)));
    cache.fill(key(1, 3), bytes(8000, 3), bytes(100, 3));
    EXPECT_EQ(cache.stats().demotions, 3u);
    EXPECT_EQ(cache.stats().demote_passes, 1u);
    EXPECT_EQ(cache.hot_entries(), 1u);
    EXPECT_EQ(cache.peek(key(1, 3)), CacheTier::kHot);
}

TEST(ChunkCacheTiers, FillPromotesASpilledEntryOnlyOnce)
{
    // A fill for a key the ring still holds is a promotion and takes
    // the ring entry with it; the same key re-filled while hot is only
    // a recency refresh.
    FakeSpill spill(64 * 1024);
    ChunkReadCache cache(kCap, /*two_tier=*/true, &spill);
    for (std::uint16_t i = 0; i < 18; ++i)
        cache.fill(key(1, i), bytes(kRaw, static_cast<std::uint8_t>(i)),
                   bytes(kComp, static_cast<std::uint8_t>(i)));
    ASSERT_EQ(cache.peek(key(1, 0)), CacheTier::kSpill);
    const ChunkCacheStats before = cache.stats();
    const std::size_t ring_before = cache.spill_entries();
    cache.fill(key(1, 0), bytes(kRaw, 0), bytes(kComp, 0));
    const ChunkCacheStats promoted = cache.stats();
    EXPECT_EQ(promoted.promotions, before.promotions + 1);
    EXPECT_EQ(promoted.insertions, before.insertions);
    EXPECT_EQ(cache.peek(key(1, 0)), CacheTier::kHot);
    // Net of what the refill's cascade spilled or lapped, the ring lost
    // exactly the promoted entry.
    EXPECT_EQ(cache.spill_entries() + 1,
              ring_before + (promoted.spill_writes - before.spill_writes) -
                  (promoted.spill_overwritten - before.spill_overwritten));
    cache.fill(key(1, 0), bytes(kRaw, 0), bytes(kComp, 0));
    EXPECT_EQ(cache.stats().promotions, promoted.promotions);
    EXPECT_EQ(cache.stats().insertions, promoted.insertions);
}

TEST(ChunkCacheGhosts, AdaptationIsAsymmetric)
{
    ChunkReadCache cache(kCap);
    const std::uint64_t initial = cache.hot_target_bytes();

    // Demote A (hot tail -> warm + hot ghost), then re-reference it
    // warm: a bigger hot tier would have skipped the decompress, so
    // the target grows — by the quarter step.
    cache.fill(key(1, 0), bytes(kRaw, 60), bytes(kComp, 61));
    cache.fill(key(1, 1), bytes(kRaw, 62), bytes(kComp, 63));
    ASSERT_EQ(cache.lookup(key(1, 0)).tier, CacheTier::kWarm);
    const std::uint64_t grown = cache.hot_target_bytes();
    const std::uint64_t grow_delta = grown - initial;
    EXPECT_GT(grow_delta, 0u);
    EXPECT_EQ(cache.stats().ghost_hot_hits, 1u);

    // Push A out of DRAM entirely (warm LRU tail -> warm ghost; no
    // spill backend, so the image is gone), then miss on it: a bigger
    // warm tier would have kept it, so the target shrinks — by the
    // full step, 4x the grow step.
    for (std::uint16_t i = 2; i < 18; ++i)
        cache.fill(key(1, i), bytes(kRaw, i), bytes(kComp, i));
    ASSERT_GT(cache.stats().evictions, 0u);
    const std::uint64_t before_shrink = cache.hot_target_bytes();
    ASSERT_EQ(before_shrink, grown);  // Inserts don't move the target.
    EXPECT_FALSE(cache.lookup(key(1, 0)).hit());
    const std::uint64_t shrink_delta =
        before_shrink - cache.hot_target_bytes();
    EXPECT_GT(shrink_delta, 0u);
    EXPECT_EQ(cache.stats().ghost_warm_hits, 1u);
    EXPECT_LT(grow_delta * 2, shrink_delta);
}

/** Rig: two-tier cache over a fake spill device, plus the content
 *  book-keeping to verify every byte that comes back. */
struct SpillRig {
    FakeSpill spill;
    ChunkReadCache cache;
    std::unordered_map<std::uint16_t, Buffer> raws;
    std::unordered_map<std::uint16_t, Buffer> comps;

    explicit SpillRig(std::uint64_t spill_capacity = 64 * 1024)
        : spill(spill_capacity), cache(kCap, true, &spill)
    {
    }

    void
    fill(std::uint16_t from, std::uint16_t to)
    {
        for (std::uint16_t i = from; i < to; ++i) {
            raws[i] = bytes(kRaw, static_cast<std::uint8_t>(i));
            comps[i] = bytes(kComp, static_cast<std::uint8_t>(i + 100));
            cache.fill(key(1, i), raws[i], comps[i]);
        }
    }
};

TEST(ChunkCacheSpill, WarmEvictionsSpillAndReadBack)
{
    SpillRig rig;
    ASSERT_TRUE(rig.cache.spill_enabled());
    // 18 entries through a cache that holds ~12 in DRAM: the warm
    // tail overflows into the ring instead of vanishing.
    rig.fill(0, 18);
    EXPECT_GT(rig.cache.stats().spill_writes, 0u);
    EXPECT_EQ(rig.cache.stats().spill_writes, rig.spill.writes);
    ASSERT_GT(rig.cache.spill_entries(), 0u);

    // The oldest key must be in the ring; its SpillRef round-trips
    // the exact compressed image through the backend.
    const TierLookup spilled = rig.cache.lookup(key(1, 0));
    ASSERT_EQ(spilled.tier, CacheTier::kSpill);
    EXPECT_EQ(spilled.spill.size, kComp);
    Result<Buffer> image =
        rig.spill.read(spilled.spill.offset, spilled.spill.size);
    ASSERT_TRUE(image.is_ok());
    EXPECT_EQ(image.value(), rig.comps.at(0));

    // Promote completes the spill hit: back to hot, out of the ring.
    const std::uint64_t promotions = rig.cache.stats().promotions;
    rig.cache.fill(key(1, 0), rig.raws.at(0), rig.comps.at(0));
    EXPECT_EQ(rig.cache.stats().promotions, promotions + 1);
    EXPECT_EQ(rig.cache.lookup(key(1, 0)).tier, CacheTier::kHot);
}

TEST(ChunkCacheSpill, RingWrapsAndDropsLappedEntries)
{
    // A 4-entry ring under 40 evictions must wrap repeatedly: lapped
    // occupants leave the index, occupancy never exceeds capacity,
    // and every surviving ref still reads back its own image.
    SpillRig rig(4 * kComp);
    rig.fill(0, 40);
    const ChunkCacheStats stats = rig.cache.stats();
    EXPECT_GT(stats.spill_writes, 4u);
    EXPECT_GT(stats.spill_overwritten, 0u);
    EXPECT_LE(rig.cache.spill_used_bytes(), 4 * kComp);
    EXPECT_LE(rig.cache.spill_entries(), 4u);
    EXPECT_GT(rig.cache.spill_entries(), 0u);

    std::size_t spill_hits = 0;
    for (std::uint16_t i = 0; i < 40; ++i) {
        const TierLookup got = rig.cache.lookup(key(1, i));
        if (got.tier != CacheTier::kSpill)
            continue;
        ++spill_hits;
        Result<Buffer> image =
            rig.spill.read(got.spill.offset, got.spill.size);
        ASSERT_TRUE(image.is_ok());
        EXPECT_EQ(image.value(), rig.comps.at(i)) << "key " << i;
    }
    EXPECT_GT(spill_hits, 0u);
}

TEST(ChunkCacheSpill, WriteFailureDropsTheEntryAndCounts)
{
    SpillRig rig;
    rig.spill.fail_writes = true;
    rig.fill(0, 18);
    EXPECT_GT(rig.cache.stats().spill_write_failures, 0u);
    EXPECT_EQ(rig.cache.stats().spill_writes, 0u);
    EXPECT_EQ(rig.cache.spill_entries(), 0u);
    // The failed-out key is simply a miss — never a dangling ref.
    EXPECT_FALSE(rig.cache.lookup(key(1, 0)).hit());
}

TEST(ChunkCacheMaintenance, RekeyMovesEveryTier)
{
    SpillRig rig;
    rig.fill(0, 18);
    // Tier census: 17 is hot (MRU), 16 is warm, 0 spilled.
    ASSERT_EQ(rig.cache.lookup(key(1, 17)).tier, CacheTier::kHot);
    ASSERT_EQ(rig.cache.lookup(key(1, 16)).tier, CacheTier::kWarm);
    ASSERT_EQ(rig.cache.lookup(key(1, 0)).tier, CacheTier::kSpill);

    // GC relocated all three chunks: each entry must follow its key
    // within its tier, and the old keys must be gone.
    EXPECT_TRUE(rig.cache.rekey(key(1, 17), key(2, 17)));
    EXPECT_TRUE(rig.cache.rekey(key(1, 16), key(2, 16)));
    EXPECT_TRUE(rig.cache.rekey(key(1, 0), key(2, 0)));
    EXPECT_EQ(rig.cache.stats().rekeys, 3u);

    EXPECT_EQ(rig.cache.lookup(key(2, 17)).tier, CacheTier::kHot);
    EXPECT_EQ(rig.cache.lookup(key(2, 16)).tier, CacheTier::kWarm);
    const TierLookup moved = rig.cache.lookup(key(2, 0));
    ASSERT_EQ(moved.tier, CacheTier::kSpill);
    Result<Buffer> image =
        rig.spill.read(moved.spill.offset, moved.spill.size);
    ASSERT_TRUE(image.is_ok());
    EXPECT_EQ(image.value(), rig.comps.at(0));

    EXPECT_FALSE(rig.cache.lookup(key(1, 17)).hit());
    EXPECT_FALSE(rig.cache.lookup(key(1, 16)).hit());
    EXPECT_FALSE(rig.cache.lookup(key(1, 0)).hit());
    // Rekeying a key that is resident nowhere reports no move.
    EXPECT_FALSE(rig.cache.rekey(key(1, 500), key(2, 500)));
}

TEST(ChunkCacheMaintenance, InvalidateCoversEveryTier)
{
    SpillRig rig;
    rig.fill(0, 18);
    ASSERT_EQ(rig.cache.lookup(key(1, 0)).tier, CacheTier::kSpill);
    const std::size_t spill_before = rig.cache.spill_entries();

    const std::uint64_t invalidations =
        rig.cache.stats().invalidations;
    rig.cache.invalidate(key(1, 17));  // Hot.
    rig.cache.invalidate(key(1, 16));  // Warm.
    rig.cache.invalidate(key(1, 0));   // Spill.
    EXPECT_EQ(rig.cache.stats().invalidations, invalidations + 3);
    EXPECT_FALSE(rig.cache.lookup(key(1, 17)).hit());
    EXPECT_FALSE(rig.cache.lookup(key(1, 16)).hit());
    EXPECT_FALSE(rig.cache.lookup(key(1, 0)).hit());
    EXPECT_EQ(rig.cache.spill_entries(), spill_before - 1);
}

TEST(ChunkCacheMaintenance, InvalidateContainerSweepsSpill)
{
    SpillRig rig;
    // Interleave two containers so both tiers and the ring hold keys
    // of each.
    for (std::uint16_t i = 0; i < 18; ++i) {
        const std::uint64_t container = (i % 2 == 0) ? 1 : 2;
        rig.cache.fill(key(container, i),
                         bytes(kRaw, static_cast<std::uint8_t>(i)),
                         bytes(kComp, static_cast<std::uint8_t>(i)));
    }
    ASSERT_GT(rig.cache.spill_entries(), 0u);

    rig.cache.invalidate_container(1);
    for (std::uint16_t i = 0; i < 18; i += 2)
        EXPECT_FALSE(rig.cache.lookup(key(1, i)).hit()) << "key " << i;
    // Container 2 survives somewhere (DRAM or ring).
    std::size_t survivors = 0;
    for (std::uint16_t i = 1; i < 18; i += 2)
        survivors += rig.cache.lookup(key(2, i)).hit() ? 1 : 0;
    EXPECT_GT(survivors, 0u);
}

TEST(ChunkCacheMaintenance, ClearDropsDramAndSpillIndex)
{
    SpillRig rig;
    rig.fill(0, 18);
    ASSERT_GT(rig.cache.entries(), 0u);
    ASSERT_GT(rig.cache.spill_entries(), 0u);

    rig.cache.clear();
    EXPECT_EQ(rig.cache.entries(), 0u);
    EXPECT_EQ(rig.cache.spill_entries(), 0u);
    EXPECT_EQ(rig.cache.used_bytes(), 0u);
    EXPECT_EQ(rig.cache.spill_used_bytes(), 0u);
    for (std::uint16_t i = 0; i < 18; ++i)
        EXPECT_FALSE(rig.cache.lookup(key(1, i)).hit()) << "key " << i;
}

TEST(ChunkCacheTiers, OversizePayloadIsNotCached)
{
    ChunkReadCache cache(kCap);
    cache.fill(key(1, 0), bytes(kCap + 1, 70), bytes(kComp, 71));
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ChunkCacheConcurrency, FillsRaceRekeyAndContainerSweeps)
{
    // One thread probes and fills while another re-keys and sweeps
    // containers (the GC side) and a third reads the counters the way
    // obs_snapshot() does, all with the spill ring on.  Content is a
    // function of the offset only, and rekey moves container c to
    // c + 1000 at the same offset, so every image a probe returns can
    // be checked whichever key it is found under.  The one cache mutex
    // must keep every tier coherent (and TSan quiet).
    FakeSpill spill(8 * 1024);
    ChunkReadCache cache(kCap, /*two_tier=*/true, &spill);
    constexpr int kProbes = 6000;
    constexpr std::uint16_t kOffsets = 16;
    const auto raw_of = [](std::uint16_t off) {
        return bytes(kRaw, static_cast<std::uint8_t>(2 * off));
    };
    const auto comp_of = [](std::uint16_t off) {
        return bytes(kComp, static_cast<std::uint8_t>(2 * off + 1));
    };

    // Start at capacity with a populated ring, so every miss fill
    // during the race evicts (and spills) while the GC side moves and
    // drops keys under it.
    for (std::uint64_t c = 1; c <= 4; ++c) {
        for (std::uint16_t off = 0; off < kOffsets; ++off)
            cache.fill(key(c, off), raw_of(off), comp_of(off));
    }
    const std::uint64_t prefill_spills = cache.stats().spill_writes;
    ASSERT_GT(prefill_spills, 0u);

    std::atomic<bool> done{false};
    std::thread gc([&] {
        for (std::uint64_t iter = 0; !done.load(); ++iter) {
            const std::uint64_t c = 1 + iter % 4;
            for (std::uint16_t off = 0; off < kOffsets; ++off)
                (void)cache.rekey(key(c, off), key(c + 1000, off));
            if (iter % 16 == 0)
                cache.invalidate_container(c + 1000);
            std::this_thread::yield();
        }
    });
    std::thread reader([&] {
        std::uint64_t last = 0;
        while (!done.load()) {
            const ChunkCacheStats stats = cache.stats();
            EXPECT_GE(stats.hits + stats.misses, last);
            last = stats.hits + stats.misses;
            EXPECT_LE(cache.used_bytes(), kCap);
        }
    });

    std::uint64_t rng = 0x5EEDull;
    for (int i = 0; i < kProbes; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t family = (rng >> 33) % 4;
        const std::uint64_t container =
            1 + family + (((rng >> 40) & 1) ? 1000 : 0);
        const auto off = static_cast<std::uint16_t>((rng >> 45) % kOffsets);
        const ChunkKey k = key(container, off);
        const TierLookup probe = cache.lookup(k);
        if (probe.tier == CacheTier::kHot) {
            ASSERT_EQ(probe.raw, raw_of(off)) << "probe " << i;
        } else if (probe.tier == CacheTier::kWarm) {
            ASSERT_EQ(probe.compressed, comp_of(off)) << "probe " << i;
        } else if (probe.tier == CacheTier::kSpill) {
            ASSERT_EQ(probe.spill.size, kComp) << "probe " << i;
        }
        cache.fill(k, raw_of(off), comp_of(off));
    }
    done.store(true);
    gc.join();
    reader.join();

    const ChunkCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, std::uint64_t{kProbes});
    EXPECT_GT(stats.rekeys, 0u);
    EXPECT_GT(stats.spill_writes, prefill_spills);
    EXPECT_EQ(cache.entries(), cache.hot_entries() + cache.warm_entries());
    EXPECT_LE(cache.used_bytes(), kCap);
    EXPECT_LE(cache.spill_used_bytes(), spill.capacity_bytes());
}

}  // namespace
}  // namespace fidr::cache
