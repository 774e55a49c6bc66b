// Batched read plane (FidrSystem::read_batch + cache/chunk_cache): batch
// results must match serial reads byte-for-byte, every ledger charge
// must be identical across lanes in {1, 2, 4} and auto, the chunk
// cache must be a pure optimization (same payloads, fewer SSD
// fetches), compaction must invalidate stale cache entries, and an
// injected device error inside a batch must fail only its own slot.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "fidr/common/rng.h"
#include "fidr/core/fidr_system.h"
#include "fidr/fault/failpoint.h"
#include "fidr/hash/sha256.h"
#include "fidr/workload/content.h"
#include "fidr/workload/generator.h"

namespace fidr {
namespace {

core::PlatformConfig
small_platform()
{
    core::PlatformConfig config;
    config.expected_unique_chunks = 50'000;
    config.data_ssd.capacity_bytes = 2ull * kGiB;
    config.table_ssd.capacity_bytes = 1ull * kGiB;
    return config;
}

core::FidrConfig
read_plane_config(std::size_t lanes, std::uint64_t cache_bytes)
{
    core::FidrConfig config;
    config.platform = small_platform();
    config.lanes = lanes;
    config.chunk_cache_bytes = cache_bytes;
    return config;
}

/** Deterministic 4 KB chunk content keyed by (lba, salt). */
Buffer
chunk(Lba lba, std::uint64_t salt)
{
    Buffer data(kChunkSize);
    std::uint64_t x = lba * 0x9E3779B97F4A7C15ull + salt + 1;
    for (std::size_t i = 0; i < data.size(); ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        data[i] = static_cast<std::uint8_t>((x * 0x2545F4914F6CDD1Dull) >>
                                            56);
    }
    return data;
}

/** Dedup-heavy write trace + the per-LBA expected read-back bytes. */
struct Trace {
    std::vector<workload::IoRequest> requests;
    std::vector<Lba> lbas;  ///< Request order, duplicates kept.
    std::unordered_map<Lba, Buffer> expected;
};

Trace
make_trace(std::size_t writes)
{
    workload::WorkloadSpec spec;
    spec.name = "read-plane";
    spec.dedup_ratio = 0.5;  // Shared PBNs: batches must coalesce.
    spec.comp_ratio = 0.5;
    spec.dup_working_set = 64;
    spec.address_space_chunks = 2048;
    spec.read_fraction = 0.0;
    spec.seed = 0x5EED;
    workload::WorkloadGenerator gen(spec);

    Trace trace;
    trace.requests = gen.batch(writes);
    for (const workload::IoRequest &req : trace.requests) {
        trace.lbas.push_back(req.lba);
        trace.expected[req.lba] = req.data;
    }
    return trace;
}

void
write_trace(core::FidrSystem &system, const Trace &trace)
{
    for (const workload::IoRequest &req : trace.requests) {
        Buffer data = req.data;
        ASSERT_TRUE(system.write(req.lba, std::move(data)).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
}

TEST(ReadPlane, BatchMatchesSerialReadsByteForByte)
{
    const Trace trace = make_trace(600);
    core::FidrSystem system(read_plane_config(2, 2ull * kMiB));
    write_trace(system, trace);

    // Serial reads first, then one batch over the same list (repeat
    // LBAs included): every slot must return the last-written bytes,
    // whether served by a fetch, the coalescer, or the chunk cache.
    for (const Lba lba : trace.lbas) {
        Result<Buffer> got = system.read(lba);
        ASSERT_TRUE(got.is_ok()) << "lba " << lba;
        ASSERT_EQ(got.value(), trace.expected.at(lba)) << "lba " << lba;
    }
    const std::vector<Result<Buffer>> batch =
        system.read_batch(trace.lbas);
    ASSERT_EQ(batch.size(), trace.lbas.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(batch[i].is_ok()) << "slot " << i;
        ASSERT_EQ(batch[i].value(), trace.expected.at(trace.lbas[i]))
            << "slot " << i;
    }
}

struct ReadOutcome {
    std::vector<Buffer> payloads;
    std::vector<sim::LedgerRow> mem_rows;
    std::vector<sim::LedgerRow> cpu_rows;
    std::vector<std::uint64_t> ssd_link_bytes;
    std::uint64_t ssd_fetches = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t warm_hits = 0;
    std::uint64_t spill_hits = 0;
    core::FidrSystem::FaultStats faults;
};

ReadOutcome
run_read_config(core::FidrConfig config, const Trace &trace)
{
    core::FidrSystem system(std::move(config));
    write_trace(system, trace);

    ReadOutcome out;
    // Two passes so a cache-enabled run exercises hits as well.
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<Result<Buffer>> batch = system.read_batch(trace.lbas);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_TRUE(batch[i].is_ok()) << "slot " << i;
            out.payloads.push_back(batch[i].take());
        }
    }
    out.mem_rows = system.platform().fabric().host_memory().report();
    out.cpu_rows = system.platform().cpu().ledger().report();
    for (std::size_t s = 0;
         s < system.platform().data_ssd_dev_count(); ++s) {
        out.ssd_link_bytes.push_back(system.platform().fabric().link_bytes(
            system.platform().data_ssd_dev(s)));
    }
    const obs::ObsSnapshot snap = system.obs_snapshot();
    out.ssd_fetches = snap.counters.at("read.ssd_fetches");
    out.cache_hits = snap.counters.at("read.cache.hits");
    out.warm_hits = snap.counters.at("read.cache.warm.hits");
    out.spill_hits = snap.counters.at("read.cache.spill.hits");
    out.faults = system.fault_stats();
    return out;
}

ReadOutcome
run_read_trace(std::size_t lanes, std::uint64_t cache_bytes,
               const Trace &trace)
{
    return run_read_config(read_plane_config(lanes, cache_bytes),
                           trace);
}

void
expect_same_outcome(const ReadOutcome &a, const ReadOutcome &b)
{
    ASSERT_EQ(a.payloads.size(), b.payloads.size());
    for (std::size_t i = 0; i < a.payloads.size(); ++i)
        ASSERT_EQ(a.payloads[i], b.payloads[i]) << "slot " << i;

    ASSERT_EQ(a.mem_rows.size(), b.mem_rows.size());
    for (std::size_t i = 0; i < a.mem_rows.size(); ++i) {
        EXPECT_EQ(a.mem_rows[i].tag, b.mem_rows[i].tag);
        EXPECT_DOUBLE_EQ(a.mem_rows[i].value, b.mem_rows[i].value)
            << a.mem_rows[i].tag;
    }
    ASSERT_EQ(a.cpu_rows.size(), b.cpu_rows.size());
    for (std::size_t i = 0; i < a.cpu_rows.size(); ++i) {
        EXPECT_EQ(a.cpu_rows[i].tag, b.cpu_rows[i].tag);
        EXPECT_DOUBLE_EQ(a.cpu_rows[i].value, b.cpu_rows[i].value)
            << a.cpu_rows[i].tag;
    }
    ASSERT_EQ(a.ssd_link_bytes, b.ssd_link_bytes);
    EXPECT_EQ(a.ssd_fetches, b.ssd_fetches);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.warm_hits, b.warm_hits);
    EXPECT_EQ(a.spill_hits, b.spill_hits);
    EXPECT_EQ(a.faults.transient_retries, b.faults.transient_retries);
    EXPECT_EQ(a.faults.retry_exhausted, b.faults.retry_exhausted);
    EXPECT_EQ(a.faults.backoff_ns, b.faults.backoff_ns);
}

TEST(ReadPlane, BillingIdenticalAcrossLaneCounts)
{
    // The determinism contract of FidrSystem::ReadJob: lane counts change
    // wall-clock only.  Payloads, every host-DRAM ledger row, CPU
    // billing, per-SSD link bytes, fetch counts and cache hit counts
    // must be bit-identical for lanes in {1, 2, 4, auto} — with
    // the chunk cache both off and on.
    const Trace trace = make_trace(500);
    for (const std::uint64_t cache_bytes :
         {std::uint64_t{0}, std::uint64_t{2} * kMiB}) {
        const ReadOutcome serial = run_read_trace(1, cache_bytes, trace);
        for (const std::size_t lanes : {std::size_t{2}, std::size_t{4},
                                        std::size_t{0}}) {
            const ReadOutcome parallel =
                run_read_trace(lanes, cache_bytes, trace);
            expect_same_outcome(serial, parallel);
        }
    }
}

TEST(ReadPlane, BillingIdenticalAcrossLanesAndTierConfigs)
{
    // The two-tier cache keeps the determinism contract: for every
    // tier configuration (one-tier, two-tier, two-tier + spill)
    // payloads and ledgers are bit-identical across lanes in
    // {1, 2, 4, auto} — and payloads are identical across the
    // configurations too (tiering is a pure optimization).
    // The small budget forces demotions, warm hits and (in the spill
    // config) ring traffic, so the invariance is non-vacuous.
    const Trace trace = make_trace(500);
    struct TierCase {
        const char *name;
        bool two_tier;
        std::uint64_t spill_bytes;
    };
    const TierCase cases[] = {
        {"one-tier", false, 0},
        {"two-tier", true, 0},
        {"two-tier+spill", true, 4ull * kMiB},
    };
    std::vector<Buffer> reference;
    for (const TierCase &tier : cases) {
        SCOPED_TRACE(tier.name);
        auto config_for = [&](std::size_t lanes) {
            core::FidrConfig config =
                read_plane_config(lanes, 256ull * 1024);
            config.chunk_cache_two_tier = tier.two_tier;
            config.chunk_cache_spill_bytes = tier.spill_bytes;
            return config;
        };
        const ReadOutcome serial = run_read_config(config_for(1), trace);
        for (const std::size_t lanes : {std::size_t{2}, std::size_t{4},
                                        std::size_t{0}}) {
            const ReadOutcome parallel =
                run_read_config(config_for(lanes), trace);
            expect_same_outcome(serial, parallel);
        }
        // Non-vacuity, per configuration.
        if (tier.two_tier)
            EXPECT_GT(serial.warm_hits, 0u);
        else
            EXPECT_EQ(serial.warm_hits, 0u);
        if (tier.spill_bytes > 0)
            EXPECT_GT(serial.spill_hits, 0u);
        else
            EXPECT_EQ(serial.spill_hits, 0u);

        if (reference.empty()) {
            reference = serial.payloads;
        } else {
            ASSERT_EQ(serial.payloads.size(), reference.size());
            for (std::size_t i = 0; i < reference.size(); ++i)
                ASSERT_EQ(serial.payloads[i], reference[i])
                    << "slot " << i;
        }
    }
}

/** SHA-256 digests of one golden read-plane run. */
struct GoldenDigests {
    std::string payloads;
    std::string ledgers;
    std::string counters;
    std::string counter_list;  ///< The hashed text, for failure output.
};

void
absorb_rows(Sha256 &sha, const std::vector<sim::LedgerRow> &rows)
{
    for (const sim::LedgerRow &row : rows) {
        sha.update({reinterpret_cast<const std::uint8_t *>(row.tag.data()),
                    row.tag.size() + 1});
        std::uint8_t bits[sizeof(double)];
        std::memcpy(bits, &row.value, sizeof bits);
        sha.update(bits);
    }
}

/**
 * A seeded read-plane workload: 384 preloaded 50%-compressible chunks,
 * then 24 rounds of one 64-LBA Zipf(0.99) read batch and 16 overwrites
 * (half re-using live content, so dedup shares PBNs, half fresh), a
 * GC pass halfway through whose relocations rekey cached entries, and
 * a final read of every LBA.  Small containers and a 256 KiB chunk
 * cache make demotion, warm hits, GC rekeys and (with a spill ring)
 * ring traffic all happen.  Every payload is checked against the
 * model; the digests cover payload bytes, the host-DRAM and CPU
 * ledger rows, and a fixed list of read-plane counters.
 */
GoldenDigests
run_golden_workload(const core::FidrConfig &config)
{
    constexpr Lba kLbas = 384;
    constexpr int kRounds = 24;
    constexpr std::size_t kReadsPerRound = 64;
    constexpr std::size_t kWritesPerRound = 16;
    core::FidrSystem system(config);
    Rng rng(0x601D);

    std::vector<std::uint64_t> model(kLbas);
    std::uint64_t next_content = 0;
    for (Lba lba = 0; lba < kLbas; ++lba) {
        model[lba] = next_content++;
        EXPECT_TRUE(system
                        .write(lba, workload::make_chunk_content(model[lba]))
                        .is_ok());
    }
    EXPECT_TRUE(system.flush().is_ok());

    // Zipf rank -> LBA through a seeded permutation.
    std::vector<Lba> rank_lba(kLbas);
    for (Lba i = 0; i < kLbas; ++i)
        rank_lba[i] = i;
    for (std::size_t i = kLbas - 1; i > 0; --i)
        std::swap(rank_lba[i], rank_lba[rng.next_below(i + 1)]);
    std::vector<double> cdf(kLbas);
    double total = 0;
    for (std::size_t r = 0; r < kLbas; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
        cdf[r] = total;
    }

    Sha256 payloads;
    const auto read_and_absorb = [&](const std::vector<Lba> &lbas) {
        const std::vector<Result<Buffer>> got = system.read_batch(lbas);
        for (std::size_t i = 0; i < lbas.size(); ++i) {
            if (!got[i].is_ok()) {
                ADD_FAILURE() << "lba " << lbas[i] << ": "
                              << got[i].status().to_string();
                continue;
            }
            EXPECT_EQ(got[i].value(),
                      workload::make_chunk_content(model[lbas[i]]))
                << "lba " << lbas[i];
            payloads.update(got[i].value());
        }
    };

    for (int round = 0; round < kRounds; ++round) {
        std::vector<Lba> lbas;
        for (std::size_t i = 0; i < kReadsPerRound; ++i) {
            const double u = rng.next_double() * total;
            const auto rank = static_cast<std::size_t>(
                std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            lbas.push_back(rank_lba[std::min<std::size_t>(rank, kLbas - 1)]);
        }
        read_and_absorb(lbas);
        for (std::size_t i = 0; i < kWritesPerRound; ++i) {
            const Lba lba = rng.next_below(kLbas);
            model[lba] = rng.next_bool(0.5)
                             ? model[rng.next_below(kLbas)]
                             : next_content++;
            EXPECT_TRUE(
                system.write(lba, workload::make_chunk_content(model[lba]))
                    .is_ok());
        }
        if (round == kRounds / 2) {
            EXPECT_TRUE(system.flush().is_ok());
            EXPECT_TRUE(system.run_gc(0.2).is_ok());
        }
    }
    EXPECT_TRUE(system.flush().is_ok());
    std::vector<Lba> all(kLbas);
    for (Lba lba = 0; lba < kLbas; ++lba)
        all[lba] = lba;
    read_and_absorb(all);

    GoldenDigests out;
    out.payloads = payloads.finish().to_hex();
    Sha256 ledgers;
    absorb_rows(ledgers, system.platform().fabric().host_memory().report());
    absorb_rows(ledgers, system.platform().cpu().ledger().report());
    out.ledgers = ledgers.finish().to_hex();

    const obs::ObsSnapshot snap = system.obs_snapshot();
    std::string counters;
    for (const char *name :
         {"read.chunks", "read.nic_buffer_hits", "read.ssd_fetches",
          "read.cache.spill.reads", "read.cache.hits", "read.cache.misses",
          "read.cache.insertions", "read.cache.evictions",
          "read.cache.invalidations", "read.cache.rekeys",
          "read.cache.bytes", "read.cache.hot.hits",
          "read.cache.warm.hits", "read.cache.spill.hits",
          "read.cache.demotions", "read.cache.demote_passes",
          "read.cache.promotions", "read.cache.spill.writes",
          "read.cache.spill.write_failures",
          "read.cache.spill.overwritten", "read.cache.ghost.hot_hits",
          "read.cache.ghost.warm_hits", "read.cache.hot.bytes",
          "read.cache.warm.bytes", "read.cache.spill.bytes"}) {
        counters += std::string(name) + "=" +
                    std::to_string(snap.counters.at(name)) + "\n";
    }
    for (const char *name : {"read.ssd_fetch", "read.decompress",
                             "read.nic_return", "read.total"}) {
        counters += std::string(name) + ".count=" +
                    std::to_string(snap.histograms.at(name).count) + "\n";
    }
    out.counters = Sha256::hash({reinterpret_cast<const std::uint8_t *>(
                                     counters.data()),
                                 counters.size()})
                       .to_hex();
    // Non-vacuity: the run exercised what the digests pin.
    if (config.chunk_cache_two_tier) {
        EXPECT_GT(snap.counters.at("read.cache.warm.hits"), 0u);
        EXPECT_GT(snap.counters.at("read.cache.demote_passes"), 0u);
    }
    EXPECT_GT(snap.counters.at("read.cache.rekeys"), 0u);
    if (config.chunk_cache_spill_bytes > 0) {
        EXPECT_GT(snap.counters.at("read.cache.spill.hits"), 0u);
    }
    out.counter_list = counters;
    return out;
}

// Golden pin of the read plane: for each tier configuration, the
// digests of payloads, ledgers and read-plane counters are fixed, and
// identical at lanes 1 and 4.  A refactor of the chunk cache or
// of the read jobs must leave every digest where it is.
TEST(ReadPlaneGolden, DigestsArePinnedPerTierConfig)
{
    struct GoldenCase {
        const char *name;
        bool two_tier;
        std::uint64_t spill_bytes;
        const char *ledgers;
        const char *counters;
    };
    const char *payloads =
        "56e75321137519fd250e5b9bfc9b8cb238d625fd44c8a6720839a7bf3f453b62";
    const GoldenCase cases[] = {
        {"one-tier", false, 0,
         "06174c23221d57c343b97df2d4ccd900804caa52907a7a9477c906c2cc1c4a85",
         "236e2b26e06f8a0bab64aa497c39dd7d89eff649529becfa2a0ec2ffda5fe09b"},
        {"two-tier", true, 0,
         "6e0a388aff42af244e7bcbe262d092a5533d326ef052cab4dcb474d1f50f30c8",
         "fbedad7a95bbeee3a57dfa427c870be69174e01315c1f28a806379680a3eb213"},
        {"two-tier+spill", true, 1ull * kMiB,
         "77171420021459ea215413aed9b111301fdb8dbd3baea64fda22e64b43011077",
         "92bd6a5bdc422be13878592d6b92f7cab5c5ff012e8ceef734b8b0b75bf9cd20"},
    };
    for (const GoldenCase &tier : cases) {
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(std::string(tier.name) + " lanes " +
                         std::to_string(lanes));
            core::FidrConfig config = read_plane_config(lanes, 256 * 1024);
            config.container_bytes = 64 * 1024;
            config.chunk_cache_two_tier = tier.two_tier;
            config.chunk_cache_spill_bytes = tier.spill_bytes;
            const GoldenDigests got = run_golden_workload(config);
            SCOPED_TRACE(got.counter_list);
            EXPECT_EQ(got.payloads, payloads);
            EXPECT_EQ(got.ledgers, tier.ledgers);
            EXPECT_EQ(got.counters, tier.counters);
        }
    }
}

TEST(ReadPlane, CacheIsAPureOptimization)
{
    // Same trace with the cache off and on: byte-identical payloads,
    // strictly fewer data-SSD fetches, nonzero hits on the repeat
    // pass, and hits recorded in obs.
    const Trace trace = make_trace(500);
    const ReadOutcome off = run_read_trace(1, 0, trace);
    const ReadOutcome on = run_read_trace(1, 8ull * kMiB, trace);

    ASSERT_EQ(off.payloads.size(), on.payloads.size());
    for (std::size_t i = 0; i < off.payloads.size(); ++i)
        ASSERT_EQ(off.payloads[i], on.payloads[i]) << "slot " << i;
    EXPECT_EQ(off.cache_hits, 0u);
    EXPECT_GT(on.cache_hits, 0u);
    EXPECT_LT(on.ssd_fetches, off.ssd_fetches);
}

TEST(ReadPlane, DuplicateSlotsCoalesceIntoOneFetch)
{
    core::FidrSystem system(read_plane_config(1, 0));
    // Two LBAs with identical content share a PBN; a third is unique.
    ASSERT_TRUE(system.write(10, chunk(1, 0)).is_ok());
    ASSERT_TRUE(system.write(20, chunk(1, 0)).is_ok());
    ASSERT_TRUE(system.write(30, chunk(3, 0)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const std::uint64_t before =
        system.obs_snapshot().counters.at("read.ssd_fetches");
    // Six slots, two distinct physical chunks: repeats of LBA 10 and
    // the deduped LBA 20 all ride the same job.
    const std::vector<Lba> lbas = {10, 10, 20, 30, 10, 20};
    const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
    for (std::size_t i = 0; i < lbas.size(); ++i) {
        ASSERT_TRUE(batch[i].is_ok()) << "slot " << i;
        EXPECT_EQ(batch[i].value(),
                  chunk(lbas[i] == 30 ? 3 : 1, 0)) << "slot " << i;
    }
    const std::uint64_t fetches =
        system.obs_snapshot().counters.at("read.ssd_fetches") - before;
    EXPECT_EQ(fetches, 2u);
}

TEST(ReadPlane, NicBufferedWritesHitInBatch)
{
    core::FidrSystem system(read_plane_config(2, 0));
    ASSERT_TRUE(system.write(7, chunk(7, 1)).is_ok());
    ASSERT_TRUE(system.write(8, chunk(8, 1)).is_ok());
    // No flush: both chunks still live in NIC NVRAM.
    const std::uint64_t hits_before = system.reduction().nic_read_hits;
    const std::vector<Lba> lbas = {7, 8};
    const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
    ASSERT_TRUE(batch[0].is_ok());
    ASSERT_TRUE(batch[1].is_ok());
    EXPECT_EQ(batch[0].value(), chunk(7, 1));
    EXPECT_EQ(batch[1].value(), chunk(8, 1));
    EXPECT_EQ(system.reduction().nic_read_hits, hits_before + 2);
}

TEST(ReadPlane, UnknownLbaFailsOnlyItsSlot)
{
    core::FidrSystem system(read_plane_config(2, 0));
    ASSERT_TRUE(system.write(1, chunk(1, 2)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const std::vector<Lba> lbas = {1, 999'999, 1};
    const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
    ASSERT_TRUE(batch[0].is_ok());
    EXPECT_EQ(batch[1].status().code(), StatusCode::kNotFound);
    ASSERT_TRUE(batch[2].is_ok());
    EXPECT_EQ(batch[2].value(), chunk(1, 2));
}

TEST(ReadPlane, CompactionInvalidatesStaleCacheEntries)
{
    // Fill the cache, kill half the chunks, compact, and read back:
    // the discarded containers' cached images must be gone (stale
    // physical slots) and every surviving LBA must still read its
    // current bytes through the moved locations.
    core::FidrConfig config = read_plane_config(1, 8ull * kMiB);
    config.container_bytes = 64 * 1024;  // Small: many containers.
    core::FidrSystem system(config);

    constexpr std::size_t kLbas = 128;
    for (Lba lba = 0; lba < kLbas; ++lba)
        ASSERT_TRUE(system.write(lba, chunk(lba, 10)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    std::vector<Lba> all(kLbas);
    for (Lba lba = 0; lba < kLbas; ++lba)
        all[lba] = lba;
    for (const Result<Buffer> &r : system.read_batch(all))
        ASSERT_TRUE(r.is_ok());
    ASSERT_GT(system.chunk_cache()->entries(), 0u);

    // Overwrite every even LBA: the old PBNs die and their cache
    // entries are invalidated at retirement.
    for (Lba lba = 0; lba < kLbas; lba += 2)
        ASSERT_TRUE(system.write(lba, chunk(lba, 11)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const std::uint64_t invalidations_before =
        system.chunk_cache()->stats().invalidations;
    Result<std::uint64_t> reclaimed = system.compact(0.25);
    ASSERT_TRUE(reclaimed.is_ok());
    EXPECT_GT(reclaimed.value(), 0u);
    // Survivors moved out of discarded containers: their old-location
    // entries must have been dropped.
    EXPECT_GT(system.chunk_cache()->stats().invalidations,
              invalidations_before);

    const std::vector<Result<Buffer>> after = system.read_batch(all);
    for (Lba lba = 0; lba < kLbas; ++lba) {
        ASSERT_TRUE(after[lba].is_ok()) << "lba " << lba;
        EXPECT_EQ(after[lba].value(),
                  chunk(lba, lba % 2 == 0 ? 11 : 10)) << "lba " << lba;
    }
}

#if FIDR_FAULT_ENABLED
TEST(ReadPlane, InjectedReadErrorFailsOnlyItsSlot)
{
    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    registry.reset_counters();
    registry.set_seed(0xF1D7);

    // Serial lanes pin the fetch order, so fail_nth lands on a known
    // job; zero retries make the single transient error surface.
    core::FidrConfig config = read_plane_config(1, 0);
    config.transient_retries = 0;
    core::FidrSystem system(config);

    constexpr std::size_t kLbas = 8;
    std::vector<Lba> lbas;
    for (Lba lba = 0; lba < kLbas; ++lba) {
        ASSERT_TRUE(system.write(lba, chunk(lba, 20)).is_ok());
        lbas.push_back(lba);
    }
    ASSERT_TRUE(system.flush().is_ok());

    fault::FaultPolicy policy;
    policy.kind = fault::FaultKind::kError;
    policy.code = StatusCode::kUnavailable;
    policy.fail_nth = 3;
    registry.arm(fault::Site::kSsdRead, policy);

    const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
    registry.disarm_all();

    std::size_t failed = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].is_ok()) {
            EXPECT_EQ(batch[i].value(), chunk(lbas[i], 20))
                << "slot " << i;
        } else {
            EXPECT_EQ(batch[i].status().code(), StatusCode::kUnavailable)
                << "slot " << i;
            ++failed;
        }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(system.fault_stats().retry_exhausted, 1u);

    // Degraded mode is per-request: the same batch succeeds once the
    // fault clears.
    for (const Result<Buffer> &r : system.read_batch(lbas))
        EXPECT_TRUE(r.is_ok());
}
// A spill hit whose ring read fails falls back to the authoritative
// container fetch: the caller still gets the right bytes, the fetch is
// billed as a plain miss (one more data-SSD fetch, no spill read), and
// the stale ring entry leaves the spill index as the refetched image
// re-enters DRAM.
TEST(ReadPlane, SpillReadFailureFallsBackToContainerFetch)
{
    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    registry.reset_counters();

    core::FidrConfig config = read_plane_config(1, 64 * 1024);
    config.chunk_cache_spill_bytes = 256 * 1024;
    core::FidrSystem system(config);
    ASSERT_TRUE(system.chunk_cache()->spill_enabled());

    constexpr Lba kLbas = 90;
    std::vector<Lba> all(kLbas);
    for (Lba lba = 0; lba < kLbas; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba)).is_ok());
        all[lba] = lba;
    }
    ASSERT_TRUE(system.flush().is_ok());
    for (const Result<Buffer> &r : system.read_batch(all))
        ASSERT_TRUE(r.is_ok());

    const cache::ChunkReadCache &cache = *system.chunk_cache();
    const auto key_of = [&](Lba lba) {
        const auto loc = system.lba_table().lookup(lba);
        EXPECT_TRUE(loc.has_value());
        return cache::ChunkKey{loc->container_id, loc->offset_units};
    };
    Lba spilled = kLbas;
    for (Lba lba = 0; lba < kLbas && spilled == kLbas; ++lba) {
        if (cache.peek(key_of(lba)) == cache::CacheTier::kSpill)
            spilled = lba;
    }
    ASSERT_LT(spilled, kLbas) << "no read landed in the spill tier";

    const obs::ObsSnapshot before = system.obs_snapshot();
    const cache::ChunkCacheStats stats_before = cache.stats();
    const std::size_t spill_entries_before = cache.spill_entries();

    // The first flash read after arming is the ring read of the spill
    // hit; a non-transient error skips the retry loop.
    fault::FaultPolicy policy;
    policy.kind = fault::FaultKind::kError;
    policy.code = StatusCode::kCorruption;
    policy.fail_nth = 1;
    registry.arm(fault::Site::kSsdRead, policy);
    Result<Buffer> got = system.read(spilled);
    registry.disarm_all();
    EXPECT_EQ(registry.fires(fault::Site::kSsdRead), 1u);

    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), workload::make_chunk_content(spilled));

    const obs::ObsSnapshot after = system.obs_snapshot();
    EXPECT_EQ(after.counters.at("read.ssd_fetches"),
              before.counters.at("read.ssd_fetches") + 1);
    EXPECT_EQ(after.counters.at("read.cache.spill.reads"),
              before.counters.at("read.cache.spill.reads"));
    EXPECT_EQ(after.counters.at("read.cache.spill.hits"),
              before.counters.at("read.cache.spill.hits") + 1);

    // The refetched image is hot again and its ring entry is gone:
    // net of ring writes and laps caused by the refill's cascade, the
    // spill index lost exactly one entry.
    EXPECT_EQ(cache.peek(key_of(spilled)), cache::CacheTier::kHot);
    const cache::ChunkCacheStats stats_after = cache.stats();
    EXPECT_EQ(cache.spill_entries() + 1,
              spill_entries_before +
                  (stats_after.spill_writes - stats_before.spill_writes) -
                  (stats_after.spill_overwritten -
                   stats_before.spill_overwritten));
}
#endif  // FIDR_FAULT_ENABLED

}  // namespace
}  // namespace fidr
