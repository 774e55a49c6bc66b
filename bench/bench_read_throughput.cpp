// Wall-clock throughput of the batched read plane: sweeps lanes
// x chunk-cache capacity x cache tier mode (one-tier decompressed LRU
// vs two-tier hot/warm vs two-tier + SSD spill ring, all at the same
// DRAM budget) over the Table 3 Read-Mixed workload and a Zipfian
// hot-set read workload, timing only the read_batch() calls over the
// full read sequence (payload checksums run off the clock).  The cache
// columns show the Fig 6b fetch+decompress work a host-DRAM chunk
// cache removes under skew — and how much further a compressed warm
// tier stretches the same budget; the lane column
// shows the fan-out (flat on a 1-core host — the determinism contract
// says lanes change wall-clock only, and the bench asserts exactly
// that: payload checksums, fetch counts and per-tier hit counts must
// be identical across every lane count, and every cell must return
// byte-identical payloads).
//
// Emits BENCH_read.json via the harness's uniform JsonReport schema.
// `--smoke` shrinks the request count and sweep for CI and gates the
// cache-off/on equivalence, the equal-budget two-tier improvement, a
// nonzero spill-tier hit count, and batched demotion (>= 4 entries per
// rebalance pass) at the tight budget.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "fidr/common/rng.h"
#include "fidr/common/thread_pool.h"

using namespace fidr;

namespace {

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One prepared read workload: write set + read LBA sequence. */
struct ReadWorkload {
    std::string name;
    std::vector<workload::IoRequest> writes;
    std::vector<Lba> reads;
};

/**
 * Table 3 Read-Mixed: the generator's own 30% read mix, with the
 * read requests lifted out into the post-flush read sequence.
 */
ReadWorkload
read_mixed_workload(std::size_t requests)
{
    workload::WorkloadSpec spec = workload::read_mixed_spec();
    workload::WorkloadGenerator gen(spec);
    ReadWorkload out;
    out.name = "Read-Mixed";
    for (std::size_t i = 0; i < requests; ++i) {
        const workload::IoRequest req = gen.next();
        if (req.dir == IoDir::kWrite) {
            out.writes.push_back(req);
        } else {
            out.reads.push_back(req.lba);
        }
    }
    return out;
}

/**
 * Zipfian hot set: unique chunks written once, then reads drawn
 * rank-skewed (exponent ~0.99) over the written LBAs via an exact
 * harmonic-CDF inversion — the small hot set dominates, which is the
 * regime a PBN-keyed chunk cache exists for.
 */
ReadWorkload
zipfian_workload(std::size_t unique_chunks, std::size_t reads)
{
    workload::WorkloadSpec spec;
    spec.name = "zipf-writes";
    spec.dedup_ratio = 0.0;
    spec.comp_ratio = 0.5;
    spec.address_space_chunks = unique_chunks * 4;
    spec.read_fraction = 0.0;
    spec.seed = 0x21Fu;
    workload::WorkloadGenerator gen(spec);

    ReadWorkload out;
    out.name = "Zipfian hot set";
    out.writes = gen.batch(unique_chunks);

    // CDF of the zipf(0.99) rank distribution over the write order.
    std::vector<double> cdf(unique_chunks);
    double total = 0;
    for (std::size_t rank = 0; rank < unique_chunks; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1), 0.99);
        cdf[rank] = total;
    }
    Rng rng(0x21F2ull);
    for (std::size_t i = 0; i < reads; ++i) {
        const double u = rng.next_double() * total;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const std::size_t rank =
            static_cast<std::size_t>(it - cdf.begin());
        out.reads.push_back(out.writes[rank].lba);
    }
    return out;
}

/**
 * Cache configuration of one sweep column.  "one" is the PR 5
 * one-tier decompressed LRU (the committed baseline the two-tier
 * cells must beat at equal DRAM budget); "two" adds the compressed
 * warm tier, batched demotion and ghost auto-sizing; "two+spill"
 * additionally spills evicted compressed chunks to a reserved
 * data-SSD ring.
 */
struct TierMode {
    const char *name = "off";
    bool two_tier = false;
    std::uint64_t spill_bytes = 0;
};

struct CellRun {
    std::size_t lanes = 0;
    std::uint64_t cache_bytes = 0;
    std::string tier = "off";
    double seconds = 0;
    double chunks_per_s = 0;
    double gb_per_s = 0;
    std::uint64_t ssd_fetches = 0;
    std::uint64_t cache_hits = 0;
    double cache_hit_rate = 0;
    std::uint64_t warm_hits = 0;
    std::uint64_t spill_hits = 0;
    std::uint64_t spill_writes = 0;
    std::uint64_t demotions = 0;
    std::uint64_t demote_passes = 0;
    std::uint64_t payload_checksum = 0;  ///< FNV over every slot.
};

CellRun
run_cell(const ReadWorkload &workload, std::size_t lanes,
         std::uint64_t cache_bytes, const TierMode &mode,
         std::size_t batch_size)
{
    core::FidrConfig config;
    config.platform = bench::eval_platform();
    config.lanes = lanes;
    config.chunk_cache_bytes = cache_bytes;
    config.chunk_cache_two_tier = mode.two_tier;
    config.chunk_cache_spill_bytes = mode.spill_bytes;
    core::FidrSystem system(config);

    for (const workload::IoRequest &req : workload.writes) {
        Buffer data = req.data;
        FIDR_CHECK(system.write(req.lba, std::move(data)).is_ok());
    }
    FIDR_CHECK(system.flush().is_ok());

    CellRun cell;
    cell.lanes = lanes;
    cell.cache_bytes = cache_bytes;
    std::uint64_t checksum = 0xCBF29CE484222325ull;
    // Only the read_batch() calls are timed; the payload checksum is
    // harness work and runs between them, off the clock.
    double read_seconds = 0;
    for (std::size_t base = 0; base < workload.reads.size();
         base += batch_size) {
        const std::size_t n =
            std::min(batch_size, workload.reads.size() - base);
        const std::span<const Lba> lbas(&workload.reads[base], n);
        const double t0 = now_s();
        const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
        read_seconds += now_s() - t0;
        for (const Result<Buffer> &slot : batch) {
            FIDR_CHECK(slot.is_ok());
            for (const std::uint8_t byte : slot.value()) {
                checksum ^= byte;
                checksum *= 0x100000001B3ull;
            }
        }
    }
    cell.seconds = read_seconds;
    cell.payload_checksum = checksum;
    cell.chunks_per_s =
        static_cast<double>(workload.reads.size()) / cell.seconds;
    cell.gb_per_s = static_cast<double>(workload.reads.size()) *
                    kChunkSize / cell.seconds / 1e9;

    const obs::ObsSnapshot snap = system.obs_snapshot();
    cell.tier = mode.name;
    cell.ssd_fetches = snap.counters.at("read.ssd_fetches");
    cell.cache_hits = snap.counters.at("read.cache.hits");
    cell.cache_hit_rate = snap.gauges.at("read.cache.hit_rate");
    cell.warm_hits = snap.counters.at("read.cache.warm.hits");
    cell.spill_hits = snap.counters.at("read.cache.spill.hits");
    cell.spill_writes = snap.counters.at("read.cache.spill.writes");
    cell.demotions = snap.counters.at("read.cache.demotions");
    cell.demote_passes = snap.counters.at("read.cache.demote_passes");
    return cell;
}

void
print_cells(const ReadWorkload &workload,
            const std::vector<CellRun> &cells)
{
    std::printf("%s: %zu writes, %zu reads\n", workload.name.c_str(),
                workload.writes.size(), workload.reads.size());
    std::printf("  %5s | %10s | %9s | %9s | %12s | %11s |"
                " %8s | %9s | %10s | %9s | %9s\n",
                "lanes", "cache", "tier", "seconds",
                "chunks/s", "ssd fetches", "hit rate", "warm hits",
                "spill hits", "demotions", "dem pass");
    for (const CellRun &cell : cells) {
        std::printf("  %5zu | %7.0f MB | %9s | %9.3f |"
                    " %12.0f | %11llu | %7.1f%% | %9llu | %10llu |"
                    " %9llu | %9llu\n",
                    cell.lanes,
                    static_cast<double>(cell.cache_bytes) / (1 << 20),
                    cell.tier.c_str(), cell.seconds, cell.chunks_per_s,
                    static_cast<unsigned long long>(cell.ssd_fetches),
                    cell.cache_hit_rate * 100.0,
                    static_cast<unsigned long long>(cell.warm_hits),
                    static_cast<unsigned long long>(cell.spill_hits),
                    static_cast<unsigned long long>(cell.demotions),
                    static_cast<unsigned long long>(
                        cell.demote_passes));
    }
    std::printf("\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    const std::size_t requests = smoke ? 3'000 : 24'000;
    const std::size_t zipf_uniques = smoke ? 1'000 : 6'000;
    const std::size_t zipf_reads = smoke ? 4'000 : 36'000;
    const std::size_t batch_size = 256;
    const std::vector<std::size_t> lane_sweep =
        smoke ? std::vector<std::size_t>{1, 2}
              : std::vector<std::size_t>{1, 2, 4};
    // The smoke budget is 1 MiB (not 4): the smoke working set is
    // 1000 x 4 KiB = 4 MiB, so a 4 MiB cache holds everything and the
    // one-tier/two-tier comparison degenerates.  The full-run 4 MiB
    // budget is the constrained cell (working set 24 MiB raw); 32 MiB
    // holds the whole decompressed set, so every mode sits at the
    // compulsory-miss floor there and only the no-regression gate
    // applies.
    const std::vector<std::uint64_t> cache_sweep =
        smoke ? std::vector<std::uint64_t>{0, 1ull << 20}
              : std::vector<std::uint64_t>{0, 4ull << 20, 32ull << 20};
    const std::uint64_t spill_bytes = smoke ? 8ull << 20 : 64ull << 20;
    const TierMode kOff{"off", false, 0};
    const TierMode kOne{"one", false, 0};
    const TierMode kTwo{"two", true, 0};
    const TierMode kTwoSpill{"two+spill", true, spill_bytes};

    // One sweep column per (cache budget, tier mode); cache-off runs
    // a single "off" column, every budget > 0 runs all three modes at
    // the SAME DRAM budget — the equal-budget comparison the two-tier
    // design is gated on.
    struct SweepConfig {
        std::uint64_t cache_bytes;
        TierMode mode;
    };
    std::vector<SweepConfig> configs;
    for (const std::uint64_t cache_bytes : cache_sweep) {
        if (cache_bytes == 0) {
            configs.push_back({cache_bytes, kOff});
        } else {
            configs.push_back({cache_bytes, kOne});
            configs.push_back({cache_bytes, kTwo});
            configs.push_back({cache_bytes, kTwoSpill});
        }
    }

    bench::print_header("Batched read plane wall-clock throughput",
                        "Fig 6b read flow; coalescing + chunk cache");
    std::printf("hardware lanes: %zu, batch size: %zu%s\n\n",
                ThreadPool::hardware_lanes(), batch_size,
                smoke ? " (smoke)" : "");

    bench::JsonReport report("read_throughput");
    report.config("batch_size", static_cast<std::uint64_t>(batch_size))
        .config("hardware_lanes", ThreadPool::hardware_lanes())
        .config("smoke", smoke)
        .config("chunk_bytes", static_cast<std::uint64_t>(kChunkSize));

    const ReadWorkload workloads[2] = {
        read_mixed_workload(requests),
        zipfian_workload(zipf_uniques, zipf_reads),
    };
    for (const ReadWorkload &workload : workloads) {
        std::vector<CellRun> cells;
        for (const SweepConfig &config : configs) {
            for (const std::size_t lanes : lane_sweep)
                cells.push_back(run_cell(workload, lanes,
                                         config.cache_bytes,
                                         config.mode, batch_size));
        }
        print_cells(workload, cells);

        // Lane-1 cell of the (cache budget, tier mode) column.
        const auto cell_at = [&](std::uint64_t cache_bytes,
                                 const char *tier) -> const CellRun & {
            for (const CellRun &cell : cells) {
                if (cell.cache_bytes == cache_bytes &&
                    cell.tier == tier && cell.lanes == lane_sweep[0])
                    return cell;
            }
            FIDR_CHECK(false);
            return cells[0];
        };

        // Determinism gates, every run: payloads are invariant across
        // the whole sweep (the cache, its tiers and the lanes are pure
        // optimizations), and within one (cache, tier) column every
        // cache/fetch counter is lane-invariant.
        for (const CellRun &cell : cells) {
            FIDR_CHECK(cell.payload_checksum ==
                       cells[0].payload_checksum);
        }
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const CellRun &first = cells[c * lane_sweep.size()];
            for (std::size_t l = 1; l < lane_sweep.size(); ++l) {
                const CellRun &cell = cells[c * lane_sweep.size() + l];
                FIDR_CHECK(cell.ssd_fetches == first.ssd_fetches);
                FIDR_CHECK(cell.cache_hits == first.cache_hits);
                FIDR_CHECK(cell.warm_hits == first.warm_hits);
                FIDR_CHECK(cell.spill_hits == first.spill_hits);
            }
        }
        // Cache efficacy gates on the skewed workload.  The equal-
        // budget comparison runs at the smallest nonzero budget, where
        // the one-tier cache is capacity-constrained: keeping the warm
        // tier compressed must strictly raise the hit rate and
        // strictly cut data-SSD fetches, and the spill ring must
        // absorb capacity misses on top of that.  At budgets that hold
        // the whole working set every mode sits at the compulsory-miss
        // floor, so larger budgets only gate no-regression.
        if (workload.name == "Zipfian hot set") {
            const CellRun &cache_off = cell_at(0, "off");
            FIDR_CHECK(cache_off.cache_hits == 0);
            const std::uint64_t tight = cache_sweep[1];
            for (std::size_t c = 1; c < cache_sweep.size(); ++c) {
                const std::uint64_t budget = cache_sweep[c];
                const CellRun &one = cell_at(budget, "one");
                const CellRun &two = cell_at(budget, "two");
                const CellRun &spill = cell_at(budget, "two+spill");
                FIDR_CHECK(one.cache_hits > 0);
                FIDR_CHECK(one.ssd_fetches < cache_off.ssd_fetches);
                FIDR_CHECK(two.warm_hits > 0);
                FIDR_CHECK(two.ssd_fetches <= one.ssd_fetches);
                FIDR_CHECK(spill.ssd_fetches <= two.ssd_fetches);
                if (budget == tight) {
                    FIDR_CHECK(two.cache_hit_rate > one.cache_hit_rate);
                    FIDR_CHECK(two.ssd_fetches < one.ssd_fetches);
                    FIDR_CHECK(spill.spill_hits > 0);
                    FIDR_CHECK(spill.cache_hit_rate >
                               two.cache_hit_rate);
                    FIDR_CHECK(spill.ssd_fetches < two.ssd_fetches);
                }
            }
        }

        // Batched-demotion gate at the tight budget: each rebalance
        // pass demotes a batch of tail entries, leaving slack below the
        // hot target, so a working set that barely overflows the hot
        // tier pays the demotion bookkeeping once per batch instead of
        // on every fill (the DESIGN.md §16 Read-Mixed near-fit churn).
        // The cell must demote, and average at least 4 entries a pass.
        {
            const CellRun &two = cell_at(cache_sweep[1], "two");
            FIDR_CHECK(two.demote_passes > 0);
            FIDR_CHECK(two.demotions >= 4 * two.demote_passes);
        }

        obs::JsonWriter &json = report.begin_entry("read_sweep");
        json.kv("workload", workload.name);
        json.kv("writes",
                static_cast<std::uint64_t>(workload.writes.size()));
        json.kv("reads",
                static_cast<std::uint64_t>(workload.reads.size()));
        json.key("runs").begin_array();
        for (const CellRun &cell : cells) {
            json.begin_object();
            json.kv("lanes", static_cast<std::uint64_t>(cell.lanes));
            json.kv("cache_bytes", cell.cache_bytes);
            json.kv("tier", cell.tier);
            json.kv("seconds", cell.seconds);
            json.kv("chunks_per_s", cell.chunks_per_s);
            json.kv("gb_per_s", cell.gb_per_s);
            json.kv("ssd_fetches", cell.ssd_fetches);
            json.kv("cache_hits", cell.cache_hits);
            json.kv("cache_hit_rate", cell.cache_hit_rate);
            json.kv("warm_hits", cell.warm_hits);
            json.kv("spill_hits", cell.spill_hits);
            json.kv("spill_writes", cell.spill_writes);
            json.kv("demotions", cell.demotions);
            json.kv("demote_passes", cell.demote_passes);
            json.end_object();
        }
        json.end_array();
        report.end_entry();
    }
    FIDR_CHECK(report.write_file("BENCH_read.json").is_ok());
    return 0;
}
