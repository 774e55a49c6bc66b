// Seeded workload inputs.  Everything a run sends or expects is built
// here, before any timing: content bytes, the write stream, Zipf read
// draws, the expected payload of every read slot, and the final LBA
// map the read-back checks against.

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "harness.h"
#include "perfbench.h"

#include "fidr/common/rng.h"
#include "fidr/core/platform.h"
#include "fidr/hash/sha256.h"
#include "fidr/workload/content.h"
#include "fidr/workload/generator.h"
#include "fidr/workload/table3.h"

namespace perfbench {

namespace {

using namespace fidr;

/**
 * Write-workload epoch length.  Large enough that the table cache
 * reaches its Table 3 hit rate and every epoch seals 64 batches; small
 * enough that an epoch's prebuilt payloads stay at 64 MiB.
 */
constexpr std::size_t kWriteEpochChunks = 16384;

// mixed-zipf-gc shape (README.md).
constexpr std::size_t kPreloadChunks = 16384;
constexpr std::size_t kReadsPerRound = 64;
constexpr std::size_t kWritesPerRound = 16;
constexpr std::size_t kMixedRounds = 3000;
constexpr double kZipfExponent = 0.99;
/**
 * Data log: 2 SSDs x 96 slots of 256 KiB containers = 48 MiB.  The
 * preload stores ~33 MiB and each round appends ~16 KiB of fresh
 * compressed content, so with GC relocation an epoch appends more than
 * twice the log's capacity.  The log needs far more than the 12 slots
 * the default 4 MiB containers would give it: containers are striped
 * over the SSDs by id, and with 6 slots per SSD the closing flush can
 * find no free slot on the SSD the next id is striped to (OUT_OF_SPACE)
 * while the log as a whole is still above the GC reserve watermark.
 */
constexpr std::uint64_t kMixedContainerBytes = 256 * 1024;
constexpr std::uint64_t kMixedSlotsPerSsd = 96;
constexpr std::uint64_t kMixedChunkCacheBytes = 8 * kMiB;
constexpr std::uint64_t kPageBytes = 4096;

/** Content ids of different seeds never alias. */
std::uint64_t
content_salt(std::uint64_t seed)
{
    Rng rng(seed ^ 0xB5AD4ECEDA1CE2A9ull);
    return rng.next_u64() & ~0xFFFFFFFFull;
}

core::FidrConfig
durable_config()
{
    core::FidrConfig config;
    config.platform = bench::eval_platform();
    config.journal_metadata = true;
    return config;
}

/** Fills props.writes/duplicate/overwrite/unique from a write list. */
void
count_writes(const std::vector<WriteOp> &writes,
             std::unordered_set<std::uint32_t> &seen_content,
             std::unordered_set<Lba> &seen_lba, Properties &props)
{
    for (const WriteOp &op : writes) {
        ++props.writes;
        if (!seen_content.insert(op.content).second)
            ++props.duplicate_writes;
        if (!seen_lba.insert(op.lba).second)
            ++props.overwrites;
    }
}

/** Bucket working set of the timed writes against the table cache. */
void
count_buckets(Inputs &in)
{
    core::Platform platform(in.config.platform);
    std::vector<std::uint64_t> bucket(in.pool.size());
    for (std::size_t i = 0; i < in.pool.size(); ++i)
        bucket[i] = platform.hash_table().bucket_for(
            Sha256::hash(in.pool[i]));
    std::unordered_set<std::uint64_t> all;
    std::unordered_set<std::uint64_t> dup;
    std::unordered_set<std::uint32_t> seen;
    for (const WriteOp &op : in.preload)
        seen.insert(op.content);
    for (const WriteOp &op : in.writes) {
        all.insert(bucket[op.content]);
        if (!seen.insert(op.content).second)
            dup.insert(bucket[op.content]);
    }
    in.props.buckets_touched = all.size();
    in.props.dup_buckets = dup.size();
    in.props.table_cache_lines = platform.cache_lines();
    in.props.table_cache_bytes =
        platform.cache_lines() * kBucketSize;
}

void
final_map_of(const std::unordered_map<Lba, std::uint32_t> &model,
             Inputs &in)
{
    in.final_map.clear();
    in.final_map.reserve(model.size());
    for (const auto &[lba, content] : model)
        in.final_map.push_back(WriteOp{lba, content});
    std::sort(in.final_map.begin(), in.final_map.end(),
              [](const WriteOp &a, const WriteOp &b) {
                  return a.lba < b.lba;
              });
}

/** Table 3 Write-H / Write-L through the repo's own generator. */
void
make_write_inputs(workload::WorkloadSpec spec, Inputs &in)
{
    spec.materialize_data = false;
    workload::WorkloadGenerator gen(spec);
    std::unordered_map<Lba, std::uint32_t> model;
    in.writes.reserve(kWriteEpochChunks);
    for (std::size_t i = 0; i < kWriteEpochChunks; ++i) {
        const workload::IoRequest req = gen.next();
        const WriteOp op{req.lba, static_cast<std::uint32_t>(req.content_id)};
        in.writes.push_back(op);
        model[op.lba] = op.content;
    }
    const std::uint64_t salt = content_salt(in.seed);
    in.pool.reserve(gen.unique_contents());
    for (std::uint64_t id = 0; id < gen.unique_contents(); ++id)
        in.pool.push_back(
            workload::make_chunk_content(salt + id, spec.comp_ratio));
    final_map_of(model, in);

    std::unordered_set<std::uint32_t> seen_content;
    std::unordered_set<Lba> seen_lba;
    count_writes(in.writes, seen_content, seen_lba, in.props);
}

/**
 * mixed-zipf-gc: a 16 Ki-chunk preload, then closed-loop rounds of
 * one 64-LBA Zipf(0.99) read_batch and 16 uniform overwrites, half
 * re-writing content some LBA currently holds (dedup hits), half
 * fresh content.
 */
void
make_mixed_inputs(Inputs &in)
{
    Rng rng(in.seed * 0x9E3779B97F4A7C15ull + 0x3C6EF372FE94F82Bull);
    // A slot is the container plus its commit header, page-aligned.
    in.config.container_bytes = kMixedContainerBytes;
    in.config.platform.data_ssd.capacity_bytes =
        tables::kContainerReservedBytes +
        kMixedSlotsPerSsd * (in.config.container_bytes + kPageBytes);
    in.config.gc.auto_run = true;
    in.config.chunk_cache_bytes = kMixedChunkCacheBytes;
    in.rounds = kMixedRounds;
    in.reads_per_round = kReadsPerRound;
    in.writes_per_round = kWritesPerRound;

    std::vector<std::uint32_t> model(kPreloadChunks);
    std::uint32_t next_content = 0;
    for (Lba lba = 0; lba < kPreloadChunks; ++lba) {
        model[lba] = next_content++;
        in.preload.push_back(WriteOp{lba, model[lba]});
    }

    // Zipf rank r (0 = hottest) -> LBA through a seeded permutation so
    // the hot set is scattered over the address space.
    std::vector<Lba> rank_lba(kPreloadChunks);
    for (Lba i = 0; i < kPreloadChunks; ++i)
        rank_lba[i] = i;
    for (std::size_t i = kPreloadChunks - 1; i > 0; --i)
        std::swap(rank_lba[i], rank_lba[rng.next_below(i + 1)]);
    std::vector<double> cdf(kPreloadChunks);
    double total = 0;
    for (std::size_t r = 0; r < kPreloadChunks; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf[r] = total;
    }

    std::vector<std::uint64_t> read_count(kPreloadChunks, 0);
    in.reads.reserve(in.rounds * kReadsPerRound);
    in.read_expect.reserve(in.rounds * kReadsPerRound);
    in.writes.reserve(in.rounds * kWritesPerRound);
    for (std::size_t round = 0; round < in.rounds; ++round) {
        for (std::size_t i = 0; i < kReadsPerRound; ++i) {
            const double u = rng.next_double() * total;
            const auto rank = static_cast<std::size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            const Lba lba = rank_lba[std::min(rank, kPreloadChunks - 1)];
            in.reads.push_back(lba);
            in.read_expect.push_back(model[lba]);
            ++read_count[lba];
        }
        // Exactly half duplicates, in seeded order.
        bool dup[kWritesPerRound];
        for (std::size_t i = 0; i < kWritesPerRound; ++i)
            dup[i] = i < kWritesPerRound / 2;
        for (std::size_t i = kWritesPerRound - 1; i > 0; --i)
            std::swap(dup[i], dup[rng.next_below(i + 1)]);
        for (std::size_t i = 0; i < kWritesPerRound; ++i) {
            const Lba lba = rng.next_below(kPreloadChunks);
            const std::uint32_t content =
                dup[i] ? model[rng.next_below(kPreloadChunks)]
                       : next_content++;
            in.writes.push_back(WriteOp{lba, content});
            model[lba] = content;
        }
    }

    const std::uint64_t salt = content_salt(in.seed);
    in.pool.reserve(next_content);
    for (std::uint32_t id = 0; id < next_content; ++id)
        in.pool.push_back(workload::make_chunk_content(salt + id, 0.5));
    std::unordered_map<Lba, std::uint32_t> final_model;
    for (Lba lba = 0; lba < kPreloadChunks; ++lba)
        final_model[lba] = model[lba];
    final_map_of(final_model, in);

    std::unordered_set<std::uint32_t> seen_content;
    std::unordered_set<Lba> seen_lba;
    Properties preload_props;
    count_writes(in.preload, seen_content, seen_lba, preload_props);
    count_writes(in.writes, seen_content, seen_lba, in.props);
    in.props.reads = in.reads.size();
    std::sort(read_count.begin(), read_count.end(),
              std::greater<std::uint64_t>());
    std::uint64_t covered = 0;
    for (const std::uint64_t c : read_count) {
        if (c == 0)
            break;
        ++in.props.read_lbas;
        if (covered * 10 < in.props.reads * 8) {
            covered += c;
            ++in.props.hot_lbas_80;
        }
    }
    in.props.chunk_cache_bytes = kMixedChunkCacheBytes;
}

}  // namespace

bool
make_inputs(const std::string &workload, std::uint64_t seed, Inputs &out)
{
    out = Inputs{};
    out.workload = workload;
    out.seed = seed;
    out.config = durable_config();
    if (workload == "write-h") {
        make_write_inputs(workload::write_h_spec(seed), out);
    } else if (workload == "write-l") {
        make_write_inputs(workload::write_l_spec(seed), out);
    } else if (workload == "mixed-zipf-gc") {
        make_mixed_inputs(out);
    } else {
        return false;
    }
    count_buckets(out);
    return true;
}

}  // namespace perfbench
