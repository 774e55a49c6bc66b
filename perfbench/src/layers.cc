// The traced run's layer table: spans the benchmark recorded around
// its calls, counters and stage histograms the system publishes, and
// replays of the workload's own inputs through the public entry points
// of the hash, compress, nic and tables layers.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <span>

#include "perfbench.h"

#include "fidr/compress/lz.h"
#include "fidr/core/platform.h"
#include "fidr/hash/sha256_mb.h"
#include "fidr/nic/fidr_nic.h"
#include "fidr/ssd/ssd.h"
#include "fidr/tables/journal.h"
#include "fidr/tables/lba_pba.h"

namespace perfbench {

namespace {

using namespace fidr;

constexpr int kReplayPasses = 3;
constexpr std::size_t kHashBatch = 256;

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Sums one counter over epochs (missing = 0). */
double
counter(const std::vector<const obs::ObsSnapshot *> &snaps,
        const std::string &name)
{
    double total = 0;
    for (const obs::ObsSnapshot *s : snaps) {
        const auto it = s->counters.find(name);
        if (it != s->counters.end())
            total += static_cast<double>(it->second);
    }
    return total;
}

/** Sums one histogram's sum_ns over epochs. */
double
hist_sum(const std::vector<const obs::ObsSnapshot *> &snaps,
         const std::string &name)
{
    double total = 0;
    for (const obs::ObsSnapshot *s : snaps) {
        const auto it = s->histograms.find(name);
        if (it != s->histograms.end())
            total += static_cast<double>(it->second.sum_ns);
    }
    return total;
}

/** Median over passes of one replay's ns per item. */
template <typename Pass>
double
replay(std::size_t items, Pass &&pass)
{
    std::vector<double> per_item;
    for (int p = 0; p < kReplayPasses; ++p)
        per_item.push_back(static_cast<double>(pass()) /
                           static_cast<double>(items));
    return median(per_item);
}

/** Every write the epoch makes, set-up included, in order. */
std::vector<WriteOp>
all_writes(const Inputs &in)
{
    std::vector<WriteOp> out = in.preload;
    out.insert(out.end(), in.writes.begin(), in.writes.end());
    return out;
}

/** sha256_mb_hash over the workload's chunks in 256-chunk batches. */
double
replay_hash(const Inputs &in)
{
    const std::vector<WriteOp> writes = all_writes(in);
    std::vector<std::span<const std::uint8_t>> inputs;
    inputs.reserve(writes.size());
    for (const WriteOp &op : writes)
        inputs.emplace_back(in.pool[op.content]);
    std::vector<Digest> out(kHashBatch);
    return replay(inputs.size(), [&] {
        std::int64_t ns = 0;
        for (std::size_t base = 0; base < inputs.size(); base += kHashBatch) {
            const std::size_t n = std::min(kHashBatch, inputs.size() - base);
            const std::int64_t b = now_ns();
            sha256_mb_hash(std::span(inputs).subspan(base, n), out.data());
            ns += now_ns() - b;
        }
        return ns;
    });
}

/** LZ at the Compression Engine's level over the unique contents. */
void
replay_lz(const Inputs &in, double &compress_ns, double &decompress_ns,
          double &ratio_out)
{
    std::vector<Buffer> images(in.pool.size());
    compress_ns = replay(in.pool.size(), [&] {
        std::int64_t ns = 0;
        for (std::size_t i = 0; i < in.pool.size(); ++i) {
            const std::int64_t b = now_ns();
            images[i] = lz_compress(in.pool[i], LzLevel::kFast);
            ns += now_ns() - b;
        }
        return ns;
    });
    double raw = 0;
    double packed = 0;
    for (std::size_t i = 0; i < in.pool.size(); ++i) {
        raw += static_cast<double>(in.pool[i].size());
        packed += static_cast<double>(images[i].size());
    }
    ratio_out = ratio(packed, raw);
    decompress_ns = replay(images.size(), [&] {
        std::int64_t ns = 0;
        for (const Buffer &image : images) {
            const std::int64_t b = now_ns();
            const Result<Buffer> raw_back = lz_decompress(image);
            ns += now_ns() - b;
            FIDR_CHECK(raw_back.is_ok());
        }
        return ns;
    });
}

/** FidrNic::buffer_write of the workload's writes, 256 per batch. */
double
replay_nic(const Inputs &in)
{
    const std::vector<WriteOp> writes = all_writes(in);
    nic::FidrNic nic(in.config.nic);
    const std::size_t batch = in.config.nic.hash_batch;
    std::vector<Buffer> staged(batch);
    return replay(writes.size(), [&] {
        std::int64_t ns = 0;
        for (std::size_t base = 0; base < writes.size(); base += batch) {
            const std::size_t n = std::min(batch, writes.size() - base);
            for (std::size_t i = 0; i < n; ++i)
                staged[i] = in.pool[writes[base + i].content];
            const std::int64_t b = now_ns();
            for (std::size_t i = 0; i < n; ++i)
                FIDR_CHECK(nic.buffer_write(writes[base + i].lba,
                                            std::move(staged[i]))
                               .is_ok());
            ns += now_ns() - b;
            nic::SealedBatch *sealed = nic.seal_batch();
            FIDR_CHECK(sealed != nullptr);
            nic.drop_sealed(sealed->epoch);
        }
        return ns;
    });
}

/** MetadataJournal::append of one map record per write. */
double
replay_journal(const Inputs &in)
{
    const std::vector<WriteOp> writes = all_writes(in);
    return replay(writes.size(), [&] {
        ssd::SsdConfig cfg = in.config.platform.table_ssd;
        ssd::Ssd ssd(cfg);
        tables::MetadataJournal journal(ssd, 0, in.config.journal_bytes);
        tables::JournalRecord rec;
        rec.op = tables::JournalOp::kMapLba;
        const std::int64_t b = now_ns();
        for (const WriteOp &op : writes) {
            rec.lba = op.lba;
            rec.pbn = op.content;
            FIDR_CHECK(journal.append(rec).is_ok());
        }
        return now_ns() - b;
    });
}

/** LbaPbaTable::lookup over the final map, in write order. */
double
replay_lba_lookup(const Inputs &in)
{
    tables::LbaPbaTable table;
    for (const WriteOp &op : in.final_map) {
        table.map_lba(op.lba, op.content);
        tables::ChunkLocation loc;
        loc.container_id = op.content / 1024;
        loc.offset_units = static_cast<std::uint16_t>(op.content % 1024);
        loc.compressed_size = 2048;
        table.set_location(op.content, loc);
    }
    std::vector<Lba> probes;
    for (const WriteOp &op : in.final_map)
        probes.push_back(op.lba);
    std::uint64_t found = 0;
    const double ns = replay(probes.size(), [&] {
        const std::int64_t b = now_ns();
        for (const Lba lba : probes)
            found += table.lookup(lba).has_value() ? 1 : 0;
        return now_ns() - b;
    });
    FIDR_CHECK(found == probes.size() * kReplayPasses);
    return ns;
}

/** Lowercase slug of a ledger tag: runs of non-alnum become '_'. */
std::string
slug(const std::string &tag)
{
    std::string out;
    for (const char c : tag) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            out.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        } else if (!out.empty() && out.back() != '_') {
            out.push_back('_');
        }
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

}  // namespace

LayerTable
layer_metrics(const Inputs &in, const std::vector<const EpochResult *> &traced,
              double overhead)
{
    LayerTable t;
    const auto add = [&t](const std::string &name, double value,
                          const char *unit) {
        t.push_back({name, {value, unit}});
    };

    std::vector<const obs::ObsSnapshot *> snaps;
    std::vector<const obs::ObsSnapshot *> read_snaps;
    const bool mixed = in.rounds > 0;
    for (const EpochResult *e : traced) {
        snaps.push_back(&e->snapshot);
        // The write workloads read only in the post-recovery check.
        read_snaps.push_back(mixed ? &e->snapshot : &e->readback_snapshot);
    }
    const double epochs = static_cast<double>(traced.size());
    const double chunks = counter(snaps, "write.chunks");
    const double read_chunks = counter(read_snaps, "read.chunks");
    double client = 0;
    for (const EpochResult *e : traced)
        client += e->fingerprint.at("client_bytes");

    // core: benchmark-side spans around the public calls.
    double write_ns = 0, sealing_ns = 0, write_calls = 0;
    double read_ns = 0, read_items = 0;
    std::vector<double> flush_ms, recover_ms, gc_p99_us, gc_steps;
    std::vector<double> stalls;
    for (const EpochResult *e : traced) {
        for (const Span &s : e->spans.spans()) {
            const double d = static_cast<double>(s.end_ns - s.start_ns);
            if (std::strcmp(s.name, "core.write") == 0) {
                write_ns += d;
                write_calls += 1;
                if (s.sealed)
                    sealing_ns += d;
            } else if (std::strcmp(s.name, "core.read_batch") == 0) {
                // Mixed: the timed rounds; write workloads: the
                // read-back, their only reads.
                const std::string &parent =
                    s.parent >= 0 ? e->spans.spans()[s.parent].name : "";
                if (parent == (mixed ? "timed" : "check")) {
                    read_ns += d;
                    read_items += s.items;
                }
            }
        }
        flush_ms.push_back(static_cast<double>(e->flush_ns) / 1e6);
        recover_ms.push_back(static_cast<double>(e->recover_ns) / 1e6);
        const auto pause = e->snapshot.histograms.find("gc.pause_ns");
        gc_p99_us.push_back(pause == e->snapshot.histograms.end()
                                ? 0.0
                                : static_cast<double>(pause->second.p99_ns) /
                                      1e3);
        gc_steps.push_back(static_cast<double>(e->gc.steps));
        stalls.push_back(static_cast<double>(
            e->snapshot.counters.count("pipeline.stalls")
                ? e->snapshot.counters.at("pipeline.stalls")
                : 0));
    }
    add("core.write.ns_per_chunk", ratio(write_ns, write_calls), "ns");
    add("core.write.sealing_share", ratio(sealing_ns, write_ns), "share");
    add("core.flush_ms", median(flush_ms), "ms");
    add("core.read_batch.ns_per_chunk", ratio(read_ns, read_items), "ns");
    add("core.tracing_overhead", overhead, "ratio");

    // pipeline (write_pipeline) from the snapshot.
    const double hash_busy = hist_sum(snaps, "pipeline.stage.hash.busy_ns");
    const double exec_busy = hist_sum(snaps, "pipeline.stage.execute.busy_ns");
    add("pipeline.hash.busy_ns_per_chunk", ratio(hash_busy, chunks), "ns");
    add("pipeline.execute.busy_ns_per_chunk", ratio(exec_busy, chunks), "ns");
    add("pipeline.submit_stall_ns_per_chunk",
        ratio(hist_sum(snaps, "pipeline.submit_stall_ns"), chunks), "ns");
    add("pipeline.stalls", median(stalls), "count");
    add("pipeline.overlap_share",
        ratio(counter(snaps, "pipeline.overlap_ns"), exec_busy), "share");

    // write stages: the execute stage's disjoint children, plus the
    // journal (nested inside container_append and map_update).
    double attributed = 0;
    for (const char *stage :
         {"write.digest_xfer", "write.bucket_index", "write.dedup_resolve",
          "write.verdict_xfer", "write.compress", "write.container_append",
          "write.map_update"})
        attributed += hist_sum(snaps, stage);
    for (const char *stage :
         {"write.hash", "write.dedup_resolve", "write.compress",
          "write.container_append", "write.journal", "write.map_update"})
        add(std::string(stage) + ".ns_per_chunk",
            ratio(hist_sum(snaps, stage), chunks), "ns");
    add("write.unattributed_share", ratio(exec_busy - attributed, exec_busy),
        "share");

    // hash / compress / nic replays.
    add("hash.sha256_mb.ns_per_chunk", replay_hash(in), "ns");
    double lz_c = 0, lz_d = 0, lz_ratio = 0;
    replay_lz(in, lz_c, lz_d, lz_ratio);
    add("compress.lz_compress.ns_per_chunk", lz_c, "ns");
    add("compress.lz_decompress.ns_per_chunk", lz_d, "ns");
    add("compress.ratio", lz_ratio, "ratio");
    add("nic.buffer_write.ns", replay_nic(in), "ns");
    add("nic.read_hits", counter(read_snaps, "read.nic_buffer_hits") / epochs,
        "count");

    // table cache, dedup, hwtree.
    const double t_hits = counter(snaps, "cache.hits");
    const double t_miss = counter(snaps, "cache.misses");
    add("cache.table.hit_rate", ratio(t_hits, t_hits + t_miss), "share");
    add("cache.table.evictions_per_kchunk",
        ratio(1000 * counter(snaps, "cache.evictions"), chunks), "count");
    double table_reads = 0;
    for (const EpochResult *e : traced)
        table_reads += e->fingerprint.at("ssd.table.read_ios");
    add("ssd.table.read_ios_per_kchunk", ratio(1000 * table_reads, chunks),
        "count");
    add("dedup.duplicate_share",
        ratio(counter(snaps, "write.duplicate_chunks"), chunks), "share");
    add("hwtree.crash_rate",
        ratio(counter(snaps, "tree.crashes"), counter(snaps, "tree.updates")),
        "share");

    // chunk cache + read plane.
    const double c_hits = counter(read_snaps, "read.cache.hits");
    const double c_miss = counter(read_snaps, "read.cache.misses");
    const double fetches = counter(read_snaps, "read.ssd_fetches");
    add("cache.chunk.hit_rate", ratio(c_hits, c_hits + c_miss), "share");
    add("cache.chunk.warm_hit_share",
        ratio(counter(read_snaps, "read.cache.warm.hits"), c_hits), "share");
    add("cache.chunk.demotions",
        counter(read_snaps, "read.cache.demotions") / epochs, "count");
    for (const char *stage :
         {"read.lba_resolve", "read.ssd_fetch", "read.decompress"})
        add(std::string(stage) + ".ns_per_chunk",
            ratio(hist_sum(read_snaps, stage), read_chunks), "ns");
    add("read.ssd_fetches_per_chunk", ratio(fetches, read_chunks), "ratio");
    const double jobs = c_hits + fetches;
    const double nic_hits = counter(read_snaps, "read.nic_buffer_hits");
    add("read.coalesced_share",
        ratio(read_chunks - nic_hits - jobs, read_chunks), "share");

    // tables.
    add("tables.journal_records_per_write",
        ratio(counter(snaps, "journal.records"), chunks), "ratio");
    add("tables.journal.append_ns", replay_journal(in), "ns");
    add("tables.lba_pba.lookup_ns", replay_lba_lookup(in), "ns");
    add("tables.recover_ms", median(recover_ms), "ms");

    // gc.
    double relocated = 0, steps = 0, concurrent = 0;
    for (const EpochResult *e : traced) {
        relocated += static_cast<double>(e->gc.relocated_bytes);
        steps += static_cast<double>(e->gc.steps);
        concurrent += static_cast<double>(e->gc.concurrent_steps);
    }
    add("gc.steps", median(gc_steps), "count");
    add("gc.relocated_bytes_per_user_byte", ratio(relocated, client), "B/B");
    add("gc.pause_p99_us", median(gc_p99_us), "us");
    add("gc.concurrent_step_share", ratio(concurrent, steps), "share");

    // pcie: each Table 1 host-DRAM ledger row per client byte.
    for (const std::string *tag :
         {&core::memtag::kNicHost, &core::memtag::kPrediction,
          &core::memtag::kFpga, &core::memtag::kTableCache,
          &core::memtag::kDataSsd, &core::memtag::kChunkCache}) {
        double bytes = 0;
        for (const EpochResult *e : traced)
            for (const auto &[row, value] : e->dram_rows)
                if (row == *tag)
                    bytes += value;
        add("pcie.host_dram." + slug(*tag) + "_bytes_per_user_byte",
            ratio(bytes, client), "B/B");
    }
    return t;
}

}  // namespace perfbench
