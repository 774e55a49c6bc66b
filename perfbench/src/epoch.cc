// One epoch: a fresh core::FidrSystem driven through its public calls
// by one closed-loop client thread.  Only system calls sit inside the
// timed brackets; payload copies, verification and the correctness
// gate run between them, while the pipeline is idle or outside the
// timed phase altogether.

#include <algorithm>
#include <memory>
#include <span>

#include "perfbench.h"

#include "fidr/core/perf_model.h"

namespace perfbench {

namespace {

using namespace fidr;

constexpr std::size_t kReadBatch = 64;
constexpr std::size_t kRoundsPerSegment = 250;
constexpr std::size_t kMaxErrors = 8;

void
note(EpochResult &r, const std::string &what)
{
    ++r.failed;
    if (r.errors.size() < kMaxErrors)
        r.errors.push_back(what);
}

void
check(EpochResult &r, const Status &status, const char *what)
{
    ++r.attempted;
    if (!status.is_ok())
        note(r, std::string(what) + ": " + status.to_string());
}

/** Model metrics and deterministic counts after the timed phase. */
void
capture_model(const core::FidrSystem &sys, EpochResult &r)
{
    r.snapshot = sys.obs_snapshot();
    r.gc = sys.gc_stats();
    const core::Platform &platform = sys.platform();
    const core::ReductionStats &red = sys.reduction();
    const double client =
        static_cast<double>((red.chunks_written + red.chunks_read) *
                            kChunkSize);
    const double flash =
        static_cast<double>(platform.data_ssds().total_bytes_written() +
                            platform.table_ssd().bytes_written());
    // The projection clamps at the 75 GB/s PCIe target, which Write-H
    // always reaches; the binding resource ceiling below the clamp is
    // what a change can move.
    const core::Projection proj = core::project(sys);
    const std::pair<double, const char *> ceilings[] = {
        {proj.mem_cap, "host DRAM bandwidth"},
        {proj.cpu_cap, "CPU cores"},
        {proj.tree_cap, "Cache HW-Engine"},
        {proj.table_ssd_cap, "table SSD bandwidth"},
    };
    const auto &binding = *std::min_element(
        std::begin(ceilings), std::end(ceilings),
        [](const auto &a, const auto &b) { return a.first < b.first; });
    r.bottleneck = binding.second;

    auto &v = r.fingerprint;
    v["stored_bytes_per_user_byte"] =
        static_cast<double>(red.stored_bytes) /
        static_cast<double>(red.raw_bytes);
    v["flash_bytes_written_per_user_byte"] = flash / client;
    v["host_dram_bytes_per_user_byte"] =
        platform.fabric().host_memory().total() / client;
    v["host_cpu_core_us_per_mib"] =
        platform.cpu().ledger().total() * 1e6 /
        (client / static_cast<double>(kMiB));
    v["model_gb_per_s"] = binding.first / 1e9;
    v["model_clamped_gb_per_s"] = proj.throughput() / 1e9;
    v["client_bytes"] = client;
    v["ssd.table.read_ios"] =
        static_cast<double>(platform.table_ssd().read_ios());
    v["ssd.table.bytes_written"] =
        static_cast<double>(platform.table_ssd().bytes_written());
    v["ssd.data.bytes_written"] = static_cast<double>(
        platform.data_ssds().total_bytes_written());
    // Counts that do not depend on thread timing.  Left out on
    // purpose: pipeline stalls/overlap and gc.concurrent_steps, which
    // witness how threads interleaved.
    for (const char *name :
         {"write.chunks", "write.unique_chunks", "write.duplicate_chunks",
          "write.stored_bytes", "read.chunks", "read.nic_buffer_hits",
          "read.ssd_fetches", "read.cache.hits", "read.cache.misses",
          "read.cache.warm.hits", "read.cache.demotions",
          "journal.records", "cache.hits", "cache.misses",
          "cache.evictions", "tree.crashes", "tree.updates",
          "gc.steps", "gc.relocated_bytes", "gc.containers_reclaimed",
          "pipeline.batches"}) {
        const auto it = r.snapshot.counters.find(name);
        v[name] = it == r.snapshot.counters.end()
                      ? -1.0
                      : static_cast<double>(it->second);
    }
    for (const sim::LedgerRow &row :
         platform.fabric().host_memory().report())
        r.dram_rows.emplace_back(row.tag, row.value);
}

/** Crash + recover, full read-back, fsck, validate (all untimed). */
void
correctness_gate(core::FidrSystem &sys, const Inputs &in, bool timed_reads,
                 EpochResult &r)
{
    SpanLog &spans = r.spans;
    const std::int32_t gate = r.traced ? spans.open("check") : -1;

    std::int64_t b = now_ns();
    check(r, sys.simulate_crash_and_recover(), "simulate_crash_and_recover");
    r.recover_ns = now_ns() - b;
    if (r.traced)
        spans.add("check.crash_recover", b, b + r.recover_ns, 0);

    std::vector<Lba> lbas;
    lbas.reserve(kReadBatch);
    bool self_tested = false;
    for (std::size_t base = 0; base < in.final_map.size();
         base += kReadBatch) {
        const std::size_t n =
            std::min(kReadBatch, in.final_map.size() - base);
        lbas.clear();
        for (std::size_t i = 0; i < n; ++i)
            lbas.push_back(in.final_map[base + i].lba);
        b = now_ns();
        const std::vector<Result<Buffer>> got = sys.read_batch(lbas);
        const std::int64_t e = now_ns();
        // The write workloads have no timed reads: their read_batch
        // figures come from this cold post-recovery read-back.
        if (!timed_reads)
            r.read_batch_ns.push_back(e - b);
        if (r.traced)
            spans.add("core.read_batch", b, e,
                      static_cast<std::uint32_t>(n));
        for (std::size_t i = 0; i < n; ++i) {
            ++r.attempted;
            const WriteOp &want = in.final_map[base + i];
            if (!slot_matches(got[i], in.pool[want.content]))
                note(r, "read-back LBA " + std::to_string(want.lba) +
                            " lost or wrong after recovery");
        }
        if (!self_tested && n > 0) {
            // Negative self-test: the verifier must reject a payload
            // that differs from the acknowledged one in a single byte.
            Buffer wrong = in.pool[in.final_map[base].content];
            wrong[wrong.size() / 2] ^= 0x5A;
            ++r.attempted;
            if (slot_matches(got[0], wrong))
                note(r, "verifier accepted a deliberately wrong payload");
            self_tested = true;
        }
    }
    r.readback_snapshot = sys.obs_snapshot();

    b = now_ns();
    Result<core::FidrSystem::FsckReport> fsck = sys.fsck();
    ++r.attempted;
    if (!fsck.is_ok())
        note(r, "fsck: " + fsck.status().to_string());
    else if (!fsck.value().clean())
        note(r, "fsck found inconsistencies");
    if (r.traced)
        spans.add("check.fsck", b, now_ns(), 0);
    b = now_ns();
    check(r, sys.validate(), "validate");
    if (r.traced) {
        spans.add("check.validate", b, now_ns(), 0);
        spans.close(gate);
    }
}

/** Closes the current throughput segment at the running totals. */
void
cut_segment(EpochResult &r)
{
    std::int64_t ns = r.call_ns;
    std::uint64_t chunks = r.call_chunks;
    for (const EpochResult::Segment &s : r.segments) {
        ns -= s.ns;
        chunks -= s.chunks;
    }
    r.segments.push_back({ns, chunks});
}

/** Timed write(): latency sample, call time, span, failure count. */
inline void
timed_write(core::FidrSystem &sys, const WriteOp &op, Buffer &&data,
            EpochResult &r)
{
    const std::int64_t b = now_ns();
    const Status st = sys.write(op.lba, std::move(data));
    const std::int64_t e = now_ns();
    r.write_ns.push_back(e - b);
    r.call_ns += e - b;
    ++r.call_chunks;
    if (r.traced) {
        // An empty open NIC buffer after the call means it sealed one.
        r.spans.add("core.write", b, e, 1,
                    sys.nic_model().buffered_chunks() == 0);
    }
    ++r.attempted;
    if (!st.is_ok())
        note(r, "write LBA " + std::to_string(op.lba) + ": " +
                    st.to_string());
}

}  // namespace

bool
slot_matches(const Result<Buffer> &slot, const Buffer &expect)
{
    return slot.is_ok() && slot.value() == expect;
}

EpochResult
run_epoch(const Inputs &in, bool traced)
{
    EpochResult r;
    r.traced = traced;
    SpanLog &spans = r.spans;
    const bool mixed = in.rounds > 0;

    // Payloads are copied out of the pool here, before timing; timed
    // writes move them in.  The mixed rounds copy their 16 payloads
    // after each read_batch, while the pipeline is quiesced.
    std::vector<Buffer> preload;
    preload.reserve(in.preload.size());
    for (const WriteOp &op : in.preload)
        preload.push_back(in.pool[op.content]);
    std::vector<Buffer> payload;
    if (!mixed) {
        payload.reserve(in.writes.size());
        for (const WriteOp &op : in.writes)
            payload.push_back(in.pool[op.content]);
    }
    if (traced)
        spans.reserve(in.writes.size() + in.rounds +
                      in.final_map.size() / kReadBatch + 16);

    const std::int32_t root = traced ? spans.open("epoch") : -1;
    const std::int32_t setup = traced ? spans.open("setup") : -1;
    const std::int64_t setup_begin = now_ns();
    auto sys = std::make_unique<core::FidrSystem>(in.config);
    for (std::size_t i = 0; i < in.preload.size(); ++i)
        check(r, sys->write(in.preload[i].lba, std::move(preload[i])),
              "preload write");
    if (!in.preload.empty())
        check(r, sys->flush(), "preload flush");
    r.setup_s = static_cast<double>(now_ns() - setup_begin) / 1e9;
    if (traced)
        spans.close(setup);

    const std::int32_t timed = traced ? spans.open("timed") : -1;
    if (!mixed) {
        r.write_ns.reserve(in.writes.size());
        for (std::size_t i = 0; i < in.writes.size(); ++i)
            timed_write(*sys, in.writes[i], std::move(payload[i]), r);
    } else {
        r.write_ns.reserve(in.writes.size());
        r.read_batch_ns.reserve(in.rounds);
        std::vector<Buffer> round_payload(in.writes_per_round);
        for (std::size_t round = 0; round < in.rounds; ++round) {
            const std::span<const Lba> lbas(
                &in.reads[round * in.reads_per_round], in.reads_per_round);
            const std::int64_t b = now_ns();
            const std::vector<Result<Buffer>> got = sys->read_batch(lbas);
            const std::int64_t e = now_ns();
            r.read_batch_ns.push_back(e - b);
            r.call_ns += e - b;
            r.call_chunks += lbas.size();
            if (traced)
                spans.add("core.read_batch", b, e,
                          static_cast<std::uint32_t>(lbas.size()));
            for (std::size_t i = 0; i < lbas.size(); ++i) {
                ++r.attempted;
                const std::uint32_t want =
                    in.read_expect[round * in.reads_per_round + i];
                if (!slot_matches(got[i], in.pool[want]))
                    note(r, "round " + std::to_string(round) + " LBA " +
                                std::to_string(lbas[i]) +
                                " differs from its last acked write");
            }
            const WriteOp *ops = &in.writes[round * in.writes_per_round];
            for (std::size_t i = 0; i < in.writes_per_round; ++i)
                round_payload[i] = in.pool[ops[i].content];
            for (std::size_t i = 0; i < in.writes_per_round; ++i)
                timed_write(*sys, ops[i], std::move(round_payload[i]), r);
            if ((round + 1) % kRoundsPerSegment == 0 && round + 1 < in.rounds)
                cut_segment(r);
        }
    }
    {
        const std::int64_t b = now_ns();
        const Status st = sys->flush();
        r.flush_ns = now_ns() - b;
        r.call_ns += r.flush_ns;
        if (traced)
            spans.add("core.flush", b, b + r.flush_ns, 0);
        check(r, st, "closing flush");
        cut_segment(r);
    }
    if (traced)
        spans.close(timed);

    capture_model(*sys, r);
    correctness_gate(*sys, in, mixed, r);
    if (traced)
        spans.close(root);
    return r;
}

}  // namespace perfbench
