/**
 * @file
 * Shared types of the repository benchmark (perfbench/README.md):
 * seeded workload inputs, the per-epoch driver that calls
 * core::FidrSystem through its public entry points, and the traced
 * run's span log and layer table.
 *
 * A run is a sequence of *epochs*.  Each epoch constructs a fresh
 * system and replays the same seeded inputs through it, so memory
 * stays bounded however long the run measures, set-up is sampled
 * once per epoch, and every epoch doubles as a same-seed determinism
 * check against the first.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fidr/common/types.h"
#include "fidr/core/fidr_system.h"

namespace perfbench {

using fidr::Buffer;
using fidr::Lba;

/** Monotonic nanoseconds (steady_clock). */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median (mean of the middle two for an even count); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** One client write: LBA plus an index into Inputs::pool. */
struct WriteOp {
    Lba lba = 0;
    std::uint32_t content = 0;
};

/** Measured properties of one workload's inputs, with their bases. */
struct Properties {
    std::uint64_t writes = 0;           ///< Client write chunks.
    std::uint64_t reads = 0;            ///< Client read chunks.
    std::uint64_t duplicate_writes = 0; ///< Content already written.
    std::uint64_t overwrites = 0;       ///< LBA already holding data.
    std::uint64_t buckets_touched = 0;  ///< Distinct Hash-PBN buckets.
    std::uint64_t dup_buckets = 0;      ///< Buckets duplicates revisit.
    std::uint64_t table_cache_lines = 0;
    std::uint64_t table_cache_bytes = 0;
    std::uint64_t read_lbas = 0;        ///< Distinct LBAs read.
    std::uint64_t hot_lbas_80 = 0;      ///< LBAs covering 80% of reads.
    std::uint64_t chunk_cache_bytes = 0;
};

/** A workload's seeded inputs, generated before any timing. */
struct Inputs {
    std::string workload;
    std::uint64_t seed = 0;
    fidr::core::FidrConfig config;
    /** Content bytes, indexed by WriteOp::content. */
    std::vector<Buffer> pool;
    /** Set-up writes (mixed-zipf-gc's preload), part of `setup_s`. */
    std::vector<WriteOp> preload;
    /** Timed writes: the whole stream for the write workloads, or
     *  `writes_per_round` per round for mixed-zipf-gc. */
    std::vector<WriteOp> writes;
    /** Mixed rounds: `reads_per_round` LBAs each, with the content
     *  each slot must return (the model's last acknowledged write). */
    std::vector<Lba> reads;
    std::vector<std::uint32_t> read_expect;
    std::size_t rounds = 0;
    std::size_t reads_per_round = 0;
    std::size_t writes_per_round = 0;
    /** Final LBA -> content, ascending by LBA (the read-back set). */
    std::vector<WriteOp> final_map;
    Properties props;
};

/** Builds the inputs of `workload` for `seed`; false for an unknown
 *  workload name. */
bool make_inputs(const std::string &workload, std::uint64_t seed,
                 Inputs &out);

/** One benchmark-side span around a call into a layer. */
struct Span {
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;   ///< Index into the log, -1 = root.
    std::uint32_t items = 0;    ///< Chunks the call carried.
    bool sealed = false;        ///< write(): the call sealed a batch.
};

/** In-memory span log of one traced epoch. */
class SpanLog {
  public:
    std::int32_t
    open(const char *name)
    {
        Span span;
        span.name = name;
        span.parent = current_;
        span.start_ns = now_ns();
        spans_.push_back(span);
        current_ = static_cast<std::int32_t>(spans_.size() - 1);
        return current_;
    }

    void
    close(std::int32_t id)
    {
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        current_ = spans_[static_cast<std::size_t>(id)].parent;
    }

    /** Appends a span already timed by the caller (leaf calls). */
    void
    add(const char *name, std::int64_t start, std::int64_t end,
        std::uint32_t items, bool sealed = false)
    {
        Span span;
        span.name = name;
        span.start_ns = start;
        span.end_ns = end;
        span.parent = current_;
        span.items = items;
        span.sealed = sealed;
        spans_.push_back(span);
    }

    void reserve(std::size_t n) { spans_.reserve(n); }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::int32_t current_ = -1;
};

/**
 * Everything bit-identical across same-seed epochs: the model
 * metrics and the system's deterministic counts.  Compared exactly.
 */
using Fingerprint = std::map<std::string, double>;

/** Wall + model figures and counters of one epoch. */
struct EpochResult {
    bool traced = false;
    double setup_s = 0;
    /** Time inside timed system calls and the chunks they carried. */
    std::int64_t call_ns = 0;
    std::uint64_t call_chunks = 0;
    /** The same, cut into consecutive segments of the timed phase: the
     *  whole epoch for the write workloads, 250 rounds for the mixed
     *  one (the closing flush joins the last segment). */
    struct Segment {
        std::int64_t ns = 0;
        std::uint64_t chunks = 0;
    };
    std::vector<Segment> segments;
    std::vector<std::int64_t> write_ns;
    std::vector<std::int64_t> read_batch_ns;
    std::int64_t flush_ns = 0;
    std::int64_t recover_ns = 0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Model metrics + counts (compared across epochs). */
    Fingerprint fingerprint;
    /** obs_snapshot() after the timed phase and after the read-back. */
    fidr::obs::ObsSnapshot snapshot;
    fidr::obs::ObsSnapshot readback_snapshot;
    fidr::core::GcStats gc;
    std::vector<std::pair<std::string, double>> dram_rows;
    std::string bottleneck;
    SpanLog spans;
};

/**
 * Runs one epoch: construct + set up, the timed calls, then the
 * untimed correctness gate (crash + recover, full read-back, fsck,
 * validate).  `traced` also records the traced run's spans.
 */
EpochResult run_epoch(const Inputs &inputs, bool traced);

/**
 * Compares one read_batch slot with the content the model expects.
 * Returns false for a non-ok slot or any differing byte.
 */
bool slot_matches(const fidr::Result<Buffer> &slot, const Buffer &expect);

/** Name -> (value, unit) metrics, in print order. */
using LayerTable = std::vector<std::pair<std::string,
                                         std::pair<double, std::string>>>;

/**
 * Per-layer metrics from the traced epochs' spans, snapshots and
 * counters, plus replays of the inputs through the hash, compress,
 * nic and tables layers.  `overhead` is traced / untraced chunks/s.
 */
LayerTable layer_metrics(const Inputs &inputs,
                         const std::vector<const EpochResult *> &traced,
                         double overhead);

}  // namespace perfbench
