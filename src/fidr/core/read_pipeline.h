/**
 * @file
 * Batched Fig 6b read plane: container coalescing + lane fan-out.
 *
 * `FidrSystem::read_batch` mirrors what core::WritePipeline did for
 * Fig 6a — it splits the read flow into what is pure per-chunk work
 * and what is order-sensitive shared-state mutation, and only the
 * former fans out:
 *
 *   1. *Resolve* (serial, input order): NIC LBA-lookup short-circuit,
 *      LBA transfer + CPU billing, LBA->PBA lookup.  Serial because it
 *      bills ledgers and touches the mapping table.
 *   2. *Coalesce* (serial): slots whose LBAs resolve to the same
 *      physical chunk — duplicates under dedup, or the same LBA twice
 *      in a batch — collapse into one ReadJob, in first-occurrence
 *      order, so each chunk is fetched and decompressed exactly once.
 *   3. *Fetch + decompress* (parallel): each job the hot cache tier
 *      did not serve gets its compressed image (already in hand for a
 *      warm hit, from the spill ring for a spill hit, from the
 *      container log for a miss) and decompresses it.  Pure per-job
 *      work: flash page copies, the LZ kernel, and job-local retry
 *      counting only.  Fanned across `FidrConfig::read_lanes` by this
 *      class.
 *   4. *Bill + return* (serial, job then input order): every fabric
 *      DMA, per-SSD attribution, histogram, fault-stat merge and
 *      cache fill runs on the orchestrating thread after the join, so
 *      results and ledgers are bit-identical across lane counts —
 *      the same determinism contract as test_parallel_determinism.
 *
 * This file owns the job shape and the fan-out; the serial stages
 * live in FidrSystem::read_batch because they touch its state.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fidr/cache/chunk_cache.h"
#include "fidr/common/status.h"
#include "fidr/common/thread_pool.h"
#include "fidr/common/types.h"
#include "fidr/tables/lba_pba.h"

namespace fidr::core {

/** One coalesced physical-chunk read serving >= 1 batch slots. */
struct ReadJob {
    tables::ChunkLocation location;
    /** Data SSD holding the chunk's container (per-SSD billing). */
    std::size_t source_ssd = 0;
    /** Batch slot indexes this job's payload serves (>= 1). */
    std::vector<std::size_t> slots;

    /** Which cache tier answered the probe (kNone = miss).  kHot
     *  carries `payload` and skips the lane stage; kWarm carries
     *  `compressed`; kSpill carries `spill`.  A spill read that fails
     *  in the lane falls back to the container fetch and turns the
     *  job into a miss (billed and filled as one). */
    cache::CacheTier tier = cache::CacheTier::kNone;
    bool fetch_ok = false;        ///< Compressed image in hand.
    Buffer payload;               ///< Decompressed chunk when ok.
    /** The chunk's compressed image: from the warm tier (resolve
     *  stage), the spill ring or the container fetch (lane stage).
     *  Feeds the two-tier cache fill after the join. */
    Buffer compressed;
    cache::SpillRef spill;        ///< kSpill: where the image lives.
    /** Transient-retry attempts consumed by the fetch (job-local;
     *  merged into FaultStats serially after the join). */
    unsigned fetch_attempts = 0;
    Status status;                ///< First fetch/decompress error.
    bool ready = false;           ///< Set serially once billed + ok.

    std::uint64_t fetch_ns = 0;
    std::uint64_t decompress_ns = 0;
};

/**
 * The fan-out stage of the read plane: runs a pure per-job body over
 * the pending jobs on up to `lanes` threads.  Follows the
 * compress_lanes convention: 0 = one lane per hardware thread,
 * 1 = serial on the calling thread (no pool is created, so the
 * single-lane path has zero dispatch overhead — the PR 4 inline
 * discipline).
 */
class ReadPipeline {
  public:
    explicit ReadPipeline(std::size_t lanes);

    /** Resolved lane count (>= 1). */
    std::size_t lanes() const { return lanes_; }

    /**
     * Runs `body(jobs[pending[i]])` for every pending index.  The body
     * must only touch its own job (see the file contract); the call
     * blocks until every job finished.
     *
     * `trace_id`/`stream_tag` name the read request the jobs belong to
     * (obs/request.h): each worker lane re-establishes that context so
     * fetch/decompress records on pool threads join the request's
     * causal chain.  The inline single-lane path inherits the caller's
     * context and ignores them.
     */
    void run(std::vector<ReadJob> &jobs,
             const std::vector<std::size_t> &pending,
             const std::function<void(ReadJob &)> &body,
             std::uint64_t trace_id = 0, std::uint64_t stream_tag = 0);

  private:
    std::size_t lanes_ = 1;
    /** Null when lanes_ == 1 (inline execution). */
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fidr::core
