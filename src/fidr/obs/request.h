/**
 * @file
 * Request-scoped causal context for the FIDR data plane.
 *
 * A *request* is one unit of client-visible work whose latency we want
 * to attribute end to end: one sealed write batch traveling Fig 6a, or
 * one `read_batch()` call traveling Fig 6b.  The orchestrating thread
 * allocates a process-unique trace id per request (plus an optional
 * stream/tenant tag — the channel the future multi-tenant dimension
 * rides), and every layer that picks the request up on another thread
 * (hash-stage workers, the commit sequencer, read fetch lanes)
 * re-establishes the context with a `ScopedRequest` before running.
 *
 * Propagation is deliberately explicit: the id travels *in the work
 * item* (`nic::SealedBatch::trace_id`, the read fan-out's shard
 * body in `FidrSystem::run_read_jobs`), never through hidden queues,
 * so a record's
 * trace id always names the request the recording thread was actually
 * serving.  `Tracer::record` stamps the calling thread's current
 * context into every trace record; `Histogram::record` uses it to
 * attach tail exemplars (metrics.h).
 *
 * Cost: a `ScopedRequest` is two thread-local stores on entry and two
 * on exit; reading the context is one thread-local load.  With
 * -DFIDR_TRACE=OFF the whole class compiles to a no-op (ids are always
 * 0, no thread-local exists), so the stripped hot path is unchanged.
 */
#pragma once

#include <atomic>
#include <cstdint>

namespace fidr::obs {

/**
 * Trace-id layout: the top bits carry the originating node index so
 * ids stay unique when N in-process nodes (cluster::ClusterRouter)
 * mint from the same process-wide counter and their obs dumps are
 * merged.  Node 0 ids are numerically identical to the pre-cluster
 * scheme, so single-node traces (and their goldens) are unchanged.
 */
inline constexpr unsigned kTraceNodeShift = 54;
inline constexpr std::uint64_t kTraceSeqMask =
    (std::uint64_t{1} << kTraceNodeShift) - 1;

/** Node index embedded in a trace id (0 for single-node systems). */
constexpr std::uint32_t
trace_node(std::uint64_t trace_id)
{
    return static_cast<std::uint32_t>(trace_id >> kTraceNodeShift);
}

/** Per-process request sequence number within a trace id. */
constexpr std::uint64_t
trace_seq(std::uint64_t trace_id)
{
    return trace_id & kTraceSeqMask;
}

#if FIDR_TRACE_ENABLED

/** Allocates process-unique request trace ids (1-based; 0 = none). */
class RequestContext {
  public:
    static std::uint64_t
    next_id()
    {
        return counter().fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** next_id() tagged with the minting node's index (see above). */
    static std::uint64_t
    next_id_for_node(std::uint32_t node)
    {
        return (std::uint64_t{node} << kTraceNodeShift) | next_id();
    }

  private:
    static std::atomic<std::uint64_t> &
    counter()
    {
        static std::atomic<std::uint64_t> instance{0};
        return instance;
    }
};

/**
 * RAII request context for the calling thread.  Nests: the previous
 * context is restored on destruction, so a read issued while a batch
 * context is active (tests, compaction) unwinds correctly.
 */
class ScopedRequest {
  public:
    explicit ScopedRequest(std::uint64_t trace_id,
                           std::uint64_t stream_tag = 0)
        : prev_trace_(current().trace_id),
          prev_stream_(current().stream_tag)
    {
        current().trace_id = trace_id;
        current().stream_tag = stream_tag;
    }

    ~ScopedRequest()
    {
        current().trace_id = prev_trace_;
        current().stream_tag = prev_stream_;
    }

    ScopedRequest(const ScopedRequest &) = delete;
    ScopedRequest &operator=(const ScopedRequest &) = delete;

    /** The calling thread's current request trace id (0 = none). */
    static std::uint64_t current_trace() { return current().trace_id; }
    /** The calling thread's current stream/tenant tag (0 = none). */
    static std::uint64_t current_stream()
    { return current().stream_tag; }

  private:
    struct Context {
        std::uint64_t trace_id = 0;
        std::uint64_t stream_tag = 0;
    };

    /**
     * Function-local TLS (the trace.cc ring-cache idiom) rather than a
     * thread_local static member: the out-of-line member definition
     * routes every cross-TU access through the compiler's TLS wrapper
     * function, which GCC's combined ASan+UBSan instrumentation
     * mis-tracks (spurious "null pointer" on every access and real
     * miscompiles in the fault tests).  A function-local thread_local
     * is emitted directly in each referencing TU and sidesteps the
     * wrapper entirely.
     */
    static Context &
    current()
    {
        thread_local Context context;
        return context;
    }

    std::uint64_t prev_trace_;
    std::uint64_t prev_stream_;
};

#else  // !FIDR_TRACE_ENABLED

/** FIDR_TRACE=OFF: ids are never allocated; everything is a no-op. */
class RequestContext {
  public:
    static constexpr std::uint64_t next_id() { return 0; }
    static constexpr std::uint64_t next_id_for_node(std::uint32_t)
    { return 0; }
};

class ScopedRequest {
  public:
    explicit constexpr ScopedRequest(std::uint64_t, std::uint64_t = 0) {}
    static constexpr std::uint64_t current_trace() { return 0; }
    static constexpr std::uint64_t current_stream() { return 0; }
};

#endif  // FIDR_TRACE_ENABLED

}  // namespace fidr::obs
