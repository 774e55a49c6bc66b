// Write-path pipelining sweep: drives the Table 3 workloads through
// the FIDR write path at in-flight depths 1/2/4/8, measuring real
// elapsed time plus the pipeline's own stage-occupancy histograms
// (hash busy, execute busy, submit stalls).
//
// The interesting signal is *overlap*: at depth 1 the NIC hash stage
// and the commit sequencer run back to back on the caller; at
// depth >= 4 the hash stage of batch E+1 runs concurrently with the
// execution of batch E.  The pipeline measures that directly
// (`overlap_s`, the wall time a hash task and the sequencer were
// simultaneously active) and the sweep also reports the classic
// aggregate-busy/wall ratio — on multi-lane hosts both exceed their
// depth-1 values and depth 4 must beat depth 1 outright, judged as the
// median speedup over alternating depth-1/depth-N pairs of runs (one
// cell pair is too noisy on a shared host).  On a
// one-lane host the OS runs exactly one stage at a time (CV hand-offs
// coincide with scheduler wake-ups), so wall-clock coexistence is
// structurally ~0 there; the occupancy evidence is the queue instead:
// the submitter held >= 2 batches in flight and hit admission control
// (`queue_depth_p95`, `stalls`).
//
// Reduction results are asserted bit-identical across every depth
// cell on every run — the pipeline's determinism
// contract (tests/test_pipeline_determinism.cpp checks the stronger
// ledger/journal/LBA-image identity).
//
// Emits BENCH_pipeline.json via the harness's uniform JsonReport
// schema.  `--smoke` shrinks the request count and sweep for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
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

/** Sum of a snapshot histogram, in seconds (mean * count). */
double
hist_busy_s(const obs::ObsSnapshot &snap, const std::string &name)
{
    const auto it = snap.histograms.find(name);
    if (it == snap.histograms.end())
        return 0.0;
    return it->second.mean_ns * static_cast<double>(it->second.count) /
           1e9;
}

std::uint64_t
counter_of(const obs::ObsSnapshot &snap, const std::string &name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

struct DepthRun {
    std::size_t depth = 0;
    double seconds = 0;
    double chunks_per_s = 0;
    double hash_busy_s = 0;
    double execute_busy_s = 0;
    double stall_s = 0;
    double overlap_s = 0;      ///< Measured hash||execute wall time.
    double overlap_ratio = 0;  ///< (hash + execute busy) / wall.
    std::uint64_t batches = 0;
    std::uint64_t stalls = 0;
    std::uint64_t queue_depth_p95 = 0;
    core::ReductionStats stats;
};

DepthRun
run_sweep_cell(std::size_t depth,
               const std::vector<workload::IoRequest> &requests)
{
    core::FidrConfig config;
    config.platform = bench::eval_platform();
    config.in_flight_batches = depth;
    core::FidrSystem system(config);

    const double t0 = now_s();
    for (const workload::IoRequest &req : requests) {
        Status status;
        if (req.dir == IoDir::kWrite) {
            Buffer data = req.data;
            status = system.write(req.lba, std::move(data));
        } else {
            status = system.read(req.lba).status();
        }
        if (!status.is_ok()) {
            std::fprintf(stderr, "request failed: %s\n",
                         status.to_string().c_str());
            std::abort();
        }
    }
    const Status flushed = system.flush();
    if (!flushed.is_ok()) {
        std::fprintf(stderr, "flush failed: %s\n",
                     flushed.to_string().c_str());
        std::abort();
    }
    const double elapsed = now_s() - t0;

    const obs::ObsSnapshot snap = system.obs_snapshot();
    DepthRun run;
    run.depth = depth;
    run.seconds = elapsed;
    run.chunks_per_s = static_cast<double>(requests.size()) / elapsed;
    run.hash_busy_s = hist_busy_s(snap, "pipeline.stage.hash.busy_ns");
    run.execute_busy_s =
        hist_busy_s(snap, "pipeline.stage.execute.busy_ns");
    run.stall_s = hist_busy_s(snap, "pipeline.submit_stall_ns");
    run.overlap_s =
        static_cast<double>(counter_of(snap, "pipeline.overlap_ns")) /
        1e9;
    run.overlap_ratio = (run.hash_busy_s + run.execute_busy_s) / elapsed;
    run.batches = counter_of(snap, "pipeline.batches");
    run.stalls = counter_of(snap, "pipeline.stalls");
    const auto queue = snap.histograms.find("pipeline.queue_depth");
    if (queue != snap.histograms.end())
        run.queue_depth_p95 = queue->second.p95_ns;
    run.stats = system.reduction();
    return run;
}

void
print_runs(const char *title, const std::vector<DepthRun> &runs)
{
    std::printf("%s\n", title);
    std::printf("  %5s | %8s | %10s | %8s | %8s | %9s | %7s | %s\n",
                "depth", "seconds", "chunks/s", "hash_s", "exec_s",
                "overlap_s", "busy/w", "stalls");
    for (const DepthRun &run : runs) {
        std::printf(
            "  %5zu | %8.3f | %10.0f | %8.3f | %8.3f | %9.3f |"
            " %6.2fx | %zu\n",
            run.depth, run.seconds, run.chunks_per_s,
            run.hash_busy_s, run.execute_busy_s, run.overlap_s,
            run.overlap_ratio, static_cast<std::size_t>(run.stalls));
    }
}

/** Alternating depth-1/depth-N pairs behind the wall-clock gate. */
constexpr int kGatePairs = 5;

/**
 * Median over kGatePairs alternating (depth 1, depth `depth`) runs of
 * the per-pair speedup depth-1 seconds / depth-N seconds.  Pairing
 * cancels host drift between the two halves; the median drops a pair
 * that another tenant's burst landed on.
 */
double
median_pair_speedup(std::size_t depth,
                    const std::vector<workload::IoRequest> &requests)
{
    std::vector<double> speedups;
    for (int pair = 0; pair < kGatePairs; ++pair) {
        const double base = run_sweep_cell(1, requests).seconds;
        speedups.push_back(base / run_sweep_cell(depth, requests).seconds);
    }
    std::sort(speedups.begin(), speedups.end());
    return speedups[kGatePairs / 2];
}

void
json_runs(obs::JsonWriter &json, const std::vector<DepthRun> &runs)
{
    // The sweep starts at depth 1: every speedup is relative to it.
    FIDR_CHECK(runs.front().depth == 1);
    const DepthRun &base = runs.front();
    json.key("runs").begin_array();
    for (const DepthRun &run : runs) {
        json.begin_object();
        json.kv("depth", static_cast<std::uint64_t>(run.depth));
        json.kv("seconds", run.seconds);
        json.kv("chunks_per_s", run.chunks_per_s);
        json.kv("speedup_vs_depth1", base.seconds / run.seconds);
        json.kv("hash_busy_s", run.hash_busy_s);
        json.kv("execute_busy_s", run.execute_busy_s);
        json.kv("submit_stall_s", run.stall_s);
        json.kv("overlap_s", run.overlap_s);
        json.kv("overlap_ratio", run.overlap_ratio);
        json.kv("batches", run.batches);
        json.kv("stalls", run.stalls);
        json.kv("queue_depth_p95", run.queue_depth_p95);
        json.end_object();
    }
    json.end_array();
}

}  // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int requests = 20'000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            requests = std::max(1, std::atoi(argv[i]));
    }
    if (smoke)
        requests = std::min(requests, 4'000);

    const std::vector<std::size_t> depths =
        smoke ? std::vector<std::size_t>{1, 4}
              : std::vector<std::size_t>{1, 2, 4, 8};
    const bool single_lane = ThreadPool::hardware_lanes() == 1;

    bench::print_header(
        "Write-path pipelining: in-flight depth",
        "Fig 6a stage overlap");
    std::printf("hardware lanes: %zu, requests per run: %d%s\n\n",
                ThreadPool::hardware_lanes(), requests,
                smoke ? " (smoke)" : "");

    bench::JsonReport report("pipeline_depth");
    report.config("hardware_lanes", ThreadPool::hardware_lanes())
        .config("requests_per_run", requests)
        .config("smoke", smoke)
        .config("chunk_bytes", static_cast<std::uint64_t>(kChunkSize));

    for (const workload::WorkloadSpec &spec :
         workload::table3_specs()) {
        workload::WorkloadGenerator gen(spec);
        const auto reqs = gen.batch(static_cast<std::size_t>(requests));
        // Reads quiesce the pipeline (they must observe committed
        // state), so the Read-Mixed cells measure drain overhead, not
        // overlap; the occupancy assertions below skip them.
        const bool write_only = spec.read_fraction == 0;

        std::vector<DepthRun> runs;
        for (const std::size_t depth : depths)
            runs.push_back(run_sweep_cell(depth, reqs));

        print_runs(("Workload: " + spec.name).c_str(), runs);
        std::printf("\n");

        // Determinism guard: reduction results must not depend on the
        // pipeline depth.
        for (const DepthRun &run : runs) {
            FIDR_CHECK(run.stats.unique_chunks ==
                       runs[0].stats.unique_chunks);
            FIDR_CHECK(run.stats.duplicates == runs[0].stats.duplicates);
            FIDR_CHECK(run.stats.stored_bytes ==
                       runs[0].stats.stored_bytes);
            FIDR_CHECK(run.stats.chunks_written ==
                       runs[0].stats.chunks_written);
        }

        // Pipelining smoke check (write-only cells, depth >= 4).  On a
        // one-lane host the OS runs exactly one stage at a time and CV
        // hand-offs line up with scheduler wake-ups, so wall-clock
        // stage coexistence is structurally ~0 — the meaningful
        // occupancy evidence there is the queue: the submitter must
        // have genuinely held multiple batches in flight (queue depth
        // >= 2) and hit admission control (stalls > 0).  On multi-lane
        // hosts the stages truly coexist, so additionally require
        // measured hash||execute overlap and a median wall-clock
        // speedup over depth 1 across alternating pairs of runs.
        for (const DepthRun &run : runs) {
            if (!write_only || run.depth < 4)
                continue;
            FIDR_CHECK(run.batches > 0);
            if (run.queue_depth_p95 < 2 || run.stalls == 0) {
                std::fprintf(stderr,
                             "pipeline never filled at depth %zu "
                             "(queue p95 %zu, stalls %zu)\n",
                             run.depth,
                             static_cast<std::size_t>(
                                 run.queue_depth_p95),
                             static_cast<std::size_t>(run.stalls));
                std::abort();
            }
            if (!single_lane) {
                if (run.overlap_s <= 0.0) {
                    std::fprintf(stderr,
                                 "no stage overlap at depth %zu\n",
                                 run.depth);
                    std::abort();
                }
                const double speedup = median_pair_speedup(run.depth, reqs);
                std::printf("  depth %zu: median speedup over %d "
                            "alternating pairs %.2fx\n",
                            run.depth, kGatePairs, speedup);
                if (speedup <= 1.0) {
                    std::fprintf(stderr,
                                 "depth %zu not faster than depth 1 "
                                 "(median pair speedup %.3fx)\n",
                                 run.depth, speedup);
                    std::abort();
                }
            }
        }

        obs::JsonWriter &json = report.begin_entry("depth_sweep");
        json.kv("workload", spec.name);
        json_runs(json, runs);
        report.end_entry();
    }

    FIDR_CHECK(report.write_file("BENCH_pipeline.json").is_ok());
    return 0;
}
