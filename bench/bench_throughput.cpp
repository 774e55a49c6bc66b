// Wall-clock throughput of the parallel data plane: drives the
// Table 3 workloads through the full FIDR write path with 1/2/4/N
// hash+compression lanes and measures real elapsed time (not the
// calibrated hardware model the figure benches use).  Also isolates
// the NIC hash stage, whose lane scaling is the purest signal of the
// multi-core SHA fan-out (paper Table 4 instantiates multiple SHA
// cores per NIC).
//
// Emits BENCH_throughput.json (in the working directory, via the
// harness's uniform JsonReport schema) so the numbers seed the repo's
// performance trajectory.  Digests, stats and space accounting are
// lane-count-invariant; the bench asserts the reduction stats match
// across lane counts as a cheap determinism guard on every run.

#include <algorithm>
#include <chrono>
#include <cstdio>
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

std::vector<std::size_t>
lane_counts()
{
    std::vector<std::size_t> lanes = {1, 2, 4,
                                      ThreadPool::hardware_lanes()};
    std::sort(lanes.begin(), lanes.end());
    lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
    return lanes;
}

struct LaneRun {
    std::size_t lanes = 0;
    double seconds = 0;
    double chunks_per_s = 0;
    double gb_per_s = 0;
};

/** Full write path: buffered requests -> hash -> dedup -> compress. */
LaneRun
run_write_path(const workload::WorkloadSpec &spec, std::size_t lanes,
               const std::vector<workload::IoRequest> &requests,
               core::ReductionStats *stats_out)
{
    core::FidrConfig config;
    config.platform = bench::eval_platform();
    config.lanes = lanes;
    core::FidrSystem system(config);
    (void)spec;

    const double t0 = now_s();
    for (const workload::IoRequest &req : requests) {
        Buffer data = req.data;
        const Status written = system.write(req.lba, std::move(data));
        if (!written.is_ok()) {
            std::fprintf(stderr, "write failed: %s\n",
                         written.to_string().c_str());
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

    if (stats_out)
        *stats_out = system.reduction();
    LaneRun run;
    run.lanes = lanes;
    run.seconds = elapsed;
    run.chunks_per_s = static_cast<double>(requests.size()) / elapsed;
    run.gb_per_s = static_cast<double>(requests.size()) * kChunkSize /
                   elapsed / 1e9;
    return run;
}

/** NIC hash stage only: one big buffered batch, hash_buffered(). */
LaneRun
run_nic_hash(std::size_t lanes,
             const std::vector<workload::IoRequest> &requests)
{
    nic::FidrNicConfig config;
    config.buffer_capacity =
        static_cast<std::uint64_t>(requests.size() + 1) * kChunkSize;
    nic::FidrNic nic(config);
    ThreadPool pool(lanes);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Status buffered =
            nic.buffer_write(requests[i].lba, requests[i].data);
        FIDR_CHECK(buffered.is_ok());
    }

    const double t0 = now_s();
    const std::vector<Digest> digests = nic.hash_buffered(&pool);
    const double elapsed = now_s() - t0;
    FIDR_CHECK(digests.size() == requests.size());

    LaneRun run;
    run.lanes = lanes;
    run.seconds = elapsed;
    run.chunks_per_s = static_cast<double>(requests.size()) / elapsed;
    run.gb_per_s = static_cast<double>(requests.size()) * kChunkSize /
                   elapsed / 1e9;
    return run;
}

void
print_runs(const char *title, const std::vector<LaneRun> &runs)
{
    std::printf("%s\n", title);
    std::printf("  %5s | %9s | %12s | %8s | %s\n", "lanes", "seconds",
                "chunks/s", "GB/s", "speedup vs 1 lane");
    for (const LaneRun &run : runs) {
        std::printf("  %5zu | %9.3f | %12.0f | %8.3f | %.2fx\n",
                    run.lanes, run.seconds, run.chunks_per_s,
                    run.gb_per_s, runs[0].seconds / run.seconds);
    }
}

void
json_runs(obs::JsonWriter &json, const std::vector<LaneRun> &runs)
{
    json.key("runs").begin_array();
    for (const LaneRun &run : runs) {
        json.begin_object();
        json.kv("lanes", static_cast<std::uint64_t>(run.lanes));
        json.kv("seconds", run.seconds);
        json.kv("chunks_per_s", run.chunks_per_s);
        json.kv("gb_per_s", run.gb_per_s);
        json.kv("speedup_vs_1_lane", runs[0].seconds / run.seconds);
        json.end_object();
    }
    json.end_array();
}

}  // namespace

int
main(int argc, char **argv)
{
    int requests = 24'000;
    if (argc > 1)
        requests = std::max(1, std::atoi(argv[1]));

    bench::print_header("Parallel data plane wall-clock throughput",
                        "Table 3 workloads; Sec 6.2 lane counts");
    std::printf("hardware lanes: %zu, requests per run: %d\n\n",
                ThreadPool::hardware_lanes(), requests);

    const std::vector<std::size_t> lanes = lane_counts();

    bench::JsonReport report("throughput");
    report.config("hardware_lanes", ThreadPool::hardware_lanes())
        .config("requests_per_run", requests)
        .config("chunk_bytes",
                static_cast<std::uint64_t>(kChunkSize));

    // NIC hash stage in isolation, on the mail (Write-H) content mix.
    {
        workload::WorkloadSpec spec = workload::write_h_spec();
        workload::WorkloadGenerator gen(spec);
        const auto reqs =
            gen.batch(static_cast<std::size_t>(requests));
        std::vector<LaneRun> runs;
        for (const std::size_t n : lanes)
            runs.push_back(run_nic_hash(n, reqs));
        print_runs("NIC SHA-256 hash stage (Write-H payload)", runs);
        std::printf("\n");
        obs::JsonWriter &json = report.begin_entry("nic_hash_stage");
        json.kv("workload", "Write-H");
        json_runs(json, runs);
        report.end_entry();
    }

    // Full write path per Table 3 workload.
    for (const workload::WorkloadSpec &spec0 :
         workload::table3_specs()) {
        if (spec0.read_fraction > 0)
            continue;  // Write path bench: Read-Mixed adds no writes.
        workload::WorkloadSpec spec = spec0;
        workload::WorkloadGenerator gen(spec);
        const auto reqs =
            gen.batch(static_cast<std::size_t>(requests));

        std::vector<LaneRun> runs;
        core::ReductionStats first_stats;
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            core::ReductionStats stats;
            runs.push_back(
                run_write_path(spec, lanes[i], reqs, &stats));
            if (i == 0) {
                first_stats = stats;
            } else {
                // Cheap inline determinism guard: reduction results
                // must not depend on the lane count.
                FIDR_CHECK(stats.unique_chunks ==
                           first_stats.unique_chunks);
                FIDR_CHECK(stats.duplicates == first_stats.duplicates);
                FIDR_CHECK(stats.stored_bytes ==
                           first_stats.stored_bytes);
            }
        }
        print_runs(("Full write path: " + spec.name).c_str(), runs);
        std::printf("\n");

        obs::JsonWriter &json = report.begin_entry("write_path");
        json.kv("workload", spec.name);
        json_runs(json, runs);
        report.end_entry();
    }
    FIDR_CHECK(report.write_file("BENCH_throughput.json").is_ok());
    return 0;
}
