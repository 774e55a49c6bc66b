// Trace inspector: explore the synthetic workload generator.  Prints
// the first few requests of a chosen Table 3 preset, then measures the
// stream's realized statistics (dedup ratio, compressibility, address
// sequentiality, working-set size) so users can see exactly what each
// knob produces before running experiments.
//
//   ./build/examples/trace_inspector [write-h|write-m|write-l|read-mixed]

#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "fidr/compress/lz.h"
#include "fidr/workload/generator.h"
#include "fidr/workload/table3.h"

using namespace fidr;

int
main(int argc, char **argv)
{
    workload::WorkloadSpec spec = workload::write_h_spec();
    if (argc > 1) {
        const char *name = argv[1];
        if (!std::strcmp(name, "write-m"))
            spec = workload::write_m_spec();
        else if (!std::strcmp(name, "write-l"))
            spec = workload::write_l_spec();
        else if (!std::strcmp(name, "read-mixed"))
            spec = workload::read_mixed_spec();
        else if (std::strcmp(name, "write-h")) {
            std::fprintf(stderr,
                         "usage: %s [write-h|write-m|write-l|"
                         "read-mixed]\n", argv[0]);
            return 1;
        }
    }

    std::printf("Workload: %s\n", spec.name.c_str());
    std::printf("  dedup_ratio=%.3f comp_ratio=%.2f "
                "dup_working_set=%llu\n  pattern=%s run_length=%u "
                "read_fraction=%.2f seed=%llu\n\n",
                spec.dedup_ratio, spec.comp_ratio,
                static_cast<unsigned long long>(spec.dup_working_set),
                spec.pattern ==
                        workload::AddressPattern::kSequentialRuns
                    ? "sequential-runs"
                    : "uniform",
                spec.run_length, spec.read_fraction,
                static_cast<unsigned long long>(spec.seed));

    workload::WorkloadGenerator gen(spec);
    std::printf("First 12 requests:\n");
    std::printf("  %-4s %-6s %-12s %-12s %s\n", "#", "op", "lba",
                "content", "payload head");
    for (int i = 0; i < 12; ++i) {
        const workload::IoRequest req = gen.next();
        char head[9] = "--------";
        if (req.dir == IoDir::kWrite) {
            for (int b = 0; b < 8; ++b)
                std::snprintf(head + b, 2, "%1x",
                              req.data[static_cast<std::size_t>(b)] >> 4);
        }
        std::printf("  %-4d %-6s %-12llu %-12llu %s\n", i,
                    req.dir == IoDir::kWrite ? "write" : "read",
                    static_cast<unsigned long long>(req.lba),
                    static_cast<unsigned long long>(req.content_id),
                    head);
    }

    // Measure realized statistics over a longer stream.
    constexpr int kSample = 50'000;
    std::unordered_set<std::uint64_t> contents;
    std::unordered_map<Lba, int> lba_writes;
    int writes = 0, reads = 0, duplicates = 0, sequential = 0;
    double comp_in = 0, comp_out = 0;
    Lba prev_lba = ~0ull;
    for (int i = 0; i < kSample; ++i) {
        const workload::IoRequest req = gen.next();
        if (req.dir == IoDir::kRead) {
            ++reads;
            continue;
        }
        ++writes;
        if (!contents.insert(req.content_id).second)
            ++duplicates;
        ++lba_writes[req.lba];
        if (req.lba == prev_lba + 1)
            ++sequential;
        prev_lba = req.lba;
        if (writes % 100 == 0) {  // Sample compression, it is slow.
            comp_in += static_cast<double>(req.data.size());
            comp_out += static_cast<double>(
                lz_compress(req.data).size());
        }
    }

    std::printf("\nMeasured over %d requests:\n", kSample);
    std::printf("  writes/reads         : %d / %d\n", writes, reads);
    std::printf("  duplicate writes     : %.1f%% (target %.1f%%)\n",
                100.0 * duplicates / writes, 100 * spec.dedup_ratio);
    std::printf("  distinct contents    : %zu\n", contents.size());
    std::printf("  distinct LBAs        : %zu (max rewrites of one "
                "LBA: %d)\n",
                lba_writes.size(),
                [&] {
                    int most = 0;
                    for (const auto &[lba, n] : lba_writes)
                        most = std::max(most, n);
                    return most;
                }());
    std::printf("  sequential-next rate : %.1f%%\n",
                100.0 * sequential / writes);
    std::printf("  sampled compressibility: %.1f%% (target %.1f%%)\n",
                100 * (1 - comp_out / comp_in), 100 * spec.comp_ratio);
    return 0;
}
