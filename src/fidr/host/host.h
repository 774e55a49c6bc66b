/**
 * @file
 * Host-side resource models: CPU cores and DRAM capacity.
 *
 * The CPU model bills core-time to named tasks through a Ledger and
 * answers the projection questions of Figs 5/12 ("how many cores to
 * sustain X GB/s", "what share of CPU is memory management").  The
 * memory model tracks capacity claims per component (the capacity
 * column of Tables 1-2); DRAM *bandwidth* is tracked by the PCIe
 * fabric's host-memory ledger, which all flows share.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/common/units.h"
#include "fidr/sim/ledger.h"

namespace fidr::host {

/** Static description of the host socket. */
struct HostConfig {
    double cores = 22.0;
    Bandwidth memory_bandwidth = gb_per_s(170);
    std::uint64_t memory_capacity = 256ull * kGiB;
};

/** CPU-core accounting for one socket. */
class HostCpu {
  public:
    explicit HostCpu(double cores) : cores_(cores) {}

    /** Bills `core_us` microseconds of single-core work to `task`. */
    void
    bill_us(const std::string &task, double core_us)
    {
        ledger_.add(task, core_us * 1e-6);
    }

    double cores() const { return cores_; }
    const sim::Ledger &ledger() const { return ledger_; }
    sim::Ledger &ledger() { return ledger_; }

    /**
     * Cores required to sustain `throughput` of client data given the
     * ledger accumulated over `client_bytes` of processed client data.
     */
    double
    required_cores(double client_bytes, Bandwidth throughput) const
    {
        return ledger_.required(client_bytes, throughput);
    }

    /** Client throughput at which this socket's cores saturate. */
    Bandwidth
    saturation_throughput(double client_bytes) const
    {
        if (ledger_.total() <= 0)
            return gb_per_s(1e9);  // CPU is never the bottleneck.
        return cores_ * client_bytes / ledger_.total();
    }

    void reset() { ledger_.reset(); }

  private:
    double cores_;
    sim::Ledger ledger_;
};

/** DRAM capacity bookkeeping per component. */
class HostMemory {
  public:
    explicit HostMemory(std::uint64_t capacity_bytes)
        : capacity_(capacity_bytes) {}

    /** Claims `bytes` of capacity for `component`; kOutOfSpace if over. */
    Status claim(const std::string &component, std::uint64_t bytes);

    /** Releases `bytes` previously claimed by `component`. */
    void release(const std::string &component, std::uint64_t bytes);

    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t used() const { return used_; }
    std::uint64_t used_by(const std::string &component) const;

    /** (component, bytes) pairs sorted by component name. */
    std::vector<std::pair<std::string, std::uint64_t>> breakdown() const;

  private:
    std::uint64_t capacity_;
    std::uint64_t used_ = 0;
    std::map<std::string, std::uint64_t> claims_;
};

}  // namespace fidr::host
