/**
 * @file
 * Tagged resource ledgers: the measurement machinery behind every
 * bandwidth/utilization figure in the reproduction.
 *
 * The paper's profiling (Table 1, Table 2, Figs 4/5/11/12) is byte- and
 * core-second accounting attributed to data paths and tasks.  A Ledger
 * records one quantity per tag — bytes moved through host DRAM, or
 * core-seconds of CPU work — and can then answer "how much of this
 * resource at client throughput X" (bandwidth, or cores), which is
 * exactly the projection method the authors use (Sec 3.2, 7.5).
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fidr/common/units.h"

namespace fidr::sim {

/** One (tag, value, share-of-total) row of a ledger report. */
struct LedgerRow {
    std::string tag;
    double value = 0;
    double share = 0;  ///< Fraction of ledger total, in [0, 1].
};

/** Accumulates a non-negative quantity attributed to tags. */
class Ledger {
  public:
    /** Records `amount` (bytes, core-seconds) attributed to `tag`. */
    void add(const std::string &tag, double amount);

    /** Total across all tags. */
    double total() const { return total_; }

    /** Amount recorded under `tag` (0 for unknown tags). */
    double value(const std::string &tag) const;

    /** Fraction of the total attributed to `tag`. */
    double share(const std::string &tag) const;

    /**
     * Rate of this resource the system needs to process client data at
     * `client_throughput`, given that the ledger accumulated while
     * `client_bytes` of client data were processed:
     * required = (total / client_bytes) * client_throughput.  Bytes/s
     * for a byte ledger, cores for a core-second ledger.
     */
    double required(double client_bytes,
                    Bandwidth client_throughput) const;

    /** Rows sorted by descending value. */
    std::vector<LedgerRow> report() const;

    void reset();

  private:
    std::map<std::string, double> by_tag_;
    double total_ = 0;
};

}  // namespace fidr::sim
