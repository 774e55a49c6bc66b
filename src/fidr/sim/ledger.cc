#include "fidr/sim/ledger.h"

#include <algorithm>

#include "fidr/common/status.h"

namespace fidr::sim {

void
Ledger::add(const std::string &tag, double amount)
{
    FIDR_CHECK(amount >= 0);
    by_tag_[tag] += amount;
    total_ += amount;
}

double
Ledger::value(const std::string &tag) const
{
    const auto it = by_tag_.find(tag);
    return it == by_tag_.end() ? 0.0 : it->second;
}

double
Ledger::share(const std::string &tag) const
{
    return total_ > 0 ? value(tag) / total_ : 0.0;
}

double
Ledger::required(double client_bytes, Bandwidth client_throughput) const
{
    FIDR_CHECK(client_bytes > 0);
    // Ledger units per client byte, times client bytes per second.
    return total_ / client_bytes * client_throughput;
}

std::vector<LedgerRow>
Ledger::report() const
{
    std::vector<LedgerRow> rows;
    rows.reserve(by_tag_.size());
    for (const auto &[tag, value] : by_tag_)
        rows.push_back({tag, value, total_ > 0 ? value / total_ : 0.0});
    std::sort(rows.begin(), rows.end(),
              [](const LedgerRow &a, const LedgerRow &b) {
                  return a.value > b.value;
              });
    return rows;
}

void
Ledger::reset()
{
    by_tag_.clear();
    total_ = 0;
}

}  // namespace fidr::sim
