#include "periodica/core/periodicity.h"

#include <algorithm>

#include "periodica/util/logging.h"

namespace periodica {

std::vector<std::size_t> PeriodicityTable::Periods() const {
  std::vector<std::size_t> periods;
  periods.reserve(summaries_.size());
  for (const PeriodSummary& summary : summaries_) {
    periods.push_back(summary.period);
  }
  std::sort(periods.begin(), periods.end());
  periods.erase(std::unique(periods.begin(), periods.end()), periods.end());
  return periods;
}

const PeriodSummary* PeriodicityTable::FindPeriod(std::size_t period) const {
  for (const PeriodSummary& summary : summaries_) {
    if (summary.period == period) return &summary;
  }
  return nullptr;
}

double PeriodicityTable::PeriodConfidence(std::size_t period) const {
  const PeriodSummary* summary = FindPeriod(period);
  return summary == nullptr ? 0.0 : summary->best_confidence;
}

std::vector<SymbolPeriodicity> PeriodicityTable::EntriesForPeriod(
    std::size_t period) const {
  std::vector<SymbolPeriodicity> out;
  for (const SymbolPeriodicity& entry : entries_) {
    if (entry.period == period) out.push_back(entry);
  }
  std::sort(out.begin(), out.end(), CanonicalOrder{});
  return out;
}

std::vector<std::vector<SymbolId>> PeriodicityTable::SymbolSets(
    std::size_t period) const {
  PERIODICA_CHECK_GE(period, 1u);
  std::vector<std::vector<SymbolId>> sets(period);
  for (const SymbolPeriodicity& entry : EntriesForPeriod(period)) {
    sets[entry.position].push_back(entry.symbol);
  }
  for (auto& set : sets) {
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  }
  return sets;
}

void PeriodicityTable::RebuildSummariesFromEntries() {
  summaries_.clear();
  SortCanonical();
  for (std::size_t start = 0; start < entries_.size();) {
    PeriodSummary summary;
    summary.period = entries_[start].period;
    std::size_t end = start;
    while (end < entries_.size() &&
           entries_[end].period == summary.period) {
      ++summary.num_periodicities;
      if (entries_[end].confidence > summary.best_confidence) {
        summary.best_confidence = entries_[end].confidence;
        summary.best_symbol = entries_[end].symbol;
        summary.best_position = entries_[end].position;
      }
      ++end;
    }
    summaries_.push_back(summary);
    start = end;
  }
}

void PeriodicityTable::SortCanonical() {
  std::sort(entries_.begin(), entries_.end(), CanonicalOrder{});
  std::sort(summaries_.begin(), summaries_.end(), CanonicalOrder{});
}

bool PeriodicityTable::IsCanonical() const {
  return std::is_sorted(entries_.begin(), entries_.end(), CanonicalOrder{}) &&
         std::is_sorted(summaries_.begin(), summaries_.end(),
                        CanonicalOrder{});
}

}  // namespace periodica
