#include "periodica/core/detail.h"

#include <algorithm>
#include <tuple>

#include "periodica/series/series.h"
#include "periodica/util/logging.h"

namespace periodica::internal {

bool PassesDefinition1(std::uint64_t f2, std::uint64_t pairs,
                       const MinerOptions& options) {
  if (pairs == 0 || pairs < options.min_pairs) return false;
  return !(static_cast<double>(f2) / static_cast<double>(pairs) <
           options.threshold);
}

void EmitPeriod(std::size_t period, std::span<const PhaseCount> counts,
                const std::function<std::uint64_t(std::size_t)>& pairs_of,
                const MinerOptions& options, PeriodicityTable* table) {
  PERIODICA_DCHECK(table != nullptr);
  PERIODICA_DCHECK(period >= 1);
  PeriodSummary summary;
  summary.period = period;
  std::vector<SymbolPeriodicity> kept;
  if (options.positions) kept.reserve(counts.size());
  bool truncated = table->truncated();
  for (const PhaseCount& count : counts) {
    // Every producer counts phases inside the paper's W_{p,k,l} partition,
    // and F2 counts bounded by the number of projection pairs; a violation
    // here means a decode bug upstream, not bad user input.
    PERIODICA_DCHECK(count.phase < period);
    const std::uint64_t pairs = pairs_of(count.phase);
    PERIODICA_DCHECK(count.f2 <= pairs);
    if (!PassesDefinition1(count.f2, pairs, options)) continue;
    const double confidence =
        static_cast<double>(count.f2) / static_cast<double>(pairs);
    ++summary.num_periodicities;
    if (confidence > summary.best_confidence) {
      summary.best_confidence = confidence;
      summary.best_symbol = count.symbol;
      summary.best_position = count.phase;
    }
    if (!options.positions) continue;  // summaries only
    if (table->entries().size() + kept.size() < options.max_entries) {
      kept.push_back(SymbolPeriodicity{period, count.phase, count.symbol,
                                       count.f2, pairs, confidence});
    } else {
      truncated = true;
    }
  }
  // Producers list a period's phases symbol by symbol, so `kept` is a few
  // runs already sorted by phase; a merge sort joins them cheaply.
  std::stable_sort(kept.begin(), kept.end(), CanonicalOrder{});
  for (const SymbolPeriodicity& entry : kept) table->AddEntry(entry);
  if (summary.num_periodicities > 0) table->AddSummary(summary);
  table->set_truncated(truncated);
}

void EmitPeriod(std::size_t n, std::size_t period,
                std::span<const PhaseCount> counts,
                const MinerOptions& options, PeriodicityTable* table) {
  EmitPeriod(
      period, counts,
      [n, period](std::size_t l) { return ProjectionPairCount(n, period, l); },
      options, table);
}

PeriodSummary AggregateSummary(std::size_t n,
                               std::span<const Candidate> group) {
  PERIODICA_DCHECK(!group.empty());
  PeriodSummary summary;
  summary.period = group.front().period;
  summary.aggregate_only = true;
  const double min_pairs =
      static_cast<double>(MinPairCount(n, summary.period));
  for (const Candidate& candidate : group) {
    const double upper_bound =
        std::min(1.0, static_cast<double>(candidate.matches) / min_pairs);
    if (upper_bound > summary.best_confidence) {
      summary.best_confidence = upper_bound;
      summary.best_symbol = candidate.symbol;
      summary.best_position = 0;
    }
    ++summary.num_periodicities;
  }
  return summary;
}

std::vector<Candidate> PrefilterCandidates(
    std::span<const std::vector<std::uint64_t>> match_counts, std::size_t n,
    const MinerOptions& options) {
  const std::size_t min_period = std::max<std::size_t>(options.min_period, 1);
  std::vector<Candidate> candidates;
  for (std::size_t k = 0; k < match_counts.size(); ++k) {
    const std::vector<std::uint64_t>& counts = match_counts[k];
    for (std::size_t p = min_period; p < counts.size(); ++p) {
      if (counts[p] == 0) continue;
      // No phase of this period can offer options.min_pairs repetitions if
      // even the longest projection (l = 0) falls short.
      if ((n + p - 1) / p - 1 < options.min_pairs) continue;
      const double min_pairs = static_cast<double>(MinPairCount(n, p));
      if (static_cast<double>(counts[p]) + 1e-9 <
          options.threshold * min_pairs) {
        continue;
      }
      candidates.push_back(Candidate{p, static_cast<SymbolId>(k), counts[p]});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return std::tie(a.period, a.symbol) <
                     std::tie(b.period, b.symbol);
            });
  return candidates;
}

std::vector<std::span<const Candidate>> PeriodGroups(
    std::span<const Candidate> candidates) {
  std::vector<std::span<const Candidate>> groups;
  for (std::size_t start = 0; start < candidates.size();) {
    std::size_t end = start;
    while (end < candidates.size() &&
           candidates[end].period == candidates[start].period) {
      ++end;
    }
    groups.push_back(candidates.subspan(start, end - start));
    start = end;
  }
  return groups;
}

std::uint64_t MinPairCount(std::size_t n, std::size_t period) {
  // ProjectionPairCount(n, p, l) = ceil((n-l)/p) - 1 is non-increasing in l,
  // so the smallest value over phases is at l = p-1; clamp at 1 so the
  // pre-filter threshold stays positive (a phase with a single pair can
  // reach confidence 1 with one match).
  PERIODICA_DCHECK(period >= 1);
  if (period >= n) return 1;
  const std::uint64_t at_last_phase = ProjectionPairCount(n, period, period - 1);
  return at_last_phase == 0 ? 1 : at_last_phase;
}

}  // namespace periodica::internal
