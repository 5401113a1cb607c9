#include "periodica/core/exact_miner.h"

#include <algorithm>
#include <vector>

#include "periodica/core/detail.h"
#include "periodica/core/memory_estimate.h"
#include "periodica/util/logging.h"

namespace periodica {

PeriodicityTable ExactConvolutionMiner::Mine(
    const MinerOptions& options) const {
  const std::size_t n = mapping_.n();
  const std::size_t sigma = mapping_.sigma();
  PeriodicityTable table;
  if (n < 2) return table;

  std::size_t max_period = options.max_period == 0 ? n / 2 : options.max_period;
  max_period = std::min(max_period, n - 1);

  const internal::MiningStopSignal stop(options);

  // Memory budget: the exact engine's footprint is the sigma*n-bit mapping
  // (already built — counted exactly) plus per-period collection scratch,
  // charged once upfront at its worst case; stored entries are charged as
  // they accumulate, mirroring the FFT engine.
  internal::MiningBudget budget(options);
  internal::ScopedMiningCharge fixed_charge(&budget);
  if (Status status = fixed_charge.Acquire(
          mapping_.bits().words().size() * 8 +
              internal::ExactPeriodScratchBytes(n),
          "mine (exact): binary mapping + per-period scratch");
      !status.ok()) {
    table.set_resource_error(std::move(status));
    return table;
  }
  std::size_t entry_charge_bytes = 0;

  std::vector<std::size_t> matched_bits;
  std::vector<internal::PhaseCount> counts;
  // (symbol, phase) keys are flattened to symbol * period + phase and
  // counted with sort + run-length encoding.
  std::vector<std::size_t> keys;

  for (std::size_t p = std::max<std::size_t>(options.min_period, 1);
       p <= max_period; ++p) {
    // Between periods is a clean stop point: every period already emitted
    // is exact, so a cancelled mine returns a correct prefix.
    if (stop.Expired()) {
      table.set_partial(true);
      break;
    }
    matched_bits.clear();
    mapping_.bits().CollectAndShifted(mapping_.bits(), sigma * p,
                                      &matched_bits);
    keys.clear();
    keys.reserve(matched_bits.size());
    for (const std::size_t j : matched_bits) {
      // Bit j set in both T' and T' >> sigma*p means a symbol match
      // t_i == t_{i+p} with i = j / sigma (see BinaryMapping).
      const std::size_t i = j / sigma;
      const std::size_t k = sigma - 1 - (j % sigma);
      keys.push_back(k * p + (i % p));
    }
    std::sort(keys.begin(), keys.end());

    counts.clear();
    for (std::size_t start = 0; start < keys.size();) {
      std::size_t end = start;
      while (end < keys.size() && keys[end] == keys[start]) ++end;
      counts.push_back(internal::PhaseCount{
          static_cast<SymbolId>(keys[start] / p), keys[start] % p,
          static_cast<std::uint64_t>(end - start)});
      start = end;
    }
    const std::size_t entries_before = table.entries().size();
    internal::EmitPeriod(n, p, counts, options, &table);
    const std::size_t added = table.entries().size() - entries_before;
    if (added != 0) {
      const std::size_t bytes = added * sizeof(SymbolPeriodicity);
      if (Status status = budget.Reserve(bytes, "mine (exact): stored entries");
          !status.ok()) {
        table.set_resource_error(std::move(status));
        break;
      }
      entry_charge_bytes += bytes;
    }
  }
  budget.Release(entry_charge_bytes);
  table.SortCanonical();
  return table;
}

}  // namespace periodica
