#include "periodica/core/fft_miner.h"

#include <algorithm>
#include <optional>
#include <span>

#include "periodica/core/memory_estimate.h"
#include "periodica/core/stage2.h"
#include "periodica/util/cpu_features.h"
#include "periodica/util/logging.h"
#include "periodica/util/thread_pool.h"

namespace periodica {

namespace {

std::vector<DynamicBitset> BuildIndicators(const Alphabet& alphabet,
                                           std::size_t n) {
  std::vector<DynamicBitset> indicators;
  indicators.reserve(alphabet.size());
  for (std::size_t k = 0; k < alphabet.size(); ++k) {
    indicators.emplace_back(n);
  }
  return indicators;
}

/// Cache-blocked indicator construction. The naive loop
/// (indicators[series[i]].Set(i)) touches one of sigma destination cache
/// lines per input symbol in data-dependent order; this walks the input in
/// 64-position blocks, accumulates one word per symbol in a sigma-entry
/// local array (which fits in L1 for any realistic alphabet), and then ORs
/// only the nonzero words into the bitsets — each destination word is
/// written at most once, in address order.
void FillIndicatorsBlocked(std::span<const SymbolId> series,
                           std::vector<DynamicBitset>* indicators) {
  const std::size_t n = series.size();
  const std::size_t sigma = indicators->size();
  std::vector<std::uint64_t> block(sigma, 0);
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - base);
    std::fill(block.begin(), block.end(), 0);
    for (std::size_t j = 0; j < len; ++j) {
      block[series[base + j]] |= std::uint64_t{1} << j;
    }
    const std::size_t w = base >> 6;
    for (std::size_t k = 0; k < sigma; ++k) {
      if (block[k] != 0) (*indicators)[k].OrWord(w, block[k]);
    }
  }
}

}  // namespace

FftConvolutionMiner::FftConvolutionMiner(const SymbolSeries& series)
    : alphabet_(series.alphabet()),
      n_(series.size()),
      indicators_(BuildIndicators(series.alphabet(), series.size())) {
  FillIndicatorsBlocked(series.data(), &indicators_);
}

Result<FftConvolutionMiner> FftConvolutionMiner::FromStream(
    SeriesStream* stream) {
  if (stream == nullptr) {
    return Status::InvalidArgument("stream must not be null");
  }
  // The single pass over the input: symbols are requested once, staged into
  // a flat buffer (1 byte/symbol, vs. sigma bits/symbol for the old
  // per-symbol staging vectors), and blocked into the indicator bitsets —
  // the stream itself is never revisited.
  Alphabet alphabet = stream->alphabet();
  std::vector<SymbolId> symbols;
  while (const std::optional<SymbolId> symbol = stream->Next()) {
    if (static_cast<std::size_t>(*symbol) >= alphabet.size()) {
      return Status::InvalidArgument(
          "out-of-alphabet symbol " +
          std::to_string(static_cast<std::size_t>(*symbol)) +
          " at stream position " + std::to_string(symbols.size()) +
          " (alphabet has " + std::to_string(alphabet.size()) + " symbols)");
    }
    symbols.push_back(*symbol);
  }
  // nullopt either ends the stream cleanly or reports a source failure.
  PERIODICA_RETURN_NOT_OK(stream->status());
  const std::size_t n = symbols.size();
  std::vector<DynamicBitset> indicators = BuildIndicators(alphabet, n);
  FillIndicatorsBlocked(symbols, &indicators);
  return FftConvolutionMiner(std::move(alphabet), n, std::move(indicators));
}

Result<FftConvolutionMiner> FftConvolutionMiner::Concatenate(
    const FftConvolutionMiner& prefix, const FftConvolutionMiner& suffix) {
  if (!(prefix.alphabet_ == suffix.alphabet_)) {
    return Status::InvalidArgument("miners have different alphabets");
  }
  std::vector<DynamicBitset> indicators = prefix.indicators_;
  for (std::size_t k = 0; k < indicators.size(); ++k) {
    indicators[k].Append(suffix.indicators_[k]);
  }
  return FftConvolutionMiner(prefix.alphabet_, prefix.n_ + suffix.n_,
                             std::move(indicators));
}

SymbolSeries FftConvolutionMiner::ToSeries() const {
  SymbolSeries series(alphabet_);
  series.Reserve(n_);
  std::vector<SymbolId> data(n_, 0);
  for (std::size_t k = 0; k < indicators_.size(); ++k) {
    indicators_[k].ForEachSetBit(
        [&data, k](std::size_t i) { data[i] = static_cast<SymbolId>(k); });
  }
  for (const SymbolId symbol : data) series.Append(symbol);
  return series;
}

std::vector<std::uint64_t> FftConvolutionMiner::MatchCounts(
    SymbolId symbol, std::size_t max_period, internal::Stage1Path* path) const {
  PERIODICA_CHECK_LT(static_cast<std::size_t>(symbol), indicators_.size());
  const std::size_t lags = n_ == 0 ? 0 : std::min(max_period, n_ - 1) + 1;
  return internal::Stage1MatchCounts(
      indicators_[symbol], lags,
      internal::Stage1UsesLagWords(n_, lags, util::ActiveSimdKernel())
          ? internal::Stage1Path::kLagWords
          : internal::Stage1Path::kFft,
      path);
}

void FftConvolutionMiner::PhaseCounts(
    std::size_t period, std::span<const internal::Candidate> group,
    const MinerOptions& options,
    std::vector<internal::PhaseCount>* out) const {
  PERIODICA_CHECK_GE(period, 1u);
  PERIODICA_CHECK_LT(period, n_);
  const internal::PhaseThresholds thresholds =
      internal::Stage2Thresholds(n_, period, options);
  std::vector<std::uint64_t> planes;
  for (const internal::Candidate& candidate : group) {
    PERIODICA_DCHECK(candidate.period == period);
    const SymbolId k = candidate.symbol;
    PERIODICA_CHECK_LT(static_cast<std::size_t>(k), indicators_.size());
    internal::Stage2PhaseCounts(indicators_[k], period, k, candidate.matches,
                                thresholds, &planes, out);
  }
}

PeriodicityTable FftConvolutionMiner::Mine(const MinerOptions& options) const {
  PeriodicityTable table;
  if (n_ < 2) return table;

  std::size_t max_period =
      options.max_period == 0 ? n_ / 2 : options.max_period;
  max_period = std::min(max_period, n_ - 1);

  // Cancellation/deadline polls sit at stage boundaries, where stopping
  // leaves the table a correct prefix (periods emitted so far are exact).
  const internal::MiningStopSignal stop(options);
  if (stop.Expired()) {
    table.set_partial(true);
    return table;
  }

  // Memory budget (per-request cap and/or shared process pool). The fixed
  // charge represents the allocations alive for the whole call — the
  // indicator bitsets (already built; the words are counted exactly) and the
  // per-symbol match-count vectors; each stage then reserves its scratch
  // before allocating it, so running dry aborts the mine instead of
  // swelling the process. A failed mine returns an empty table whose
  // resource_error() carries the ResourceExhausted.
  internal::MiningBudget budget(options);
  std::size_t indicator_bytes = 0;
  for (const DynamicBitset& indicator : indicators_) {
    indicator_bytes += indicator.words().size() * 8;
  }
  internal::ScopedMiningCharge fixed_charge(&budget);
  if (Status status = fixed_charge.Acquire(
          indicator_bytes + indicators_.size() * (max_period + 1) * 8,
          "mine: indicators + match counts");
      !status.ok()) {
    table.set_resource_error(std::move(status));
    return table;
  }

  // The pool lives for this call only; num_threads == 1 (the default) keeps
  // everything on the calling thread. Every parallel stage writes into
  // per-task slots and is merged in a fixed order below, so the table is
  // byte-identical for every worker count.
  const std::size_t num_workers =
      util::ThreadPool::ResolveThreadCount(options.num_threads);
  std::optional<util::ThreadPool> pool;
  if (num_workers > 1) pool.emplace(num_workers);
  util::ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;

  // Stage 1: per-symbol match counts — one independent autocorrelation per
  // symbol (lag words or FFT, core/stage1.h), run across the pool — followed
  // by the lossless aggregate pre-filter, applied sequentially in symbol
  // order. Each task reserves its scratch first (none on the word path); a
  // task that cannot reserve records the failure in its own slot (the first
  // one, by symbol order, wins below — deterministic at every thread count)
  // and computes nothing.
  const std::size_t stage1_scratch_bytes =
      internal::Stage1ScratchBytes(n_, max_period);
  std::vector<Status> task_errors(indicators_.size(), Status::OK());
  std::vector<std::vector<std::uint64_t>> match_counts(indicators_.size());
  PERIODICA_CHECK_OK(util::ParallelFor(
      pool_ptr, indicators_.size(), [&](std::size_t k) {
        if (indicators_[k].Count() == 0) return;
        internal::ScopedMiningCharge scratch(&budget);
        if (Status status =
                scratch.Acquire(stage1_scratch_bytes, "mine: stage-1 scratch");
            !status.ok()) {
          task_errors[k] = std::move(status);
          return;
        }
        match_counts[k] = MatchCounts(static_cast<SymbolId>(k), max_period);
      }));
  for (Status& status : task_errors) {
    if (!status.ok()) {
      table.set_resource_error(std::move(status));
      return table;
    }
  }
  const std::vector<internal::Candidate> candidates =
      internal::PrefilterCandidates(match_counts, n_, options);
  const std::vector<std::span<const internal::Candidate>> period_groups =
      internal::PeriodGroups(candidates);

  if (!options.positions) {
    // Periods-only mode: summaries with aggregate upper-bound confidences,
    // O(n log n) total (the detection phase of Fig. 5).
    for (const std::span<const internal::Candidate> group : period_groups) {
      if (stop.Expired()) {
        table.set_partial(true);
        break;
      }
      PeriodSummary summary;
      summary.period = group.front().period;
      summary.aggregate_only = true;
      const double min_pairs = static_cast<double>(
          internal::MinPairCount(n_, summary.period));
      for (const internal::Candidate& candidate : group) {
        const double upper_bound = std::min(
            1.0, static_cast<double>(candidate.matches) / min_pairs);
        if (upper_bound > summary.best_confidence) {
          summary.best_confidence = upper_bound;
          summary.best_symbol = candidate.symbol;
          summary.best_position = 0;
        }
        ++summary.num_periodicities;
      }
      table.AddSummary(summary);
    }
    table.SortCanonical();
    return table;
  }

  // Stage 2: split each surviving (p, k) into exact per-phase counts by
  // walking the in-memory indicator bitsets (no further pass over the input).
  // Each period's candidate group is an independent PhaseCounts task — the
  // indicator bitsets are only read — whose W_{p,k,l} counts land in a
  // per-period slot. The split keeps only the phases Definition 1 passes;
  // EmitPeriod then turns the slots into entries in ascending period order
  // on this thread, which keeps the max_entries truncation point and the
  // table layout identical to the sequential walk.
  struct PeriodGroup {
    std::vector<internal::PhaseCount> counts;
    /// Budget bytes reserved by this group's phase-split task; released
    /// after the group is drained (the counts live until EmitPeriod).
    std::size_t charged_bytes = 0;
    Status charge_error = Status::OK();
  };
  std::vector<PeriodGroup> groups(period_groups.size());
  // Period groups are consumed through a bounded window: phase-splitting for
  // one window runs across the pool, then Definition 1 drains the window in
  // ascending period order and releases its counts. Peak memory is
  // O(window * matches-per-period) rather than every period's phase counts
  // at once, and the emission order — hence the table and the max_entries
  // truncation point — does not depend on the window size.
  const std::size_t window = internal::Stage2WindowGroups(num_workers);
  std::size_t entry_charge_bytes = 0;  ///< cumulative stored-entry charge
  bool budget_aborted = false;
  for (std::size_t first = 0; first < groups.size(); first += window) {
    if (stop.Expired()) {
      table.set_partial(true);
      break;
    }
    const std::size_t last = std::min(groups.size(), first + window);
    PERIODICA_CHECK_OK(util::ParallelFor(
        pool_ptr, last - first, [&](std::size_t offset) {
          PeriodGroup& group = groups[first + offset];
          const std::span<const internal::Candidate> members =
              period_groups[first + offset];
          const std::size_t p = members.front().period;
          // The split's planes and fold are sized by p and n alone, and
          // stage 1's match counts bound how many phases can pass, so the
          // group is charged before anything is allocated.
          const std::size_t scratch_bytes =
              internal::Stage2GroupBytes(n_, p, members, options);
          if (Status status = budget.Reserve(
                  scratch_bytes,
                  "mine: stage-2 phase split for period " + std::to_string(p));
              !status.ok()) {
            group.charge_error = std::move(status);
            return;
          }
          group.charged_bytes = scratch_bytes;
          PhaseCounts(p, members, options, &group.counts);
        }));
    for (std::size_t g = first; g < last; ++g) {
      PeriodGroup& group = groups[g];
      if (!budget_aborted && !group.charge_error.ok()) {
        table.set_resource_error(group.charge_error);
        budget_aborted = true;
      }
      if (!budget_aborted) {
        const std::size_t entries_before = table.entries().size();
        internal::EmitPeriod(n_, period_groups[g].front().period,
                             group.counts, options, &table);
        // Stored entries outlive every stage; their bytes stay reserved
        // until the call returns (the charge trails each period's emission
        // by one append — bounded skew, released wholesale below).
        const std::size_t added = table.entries().size() - entries_before;
        if (added != 0) {
          const std::size_t bytes = added * sizeof(SymbolPeriodicity);
          if (Status status = budget.Reserve(bytes, "mine: stored entries");
              !status.ok()) {
            table.set_resource_error(std::move(status));
            budget_aborted = true;
          } else {
            entry_charge_bytes += bytes;
          }
        }
      }
      budget.Release(group.charged_bytes);
      group.charged_bytes = 0;
      std::vector<internal::PhaseCount>().swap(group.counts);
    }
    if (budget_aborted) break;
  }
  budget.Release(entry_charge_bytes);
  table.SortCanonical();
  return table;
}

}  // namespace periodica
