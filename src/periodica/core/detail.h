#ifndef PERIODICA_CORE_DETAIL_H_
#define PERIODICA_CORE_DETAIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "periodica/core/options.h"
#include "periodica/core/periodicity.h"
#include "periodica/util/memory_budget.h"

namespace periodica::internal {

/// The engines' stop predicate, folding MinerOptions::cancellation and
/// MinerOptions::deadline_ms into one poll. Constructed at Mine entry (the
/// deadline clock starts there); Expired() is checked at stage boundaries,
/// where stopping leaves the table a correct prefix.
class MiningStopSignal {
 public:
  explicit MiningStopSignal(const MinerOptions& options)
      : token_(options.cancellation) {
    if (options.deadline_ms > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options.deadline_ms);
      has_deadline_ = true;
    }
  }

  [[nodiscard]] bool Expired() const {
    if (token_ != nullptr && token_->Expired()) return true;
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

 private:
  const util::CancellationToken* token_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// The engines' memory-budget ledger, folding MinerOptions::
/// memory_budget_bytes (a per-request cap, modeled as a private budget) and
/// MinerOptions::memory_budget (the shared process pool) into one
/// reserve/release pair the allocation sites call. Constructed at Mine
/// entry; enabled() is false when neither limit is configured, in which
/// case Reserve is free and always succeeds.
///
/// Thread-safety: Reserve/Release may be called from parallel stage tasks
/// (the underlying budgets are atomic).
class MiningBudget {
 public:
  explicit MiningBudget(const MinerOptions& options)
      : local_(options.memory_budget_bytes), shared_(options.memory_budget) {}

  [[nodiscard]] bool enabled() const {
    return local_.limit() != 0 || shared_ != nullptr;
  }

  /// Reserves `bytes` against both limits or neither.
  [[nodiscard]] Status Reserve(std::size_t bytes, const std::string& what) {
    if (!enabled()) return Status::OK();
    PERIODICA_RETURN_NOT_OK(local_.TryReserve(bytes, what));
    if (shared_ != nullptr) {
      if (Status status = shared_->TryReserve(bytes, what); !status.ok()) {
        local_.Release(bytes);
        return status;
      }
    }
    return Status::OK();
  }

  void Release(std::size_t bytes) {
    if (!enabled()) return;
    local_.Release(bytes);
    if (shared_ != nullptr) shared_->Release(bytes);
  }

 private:
  util::MemoryBudget local_;
  util::MemoryBudget* shared_;  // not owned
};

/// RAII wrapper pairing one MiningBudget::Reserve with its Release.
class ScopedMiningCharge {
 public:
  explicit ScopedMiningCharge(MiningBudget* budget) : budget_(budget) {}
  ~ScopedMiningCharge() { Reset(); }
  ScopedMiningCharge(const ScopedMiningCharge&) = delete;
  ScopedMiningCharge& operator=(const ScopedMiningCharge&) = delete;

  [[nodiscard]] Status Acquire(std::size_t bytes, const std::string& what) {
    Reset();
    PERIODICA_RETURN_NOT_OK(budget_->Reserve(bytes, what));
    bytes_ = bytes;
    return Status::OK();
  }

  void Reset() {
    if (bytes_ != 0) budget_->Release(bytes_);
    bytes_ = 0;
  }

 private:
  MiningBudget* budget_;
  std::size_t bytes_ = 0;
};

/// A (period, symbol) pair that survived the FFT engine's pre-filter, with
/// its stage-1 match count |W_{p,k}|.
struct Candidate {
  std::size_t period = 0;
  SymbolId symbol = 0;
  std::uint64_t matches = 0;
};

/// The FFT engine's lossless aggregate pre-filter, the cut between its two
/// stages: every (p, k) with min_period <= p, a nonzero match count, enough
/// repetitions at phase 0 for options.min_pairs, and
/// match_counts[k][p] >= options.threshold * MinPairCount(n, p). An empty
/// match_counts[k] (an absent symbol) contributes nothing. Sorted by
/// (period, symbol).
[[nodiscard]] std::vector<Candidate> PrefilterCandidates(
    std::span<const std::vector<std::uint64_t>> match_counts, std::size_t n,
    const MinerOptions& options);

/// Splits `candidates`, sorted by period, into the maximal runs sharing one
/// period (the unit stage 2 refines and Definition 1 emits), in order.
[[nodiscard]] std::vector<std::span<const Candidate>> PeriodGroups(
    std::span<const Candidate> candidates);

/// Exact F2 count for one (symbol, phase) pair of one period, as produced by
/// either engine's analysis step.
struct PhaseCount {
  SymbolId symbol = 0;
  std::size_t phase = 0;
  std::uint64_t f2 = 0;
};

/// Definition 1 for one phase, the one test every table producer and stage
/// 2's thresholds use: pairs >= max(1, options.min_pairs) and
/// f2 / pairs >= options.threshold in double.
[[nodiscard]] bool PassesDefinition1(std::uint64_t f2, std::uint64_t pairs,
                                     const MinerOptions& options);

/// Applies Definition 1 to one period's exact phase counts, phase l having
/// `pairs_of(l)` pairs: a PeriodSummary if any phase passes and, in positions
/// mode, an entry per passing phase up to options.max_entries (then
/// truncated()). best_* and the cut follow `counts` order; the kept entries
/// are appended sorted by (position, symbol), so emitting periods in
/// ascending order builds a canonical table without a sort.
void EmitPeriod(std::size_t period, std::span<const PhaseCount> counts,
                const std::function<std::uint64_t(std::size_t)>& pairs_of,
                const MinerOptions& options, PeriodicityTable* table);

/// EmitPeriod for a length-`n` series: phase l has
/// ProjectionPairCount(n, period, l) pairs.
void EmitPeriod(std::size_t n, std::size_t period,
                std::span<const PhaseCount> counts,
                const MinerOptions& options, PeriodicityTable* table);

/// The periods-only summary of one PeriodGroups group of a length-`n` series:
/// one periodicity per candidate, best_confidence the largest upper bound
/// min(1, matches / MinPairCount(n, p)), flagged aggregate_only.
[[nodiscard]] PeriodSummary AggregateSummary(std::size_t n,
                                             std::span<const Candidate> group);

/// The smallest positive Definition-1 denominator over phases of `period`
/// (used by the lossless aggregate pre-filter: a (period, symbol) pair whose
/// total match count is below threshold * MinPairCount can pass Definition 1
/// at no phase).
std::uint64_t MinPairCount(std::size_t n, std::size_t period);

}  // namespace periodica::internal

#endif  // PERIODICA_CORE_DETAIL_H_
