#ifndef PERIODICA_CORE_PERIODICITY_H_
#define PERIODICA_CORE_PERIODICITY_H_

#include <cstdint>
#include <vector>

#include "periodica/series/alphabet.h"
#include "periodica/util/status.h"

namespace periodica {

/// One detected symbol periodicity (Definition 1): symbol `symbol` is
/// periodic with `period` at `position` (< period), supported by `f2`
/// consecutive occurrences out of `pairs` possible ones.
struct SymbolPeriodicity {
  std::size_t period = 0;
  std::size_t position = 0;
  SymbolId symbol = 0;
  std::uint64_t f2 = 0;     ///< F2(s, pi_{p,l}(T))
  std::uint64_t pairs = 0;  ///< ceil((n-l)/p) - 1
  /// f2 / pairs; the minimum periodicity threshold at which this entry is
  /// reported.
  double confidence = 0.0;

  friend bool operator==(const SymbolPeriodicity& a,
                         const SymbolPeriodicity& b) = default;
};

/// Per-period roll-up of the detected periodicities. `best_confidence` is the
/// paper's per-period "confidence": the minimum periodicity threshold at
/// which the period is detected at all (Sect. 4.1).
struct PeriodSummary {
  std::size_t period = 0;
  double best_confidence = 0.0;
  std::size_t num_periodicities = 0;  ///< passing (symbol, position) pairs
  SymbolId best_symbol = 0;
  std::size_t best_position = 0;
  /// True when best_confidence is an upper bound computed from aggregate
  /// match counts only (periods-only detection mode) rather than the exact
  /// Definition-1 value.
  bool aggregate_only = false;

  friend bool operator==(const PeriodSummary& a,
                         const PeriodSummary& b) = default;
};

/// The canonical order of a PeriodicityTable: entries by (period, position,
/// symbol), summaries by period.
struct CanonicalOrder {
  bool operator()(const SymbolPeriodicity& a,
                  const SymbolPeriodicity& b) const {
    if (a.period != b.period) return a.period < b.period;
    if (a.position != b.position) return a.position < b.position;
    return a.symbol < b.symbol;
  }
  bool operator()(const PeriodSummary& a, const PeriodSummary& b) const {
    return a.period < b.period;
  }
};

/// The output of the periodicity-detection phase: all (symbol, period,
/// position) triples passing the periodicity threshold, plus per-period
/// summaries. Entry storage can be truncated by MinerOptions::max_entries on
/// pathologically periodic inputs; summaries are never truncated.
class PeriodicityTable {
 public:
  PeriodicityTable() = default;

  void AddEntry(SymbolPeriodicity entry) {
    entries_.push_back(entry);
  }
  void AddSummary(PeriodSummary summary) { summaries_.push_back(summary); }
  void set_truncated(bool truncated) { truncated_ = truncated; }
  void set_partial(bool partial) { partial_ = partial; }
  void set_resource_error(Status status) {
    resource_error_ = std::move(status);
  }

  [[nodiscard]] const std::vector<SymbolPeriodicity>& entries() const {
    return entries_;
  }
  [[nodiscard]] const std::vector<PeriodSummary>& summaries() const {
    return summaries_;
  }
  [[nodiscard]] bool truncated() const { return truncated_; }
  /// True when detection stopped early (cancellation or deadline,
  /// MinerOptions::cancellation/deadline_ms): the table is a correct prefix
  /// — periods examined before the stop are exact, later ones are absent.
  [[nodiscard]] bool partial() const { return partial_; }
  /// Non-OK (ResourceExhausted) when the mine aborted on a memory-budget
  /// charge (MinerOptions::memory_budget_bytes / memory_budget): the engine
  /// stopped before the offending allocation, so the process never swelled,
  /// and the table contents are not meaningful results. ObscureMiner turns
  /// this into the Mine call's returned error.
  [[nodiscard]] const Status& resource_error() const {
    return resource_error_;
  }

  /// Distinct detected periods, ascending.
  [[nodiscard]] std::vector<std::size_t> Periods() const;

  /// The summary for `period`, or nullptr when the period was not detected.
  [[nodiscard]] const PeriodSummary* FindPeriod(std::size_t period) const;

  /// Confidence of `period`: best_confidence of its summary, or 0 when not
  /// detected. This is the quantity plotted in Figures 3 and 6.
  [[nodiscard]] double PeriodConfidence(std::size_t period) const;

  /// Detailed entries for one period (positions mode only), ordered by
  /// (position, symbol).
  [[nodiscard]] std::vector<SymbolPeriodicity> EntriesForPeriod(
      std::size_t period) const;

  /// The sets S_{p,l} of Definition 3 for `period`: element l lists the
  /// symbols periodic at position l, ascending. Size = period.
  [[nodiscard]] std::vector<std::vector<SymbolId>> SymbolSets(
      std::size_t period) const;

  /// Sorts entries by (period, position, symbol) and summaries by period.
  void SortCanonical();

  /// True when the table is in SortCanonical's order. Every miner, tracker
  /// and detector builds its table in this order without sorting.
  [[nodiscard]] bool IsCanonical() const;

  /// Discards the current summaries and recomputes them from the entries
  /// (used after filtering or deserializing entries). Also sorts
  /// canonically.
  void RebuildSummariesFromEntries();

 private:
  std::vector<SymbolPeriodicity> entries_;
  std::vector<PeriodSummary> summaries_;
  bool truncated_ = false;
  bool partial_ = false;
  Status resource_error_ = Status::OK();
};

}  // namespace periodica

#endif  // PERIODICA_CORE_PERIODICITY_H_
