#ifndef PERIODICA_CORE_ONLINE_H_
#define PERIODICA_CORE_ONLINE_H_

#include <cstdint>
#include <vector>

#include "periodica/core/periodicity.h"
#include "periodica/series/alphabet.h"
#include "periodica/util/result.h"

namespace periodica {

namespace internal {
class CheckpointAccess;
}  // namespace internal

/// Incremental maintenance of Definition-1 statistics for a fixed set of
/// candidate periods over an unbounded stream — the online setting the
/// paper's introduction motivates ("real-time systems ... cannot abide the
/// time nor the storage needed for multiple passes") and its reference [4]
/// (Aref, Elfeky, Elmagarmid, TKDE) develops.
///
/// Typical use: the one-pass ObscureMiner discovers candidate periods over a
/// prefix; a tracker then follows the live stream with O(#periods) work per
/// symbol and O(max period + sigma * sum(periods)) memory, answering
/// Snapshot() at any time with the exact Definition-1 table over everything
/// seen so far.
class OnlinePeriodicityTracker {
 public:
  /// `periods` must be non-empty, each >= 1; duplicates are removed.
  static Result<OnlinePeriodicityTracker> Create(
      Alphabet alphabet, std::vector<std::size_t> periods);

  /// Feeds the next symbol of the stream.
  void Append(SymbolId symbol);

  /// Symbols consumed so far.
  [[nodiscard]] std::size_t size() const { return n_; }

  [[nodiscard]] const Alphabet& alphabet() const { return alphabet_; }
  [[nodiscard]] const std::vector<std::size_t>& periods() const {
    return periods_;
  }

  /// Current F2(s, pi_{p,l}) over the whole stream; `period` must be
  /// tracked.
  [[nodiscard]] std::uint64_t F2Count(std::size_t period, SymbolId symbol,
                                      std::size_t phase) const;

  /// The exact Definition-1 table over everything consumed so far,
  /// restricted to the tracked periods.
  [[nodiscard]] PeriodicityTable Snapshot(double threshold,
                                          std::size_t min_pairs = 1) const;

  /// Merge mining (the paper's reference [4]): combines the statistics of
  /// two trackers that consumed *adjacent* segments of one stream —
  /// `prefix` saw T[0..a), `suffix` saw T[a..a+b) — into the tracker that
  /// would have consumed T[0..a+b). Exact: suffix phases are rotated by the
  /// prefix length and the pairs spanning the boundary are reconstructed
  /// from the prefix's tail and the suffix's head. Both trackers must share
  /// the alphabet and tracked-period set.
  static Result<OnlinePeriodicityTracker> Merge(
      const OnlinePeriodicityTracker& prefix,
      const OnlinePeriodicityTracker& suffix);

 private:
  /// Checkpoint/resume (core/checkpoint.h) snapshots and restores the
  /// private state.
  friend class internal::CheckpointAccess;

  OnlinePeriodicityTracker(Alphabet alphabet,
                           std::vector<std::size_t> periods);

  Alphabet alphabet_;
  std::vector<std::size_t> periods_;      // sorted, unique
  std::vector<std::size_t> offsets_;      // offsets_[i]: start of period i's
                                          // counts (sigma * period slots)
  std::vector<std::uint64_t> f2_;         // f2_[offset + k*p + l]
  std::vector<SymbolId> ring_;            // last max(periods) symbols
  std::vector<SymbolId> head_;            // first max(periods) symbols
                                          // (kept for Merge)
  std::size_t n_ = 0;
};

/// The same statistics over a sliding window of the last `window` symbols:
/// each Append adds the pairs ending at the new symbol and retires the pairs
/// anchored at the expiring one, keeping O(#periods) amortized work per
/// symbol and O(window) memory. Phases are absolute (position mod period in
/// the global stream), so a stable periodic process keeps stable phases as
/// the window slides.
class WindowedPeriodicityTracker {
 public:
  /// Every tracked period must be < window.
  static Result<WindowedPeriodicityTracker> Create(
      Alphabet alphabet, std::vector<std::size_t> periods,
      std::size_t window);

  void Append(SymbolId symbol);

  /// Symbols consumed so far (>= window size once warm).
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t window() const { return window_; }
  /// Number of symbols currently inside the window.
  [[nodiscard]] std::size_t occupancy() const {
    return n_ < window_ ? n_ : window_;
  }

  [[nodiscard]] const Alphabet& alphabet() const { return alphabet_; }
  [[nodiscard]] const std::vector<std::size_t>& periods() const {
    return periods_;
  }

  /// Pairs (j, j+p) currently inside the window with symbol `symbol` at
  /// both ends and j mod p == phase.
  [[nodiscard]] std::uint64_t F2Count(std::size_t period, SymbolId symbol,
                                      std::size_t phase) const;

  /// Definition-1 table over the current window content (confidences are
  /// F2 / #pair-slots-in-window for each absolute phase).
  [[nodiscard]] PeriodicityTable Snapshot(double threshold,
                                          std::size_t min_pairs = 1) const;

 private:
  WindowedPeriodicityTracker(Alphabet alphabet,
                             std::vector<std::size_t> periods,
                             std::size_t window);

  /// Number of pair anchors j in [window start, n-1-p] with j mod p == l.
  std::uint64_t PairSlots(std::size_t period, std::size_t phase) const;

  Alphabet alphabet_;
  std::vector<std::size_t> periods_;
  std::size_t window_;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint64_t> f2_;
  std::vector<SymbolId> ring_;  // last `window` symbols
  std::size_t n_ = 0;
};

}  // namespace periodica

#endif  // PERIODICA_CORE_ONLINE_H_
