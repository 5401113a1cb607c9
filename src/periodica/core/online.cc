#include "periodica/core/online.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "periodica/core/detail.h"
#include "periodica/series/series.h"
#include "periodica/util/logging.h"

namespace periodica {

namespace {

Status ValidatePeriods(const std::vector<std::size_t>& periods) {
  if (periods.empty()) {
    return Status::InvalidArgument("at least one period must be tracked");
  }
  for (const std::size_t p : periods) {
    if (p < 1) return Status::InvalidArgument("periods must be >= 1");
  }
  return Status::OK();
}

std::vector<std::size_t> SortedUnique(std::vector<std::size_t> periods) {
  std::sort(periods.begin(), periods.end());
  periods.erase(std::unique(periods.begin(), periods.end()), periods.end());
  return periods;
}

/// Number of integers j in [lo, hi] with j mod p == phase.
std::uint64_t CountCongruent(std::size_t lo, std::size_t hi, std::size_t p,
                             std::size_t phase) {
  if (hi < lo) return 0;
  std::size_t first = lo + (phase + p - lo % p) % p;
  if (first > hi) return 0;
  return (hi - first) / p + 1;
}

/// Where each period's sigma * p counts start in a tracker's flat f2 array,
/// plus the total at the end.
std::vector<std::size_t> PeriodOffsets(const std::vector<std::size_t>& periods,
                                       std::size_t sigma) {
  std::vector<std::size_t> offsets = {0};
  for (const std::size_t p : periods) {
    offsets.push_back(offsets.back() + sigma * p);
  }
  return offsets;
}

/// A tracker's count for (period, symbol, phase); `period` must be tracked.
std::uint64_t TrackedCount(const std::vector<std::size_t>& periods,
                           const std::vector<std::size_t>& offsets,
                           const std::vector<std::uint64_t>& f2,
                           std::size_t period, SymbolId symbol,
                           std::size_t phase) {
  PERIODICA_CHECK_LT(phase, period);
  const auto it = std::lower_bound(periods.begin(), periods.end(), period);
  PERIODICA_CHECK(it != periods.end() && *it == period)
      << "period " << period << " is not tracked";
  return f2[offsets[static_cast<std::size_t>(it - periods.begin())] +
            static_cast<std::size_t>(symbol) * period + phase];
}

/// A tracker's Definition-1 table: every (symbol, phase) count of every
/// tracked period goes to EmitPeriod, zero counts included (threshold 0
/// keeps them), phase l of period p having `pairs_of(p, l)` pairs. Nothing
/// is truncated.
PeriodicityTable TrackerSnapshot(
    const std::vector<std::size_t>& periods,
    const std::vector<std::uint64_t>& f2, std::size_t sigma, double threshold,
    std::size_t min_pairs,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& pairs_of) {
  MinerOptions options;
  options.threshold = threshold;
  options.min_pairs = min_pairs;
  options.max_entries = std::numeric_limits<std::size_t>::max();
  PeriodicityTable table;
  std::vector<internal::PhaseCount> counts;
  auto count = f2.begin();  // periods' blocks are contiguous, (k, l) inside
  for (const std::size_t p : periods) {
    counts.clear();
    for (std::size_t k = 0; k < sigma; ++k) {
      for (std::size_t l = 0; l < p; ++l) {
        counts.push_back(
            internal::PhaseCount{static_cast<SymbolId>(k), l, *count++});
      }
    }
    internal::EmitPeriod(
        p, counts, [&](std::size_t l) { return pairs_of(p, l); }, options,
        &table);
  }
  PERIODICA_DCHECK(table.IsCanonical());
  return table;
}

}  // namespace

// --- OnlinePeriodicityTracker -----------------------------------------

OnlinePeriodicityTracker::OnlinePeriodicityTracker(
    Alphabet alphabet, std::vector<std::size_t> periods)
    : alphabet_(std::move(alphabet)),
      periods_(std::move(periods)),
      offsets_(PeriodOffsets(periods_, alphabet_.size())),
      f2_(offsets_.back(), 0) {
  ring_.assign(periods_.back(), 0);  // periods_ sorted: back() is the max
}

Result<OnlinePeriodicityTracker> OnlinePeriodicityTracker::Create(
    Alphabet alphabet, std::vector<std::size_t> periods) {
  PERIODICA_RETURN_NOT_OK(ValidatePeriods(periods));
  if (alphabet.size() == 0) {
    return Status::InvalidArgument("alphabet must be non-empty");
  }
  return OnlinePeriodicityTracker(std::move(alphabet),
                                  SortedUnique(std::move(periods)));
}

void OnlinePeriodicityTracker::Append(SymbolId symbol) {
  PERIODICA_DCHECK(static_cast<std::size_t>(symbol) < alphabet_.size());
  const std::size_t capacity = ring_.size();
  for (std::size_t idx = 0; idx < periods_.size(); ++idx) {
    const std::size_t p = periods_[idx];
    if (n_ < p) continue;
    const std::size_t j = n_ - p;  // the candidate earlier endpoint
    if (ring_[j % capacity] == symbol) {
      ++f2_[offsets_[idx] + static_cast<std::size_t>(symbol) * p + j % p];
    }
  }
  ring_[n_ % capacity] = symbol;
  if (n_ < capacity) head_.push_back(symbol);
  ++n_;
}

Result<OnlinePeriodicityTracker> OnlinePeriodicityTracker::Merge(
    const OnlinePeriodicityTracker& prefix,
    const OnlinePeriodicityTracker& suffix) {
  if (!(prefix.alphabet_ == suffix.alphabet_)) {
    return Status::InvalidArgument("trackers have different alphabets");
  }
  if (prefix.periods_ != suffix.periods_) {
    return Status::InvalidArgument("trackers track different period sets");
  }
  OnlinePeriodicityTracker merged(prefix.alphabet_, prefix.periods_);
  const std::size_t a = prefix.n_;
  const std::size_t b = suffix.n_;
  merged.n_ = a + b;
  merged.f2_ = prefix.f2_;
  const std::size_t capacity = merged.ring_.size();

  for (std::size_t idx = 0; idx < merged.periods_.size(); ++idx) {
    const std::size_t p = merged.periods_[idx];
    const std::size_t offset = merged.offsets_[idx];
    const std::size_t sigma = merged.alphabet_.size();
    // 1. Fold in the suffix's counts, rotating each phase by the prefix
    //    length: suffix-local position j is global position a + j.
    for (std::size_t k = 0; k < sigma; ++k) {
      for (std::size_t l = 0; l < p; ++l) {
        merged.f2_[offset + k * p + (l + a) % p] +=
            suffix.f2_[offset + k * p + l];
      }
    }
    // 2. Pairs spanning the boundary: earlier endpoint in the prefix's last
    //    min(p, a) symbols, later endpoint in the suffix's first symbols.
    //    Global pair (i, i+p) with i in [a-p, a) and i+p in [a, a+b).
    const std::size_t span = std::min(p, a);
    for (std::size_t back = 1; back <= span; ++back) {
      const std::size_t i = a - back;            // prefix-global index
      if (p - back >= b) continue;               // partner beyond the suffix
      const SymbolId left = prefix.ring_[i % capacity];
      const SymbolId right = suffix.head_[p - back];
      if (left == right) {
        merged.f2_[offset + static_cast<std::size_t>(left) * p + i % p] += 1;
      }
    }
  }

  // 3. Rebuild the merged head and ring so further Append()s and Merge()s
  //    stay exact. Head: prefix head, extended from the suffix head while
  //    the prefix was shorter than the window. Ring: the last `capacity`
  //    symbols overall.
  merged.head_ = prefix.head_;
  for (std::size_t j = 0; merged.head_.size() < capacity && j < b &&
                          j < suffix.head_.size();
       ++j) {
    merged.head_.push_back(suffix.head_[j]);
  }
  for (std::size_t i = (a + b >= capacity ? a + b - capacity : 0);
       i < a + b; ++i) {
    const SymbolId symbol =
        i < a ? prefix.ring_[i % capacity]
              : suffix.ring_[(i - a) % capacity];
    merged.ring_[i % capacity] = symbol;
  }
  return merged;
}

std::uint64_t OnlinePeriodicityTracker::F2Count(std::size_t period,
                                                SymbolId symbol,
                                                std::size_t phase) const {
  return TrackedCount(periods_, offsets_, f2_, period, symbol, phase);
}

PeriodicityTable OnlinePeriodicityTracker::Snapshot(
    double threshold, std::size_t min_pairs) const {
  return TrackerSnapshot(
      periods_, f2_, alphabet_.size(), threshold, min_pairs,
      [this](std::size_t p, std::size_t l) {
        return ProjectionPairCount(n_, p, l);
      });
}

// --- WindowedPeriodicityTracker ----------------------------------------

WindowedPeriodicityTracker::WindowedPeriodicityTracker(
    Alphabet alphabet, std::vector<std::size_t> periods, std::size_t window)
    : alphabet_(std::move(alphabet)),
      periods_(std::move(periods)),
      window_(window),
      offsets_(PeriodOffsets(periods_, alphabet_.size())),
      f2_(offsets_.back(), 0) {
  ring_.assign(window_, 0);
}

Result<WindowedPeriodicityTracker> WindowedPeriodicityTracker::Create(
    Alphabet alphabet, std::vector<std::size_t> periods, std::size_t window) {
  PERIODICA_RETURN_NOT_OK(ValidatePeriods(periods));
  if (alphabet.size() == 0) {
    return Status::InvalidArgument("alphabet must be non-empty");
  }
  if (window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  std::vector<std::size_t> unique = SortedUnique(std::move(periods));
  if (unique.back() >= window) {
    return Status::InvalidArgument(
        "every tracked period must be smaller than the window");
  }
  return WindowedPeriodicityTracker(std::move(alphabet), std::move(unique),
                                    window);
}

void WindowedPeriodicityTracker::Append(SymbolId symbol) {
  PERIODICA_DCHECK(static_cast<std::size_t>(symbol) < alphabet_.size());
  // 1. Retire the pairs anchored at the expiring position (its slot in the
  //    ring is the one the new symbol will take, so read it first). With
  //    every period < window, the partner j + p is still inside the ring.
  if (n_ >= window_) {
    const std::size_t leaving = n_ - window_;
    const SymbolId old_symbol = ring_[leaving % window_];
    for (std::size_t idx = 0; idx < periods_.size(); ++idx) {
      const std::size_t p = periods_[idx];
      if (ring_[(leaving + p) % window_] == old_symbol) {
        auto& count = f2_[offsets_[idx] +
                          static_cast<std::size_t>(old_symbol) * p +
                          leaving % p];
        PERIODICA_DCHECK(count > 0);
        --count;
      }
    }
  }
  // 2. Add the pairs ending at the new position n_.
  for (std::size_t idx = 0; idx < periods_.size(); ++idx) {
    const std::size_t p = periods_[idx];
    if (n_ < p) continue;
    const std::size_t j = n_ - p;
    if (ring_[j % window_] == symbol) {
      ++f2_[offsets_[idx] + static_cast<std::size_t>(symbol) * p + j % p];
    }
  }
  ring_[n_ % window_] = symbol;
  ++n_;
}

std::uint64_t WindowedPeriodicityTracker::PairSlots(std::size_t period,
                                                    std::size_t phase) const {
  if (n_ < period + 1) return 0;
  const std::size_t start = n_ < window_ ? 0 : n_ - window_;
  const std::size_t last_anchor = n_ - 1 - period;
  if (last_anchor < start) return 0;
  return CountCongruent(start, last_anchor, period, phase);
}

std::uint64_t WindowedPeriodicityTracker::F2Count(std::size_t period,
                                                  SymbolId symbol,
                                                  std::size_t phase) const {
  return TrackedCount(periods_, offsets_, f2_, period, symbol, phase);
}

PeriodicityTable WindowedPeriodicityTracker::Snapshot(
    double threshold, std::size_t min_pairs) const {
  return TrackerSnapshot(
      periods_, f2_, alphabet_.size(), threshold, min_pairs,
      [this](std::size_t p, std::size_t l) { return PairSlots(p, l); });
}

}  // namespace periodica
