#include "periodica/core/stage2.h"

#include <algorithm>
#include <bit>

#include "periodica/series/series.h"
#include "periodica/util/logging.h"

namespace periodica::internal {

namespace {

/// The 64 bits of `x` starting at bit 64q + s, for s in [0, 63]: words q and
/// q + 1, which must both be readable. The split left shift keeps s == 0
/// defined (word q + 1 then contributes nothing).
inline std::uint64_t Funnel(const std::uint64_t* x, std::size_t q,
                            unsigned s) {
  return (x[q] >> s) | ((x[q + 1] << (63 - s)) << 1);
}

/// Funnel at bit `bit` for the rows next to the end of the indicator, where
/// words at or past `nw` read as zero. No position mask is needed anywhere:
/// the indicator's bits past n are zero, so x[i] & x[i + p] vanishes for
/// every i >= n - p.
inline std::uint64_t FunnelChecked(const std::uint64_t* x, std::size_t nw,
                                   std::size_t bit) {
  const std::size_t q = bit >> 6;
  const auto s = static_cast<unsigned>(bit & 63);
  const std::uint64_t lo = q < nw ? x[q] : 0;
  const std::uint64_t hi = q + 1 < nw ? x[q + 1] : 0;
  return (lo >> s) | ((hi << (63 - s)) << 1);
}

/// Carry-save adder: high:low = low + b + c, per bit lane.
inline void Csa(std::uint64_t* high, std::uint64_t* low, std::uint64_t b,
                std::uint64_t c) {
  const std::uint64_t u = *low ^ b;
  *high = (*low & b) | (u & c);
  *low = u ^ c;
}

/// The bit-sliced column counters of one candidate: plane b, word r holds
/// bit b of the counts of columns 64r .. 64r + 63.
class PlaneCounter {
 public:
  /// `planes` holds num_planes + 1 rows of `words` words: the planes and
  /// the carry row of the eights.
  PlaneCounter(std::uint64_t* planes, std::size_t num_planes,
               std::size_t words)
      : planes_(planes),
        carry_(planes + num_planes * words),
        num_planes_(num_planes),
        words_(words) {
    std::fill(planes_, planes_ + num_planes_ * words_, std::uint64_t{0});
  }

  /// Adds rows first..first+7, whose reads all stay inside the indicator's
  /// words: a Harley-Seal network folds them into planes 0-2 (ones, twos,
  /// fours), and the eights it carries out are then rippled into planes 3
  /// and up. Both are straight word loops, so the compiler vectorises them
  /// across r. When a row is exactly one period (kRowIsPeriod, p >= 64),
  /// row i's partner x >> p is row i + 1's own read, so a block reads nine
  /// shifted words per r instead of sixteen.
  template <bool kRowIsPeriod>
  void AddEightRows(const std::uint64_t* __restrict x, std::size_t first,
                    std::size_t row_bits, std::size_t period) {
    std::size_t qa[9];
    std::size_t qb[8];
    unsigned sa[9];
    unsigned sb[8];
    for (std::size_t i = 0; i < 9; ++i) {
      const std::size_t bit = (first + i) * row_bits;
      qa[i] = bit >> 6;
      sa[i] = static_cast<unsigned>(bit & 63);
      if (i < 8) {
        qb[i] = (bit + period) >> 6;
        sb[i] = static_cast<unsigned>((bit + period) & 63);
      }
    }
    std::uint64_t* __restrict ones = planes_;
    std::uint64_t* __restrict twos = planes_ + words_;
    std::uint64_t* __restrict fours = planes_ + 2 * words_;
    std::uint64_t* __restrict eights = carry_;
    for (std::size_t r = 0; r < words_; ++r) {
      std::uint64_t d[8];
      if constexpr (kRowIsPeriod) {
        std::uint64_t y[9];
        for (std::size_t i = 0; i < 9; ++i) y[i] = Funnel(x, qa[i] + r, sa[i]);
        for (std::size_t i = 0; i < 8; ++i) d[i] = y[i] & y[i + 1];
      } else {
        for (std::size_t i = 0; i < 8; ++i) {
          d[i] = Funnel(x, qa[i] + r, sa[i]) & Funnel(x, qb[i] + r, sb[i]);
        }
      }
      std::uint64_t one = ones[r];
      std::uint64_t two = twos[r];
      std::uint64_t four = fours[r];
      std::uint64_t two_a;
      std::uint64_t two_b;
      std::uint64_t four_a;
      std::uint64_t four_b;
      Csa(&two_a, &one, d[0], d[1]);
      Csa(&two_b, &one, d[2], d[3]);
      Csa(&four_a, &two, two_a, two_b);
      Csa(&two_a, &one, d[4], d[5]);
      Csa(&two_b, &one, d[6], d[7]);
      Csa(&four_b, &two, two_a, two_b);
      Csa(&eights[r], &four, four_a, four_b);
      ones[r] = one;
      twos[r] = two;
      fours[r] = four;
    }
    for (std::size_t b = 3; b < num_planes_; ++b) {
      std::uint64_t* __restrict plane = planes_ + b * words_;
      for (std::size_t r = 0; r < words_; ++r) {
        const std::uint64_t carry = plane[r] & eights[r];
        plane[r] ^= eights[r];
        eights[r] = carry;
      }
    }
  }

  /// Adds row `row` with bounds-checked reads (for the rows the blocks leave
  /// over, including those next to the end of the indicator).
  void AddRow(const std::uint64_t* x, std::size_t nw, std::size_t row,
              std::size_t row_bits, std::size_t period) {
    const std::size_t bit = row * row_bits;
    for (std::size_t r = 0; r < words_; ++r) {
      std::uint64_t carry = FunnelChecked(x, nw, bit + 64 * r) &
                            FunnelChecked(x, nw, bit + 64 * r + period);
      for (std::size_t b = 0; b < num_planes_ && carry != 0; ++b) {
        std::uint64_t& plane = planes_[b * words_ + r];
        const std::uint64_t next = plane & carry;
        plane ^= carry;
        carry = next;
      }
    }
  }

  /// Clears the columns at and past `row_bits` in the last word: they hold
  /// the start of the next row, counted but never read.
  void MaskColumns(std::size_t row_bits) {
    if (row_bits % 64 == 0) return;
    const std::uint64_t keep = (std::uint64_t{1} << (row_bits % 64)) - 1;
    for (std::size_t b = 0; b < num_planes_; ++b) {
      planes_[b * words_ + words_ - 1] &= keep;
    }
  }

  /// Sum over columns of their counts: sum_b 2^b * popcount(plane b).
  [[nodiscard]] std::uint64_t Total() const {
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < num_planes_; ++b) {
      for (std::size_t r = 0; r < words_; ++r) {
        total += static_cast<std::uint64_t>(
                     std::popcount(planes_[b * words_ + r]))
                 << b;
      }
    }
    return total;
  }

  /// The count of column 64r + bit.
  [[nodiscard]] std::uint64_t Count(std::size_t r, unsigned bit) const {
    std::uint64_t count = 0;
    for (std::size_t b = 0; b < num_planes_; ++b) {
      count |= ((planes_[b * words_ + r] >> bit) & 1) << b;
    }
    return count;
  }

  /// True when some column's count is at least `threshold`.
  [[nodiscard]] bool AnyAtLeast(std::uint64_t threshold) const {
    std::uint64_t any = 0;
    for (std::size_t r = 0; r < words_; ++r) any |= AtLeast(r, threshold);
    return any != 0;
  }

  /// The columns 64r .. 64r + 63 whose count is at least `threshold`: a
  /// bit-sliced comparison from the top plane down.
  [[nodiscard]] std::uint64_t AtLeast(std::size_t r,
                                      std::uint64_t threshold) const {
    if (static_cast<std::size_t>(std::bit_width(threshold)) > num_planes_) {
      return 0;  // above every count the planes can hold
    }
    std::uint64_t greater = 0;
    std::uint64_t equal = ~std::uint64_t{0};
    for (std::size_t b = num_planes_; b-- > 0;) {
      const std::uint64_t plane = planes_[b * words_ + r];
      if ((threshold >> b) & 1) {
        equal &= plane;
      } else {
        greater |= equal & plane;
        equal &= ~plane;
      }
    }
    return greater | equal;
  }

 private:
  std::uint64_t* planes_;
  std::uint64_t* carry_;
  std::size_t num_planes_;
  std::size_t words_;
};

/// The smallest f2 in [1, pairs] that EmitPeriod accepts with `pairs`
/// projection pairs, by its own test, or kNoPassingCount. Acceptance is
/// monotone in f2 (IEEE division is), so a binary search finds it.
std::uint64_t MinPassingCount(std::uint64_t pairs,
                              const MinerOptions& options) {
  if (pairs == 0 || pairs < options.min_pairs) return kNoPassingCount;
  const auto passes = [&](std::uint64_t f2) {
    return !(static_cast<double>(f2) / static_cast<double>(pairs) <
             options.threshold);
  };
  if (!passes(pairs)) return kNoPassingCount;
  std::uint64_t lo = 1;
  std::uint64_t hi = pairs;  // passes(hi) holds
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Words per row: ceil(P/64).
std::size_t RowWords(std::size_t period) {
  return (Stage2RowBits(period) + 63) / 64;
}

/// Rows of the matrix: ceil((n - p) / P), the rows holding a position
/// i < n - p.
std::size_t RowCount(std::size_t n, std::size_t period) {
  const std::size_t row_bits = Stage2RowBits(period);
  return n > period ? (n - period + row_bits - 1) / row_bits : 0;
}

std::size_t PlaneCount(std::size_t n, std::size_t period) {
  return static_cast<std::size_t>(std::bit_width(RowCount(n, period)));
}

}  // namespace

PhaseThresholds Stage2Thresholds(std::size_t n, std::size_t period,
                                 const MinerOptions& options) {
  PERIODICA_DCHECK(period >= 1 && period < n);
  PhaseThresholds thresholds;
  thresholds.split = n % period;
  thresholds.long_min =
      MinPassingCount(ProjectionPairCount(n, period, 0), options);
  thresholds.short_min =
      MinPassingCount(ProjectionPairCount(n, period, period - 1), options);
  return thresholds;
}

std::size_t Stage2RowBits(std::size_t period) {
  PERIODICA_DCHECK(period >= 1);
  return period * ((64 + period - 1) / period);
}

void Stage2PhaseCounts(const DynamicBitset& indicator, std::size_t period,
                       SymbolId symbol, std::uint64_t matches,
                       const PhaseThresholds& thresholds,
                       std::vector<std::uint64_t>* planes,
                       std::vector<PhaseCount>* out) {
  const std::size_t n = indicator.size();
  PERIODICA_DCHECK(period >= 1 && period < n);
  if (matches < thresholds.Min()) return;

  const std::size_t row_bits = Stage2RowBits(period);
  const std::size_t words = RowWords(period);
  const std::size_t rows = RowCount(n, period);
  const std::size_t num_planes = PlaneCount(n, period);
  planes->resize((num_planes + 1) * words);
  PlaneCounter counter(planes->data(), num_planes, words);

  // Interior rows read words below nw only, so they need no checks: row j's
  // last read is word ((j*P + p) >> 6) + words.
  const std::uint64_t* x = indicator.words().data();
  const std::size_t nw = indicator.words().size();
  std::size_t interior = rows;
  while (interior > 0 &&
         (((interior - 1) * row_bits + period) >> 6) + words >= nw) {
    --interior;
  }
  // Give up on the candidate once no column can reach its share of the
  // smallest threshold even if every remaining row matched there: a phase
  // sums P/p columns, so one of them must end at ceil(Min() / (P/p)) or
  // more. That can only happen once fewer rows remain than that share, so
  // the check starts there and repeats every kCheckRows rows.
  constexpr std::size_t kCheckRows = 16;
  const std::uint64_t columns_per_phase = row_bits / period;
  const std::uint64_t column_min =
      (thresholds.Min() + columns_per_phase - 1) / columns_per_phase;
  const std::size_t first_check =
      column_min > rows ? 0 : ((rows - column_min + 1 + 7) & ~std::size_t{7});
  const std::size_t block_rows = interior - interior % 8;
  std::size_t row = 0;
  while (row < block_rows) {
    const std::size_t stop =
        std::min(block_rows, std::max(row + kCheckRows, first_check));
    if (row_bits == period) {
      for (; row < stop; row += 8) {
        counter.AddEightRows<true>(x, row, row_bits, period);
      }
    } else {
      for (; row < stop; row += 8) {
        counter.AddEightRows<false>(x, row, row_bits, period);
      }
    }
    const std::size_t remaining = rows - row;
    if (column_min > remaining &&
        !counter.AnyAtLeast(column_min - remaining)) {
      return;
    }
  }
  for (; row < rows; ++row) counter.AddRow(x, nw, row, row_bits, period);
  counter.MaskColumns(row_bits);
  PERIODICA_DCHECK(counter.Total() == matches)
      << "stage-1 match count disagrees with the stage-2 planes";

  if (period >= 64) {
    // One column per phase: compare word by word, then read the counts of
    // the passing columns only.
    for (std::size_t r = 0; r < words; ++r) {
      const std::size_t first = 64 * r;
      std::uint64_t long_phases = 0;  // phases first + bit < split
      if (thresholds.split > first) {
        const std::size_t span = thresholds.split - first;
        long_phases =
            span >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << span) - 1;
      }
      std::uint64_t pass =
          (counter.AtLeast(r, thresholds.long_min) & long_phases) |
          (counter.AtLeast(r, thresholds.short_min) & ~long_phases);
      while (pass != 0) {
        const auto bit = static_cast<unsigned>(std::countr_zero(pass));
        pass &= pass - 1;
        out->push_back(
            PhaseCount{symbol, first + bit, counter.Count(r, bit)});
      }
    }
    return;
  }

  // p < 64: fold the P = p * ceil(64/p) columns onto the p phases, then
  // test each phase.
  std::uint64_t fold[64] = {};
  std::size_t phase = 0;
  for (std::size_t column = 0; column < row_bits; ++column) {
    fold[phase] +=
        counter.Count(column / 64, static_cast<unsigned>(column % 64));
    if (++phase == period) phase = 0;
  }
  for (std::size_t l = 0; l < period; ++l) {
    const std::uint64_t f2 = fold[l];
    if (f2 >= thresholds.At(l)) {
      out->push_back(PhaseCount{symbol, l, f2});
    }
  }
}

std::size_t Stage2GroupBytes(std::size_t n, std::size_t period,
                             std::span<const Candidate> group,
                             const MinerOptions& options) {
  const PhaseThresholds thresholds = Stage2Thresholds(n, period, options);
  const std::uint64_t threshold = thresholds.Min();
  std::uint64_t total_matches = 0;
  std::uint64_t passing = 0;  // phases that can reach the threshold
  for (const Candidate& candidate : group) {
    total_matches += candidate.matches;
    if (threshold != kNoPassingCount) passing += candidate.matches / threshold;
  }
  const std::uint64_t stored = std::min(
      {total_matches, static_cast<std::uint64_t>(period) * group.size(),
       passing});
  return 8 * (PlaneCount(n, period) + 1) * RowWords(period) +
         static_cast<std::size_t>(24 * stored);
}

std::size_t Stage2GroupBoundBytes(std::size_t n, std::size_t sigma,
                                  std::size_t max_period) {
  // K <= bit_width(n), plus the carry row; a row spans at most two words
  // below p = 64 and ceil(p/64) from there; and a group stores at most one
  // phase per match (<= n) and p per symbol.
  const std::size_t words = std::max<std::size_t>(2, (max_period + 63) / 64);
  return 8 * (static_cast<std::size_t>(std::bit_width(n)) + 1) * words +
         24 * std::min(n, sigma * max_period);
}

}  // namespace periodica::internal
