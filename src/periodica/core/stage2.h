#ifndef PERIODICA_CORE_STAGE2_H_
#define PERIODICA_CORE_STAGE2_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "periodica/core/detail.h"
#include "periodica/core/options.h"
#include "periodica/util/bitset.h"

/// Stage 2 of the FFT miner: the per-phase counts |W_{p,k,l}| of one
/// (period, symbol) candidate, filtered by Definition 1.
///
/// The phase counts are the column sums of a bit matrix. The match mask
/// M = x & (x >> p) is cut into rows of P = p * ceil(64/p) bits (P = p when
/// p >= 64), so every column of a row holds a fixed phase, column mod p.
/// Word r of row j is (x >> (j*P + 64r)) & (x >> (j*P + 64r + p)), cut to 64
/// bits and read straight from the indicator: there is no position vector.
/// Blocks of eight rows go through a Harley-Seal carry-save network into
/// K = bit_width(rows) bit-planes, so plane b holds bit b of every column's
/// count. When p < 64 the P columns are folded back onto p phases. A
/// bit-sliced count >= T comparator then picks the passing phases, where T
/// is the smallest count Definition 1 accepts at that phase (one value for
/// the phases with ceil(n/p) - 1 pairs, one for those with one pair less).
///
/// A candidate stops early once no column can reach the smallest threshold
/// even if every remaining row matched there, so candidates that pass at no
/// phase (most of them) rarely walk every row.
///
/// The cost is at most ceil(n/64) row words plus the passing phases per
/// candidate, whatever the match density, and the scratch is the planes
/// (docs/PERFORMANCE.md, "The performance model").
namespace periodica::internal {

/// A threshold no count reaches: the phase class has no pairs, fewer than
/// min_pairs, or the threshold is above 1.
inline constexpr std::uint64_t kNoPassingCount =
    std::numeric_limits<std::uint64_t>::max();

/// Definition 1's acceptance of one period as count thresholds. A phase l
/// has ceil((n-l)/p) - 1 projection pairs: ceil(n/p) - 1 for l < `split`
/// (= n mod p) and one fewer for the rest. `long_min` and `short_min` are
/// the smallest F2 counts that pass in those two classes, by EmitPeriod's
/// own test (pairs >= max(1, min_pairs) and f2 / pairs >= threshold in
/// double), and never below 1: an empty phase is never emitted.
struct PhaseThresholds {
  std::size_t split = 0;
  std::uint64_t long_min = kNoPassingCount;
  std::uint64_t short_min = kNoPassingCount;

  /// The threshold of phase `phase`.
  [[nodiscard]] std::uint64_t At(std::size_t phase) const {
    return phase < split ? long_min : short_min;
  }
  /// The smallest threshold over every phase: a candidate with fewer
  /// matches passes at no phase.
  [[nodiscard]] std::uint64_t Min() const {
    return split > 0 && long_min < short_min ? long_min : short_min;
  }
};

/// The thresholds of `period` (1 <= period < n) for a length-`n` series.
[[nodiscard]] PhaseThresholds Stage2Thresholds(std::size_t n,
                                               std::size_t period,
                                               const MinerOptions& options);

/// Row length P = p * ceil(64/p) in bits: a whole number of periods, and
/// at least one word.
[[nodiscard]] std::size_t Stage2RowBits(std::size_t period);

/// Appends to `out`, in ascending phase order, the PhaseCount of every phase
/// of `period` at which `indicator` (the bitset of `symbol`, length n) passes
/// `thresholds`. `planes` is working memory, reused across the candidates of
/// a group: the K planes and the carry row of the eights, ceil(P/64) words
/// each. `matches` is the candidate's stage-1 count |W_{p,k}|; the
/// planes must total it (checked in debug builds, for a walk that is not
/// cut short), and a candidate with fewer matches than thresholds.Min() is
/// skipped without a walk.
void Stage2PhaseCounts(const DynamicBitset& indicator, std::size_t period,
                       SymbolId symbol, std::uint64_t matches,
                       const PhaseThresholds& thresholds,
                       std::vector<std::uint64_t>* planes,
                       std::vector<PhaseCount>* out);

/// The bytes Mine charges before splitting one period group of a
/// length-`n` series: the planes and their carry row
/// (8 * (K + 1) * ceil(P/64)) and 24 bytes per phase that can pass, at most
/// min(sum of matches, p * |group|, sum of matches / thresholds.Min()).
[[nodiscard]] std::size_t Stage2GroupBytes(std::size_t n, std::size_t period,
                                           std::span<const Candidate> group,
                                           const MinerOptions& options);

/// The largest Stage2GroupBytes of any group when mining a length-`n`,
/// `sigma`-symbol series up to `max_period`: EstimateMineMemory's
/// per-group stage-2 term.
[[nodiscard]] std::size_t Stage2GroupBoundBytes(std::size_t n,
                                                std::size_t sigma,
                                                std::size_t max_period);

}  // namespace periodica::internal

#endif  // PERIODICA_CORE_STAGE2_H_
