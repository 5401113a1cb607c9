#ifndef PERIODICA_CORE_STAGE1_H_
#define PERIODICA_CORE_STAGE1_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "periodica/util/bitset.h"
#include "periodica/util/cpu_features.h"

/// Stage 1 of the FFT miner: the aggregate match counts |W_{p,k}| of one
/// symbol's indicator at every lag p < lags. Three algorithms compute the
/// same integers:
///
///  - the pair walk: ++counts[d] for every pair of the symbol's set
///    positions at distance d < lags, over a uint32 position list (4m bytes
///    for m set bits). O(P) for the P pairs within the lags, no FFT, no
///    rounding and no SIMD dispatch, so it wins for rare symbols.
///  - the word path: counts[p] = popcount(x & (x >> p)) per lag, one shifted
///    AND-popcount over ceil(n/64) words each (DynamicBitset::CountAndShifted,
///    SIMD-dispatched). Exact by construction, no scratch; O(lags * n / 64).
///  - the FFT path: the paper's convolution, one real 2n-point
///    autocorrelation per symbol. O(n log n) whatever the lag range, so it
///    wins when max_period is a sizeable fraction of n.
///
/// Stage1ChoosePath picks the cheapest one per symbol from a closed-form cost
/// model (docs/PERFORMANCE.md, "Stage 1: pairs, lag words or FFT"). The
/// choice changes wall time and scratch memory only, never a count.
namespace periodica::internal {

/// Which algorithm produced one symbol's stage-1 counts.
enum class Stage1Path {
  kPairs,     ///< ++counts[d] per position pair within the lags
  kLagWords,  ///< shifted AND-popcount per lag
  kFft,       ///< real-FFT autocorrelation, certified before use
};

/// "pairs", "lag_words" or "fft" (the spelling stagebench records).
[[nodiscard]] const char* Stage1PathName(Stage1Path path);

/// Measured cost of one shifted AND-popcount word under `kernel`, in ns
/// (NEON uses the scalar weight until it is measured on an ARM host).
[[nodiscard]] double LagWordNanos(util::SimdKernel kernel);

/// Measured cost of the direct FFT path per n_fft * log2(n_fft) unit, in ns,
/// where n_fft = NextPowerOfTwo(2n) is the padded transform length.
inline constexpr double kFftUnitNanos = 2.4;

/// Measured cost of one position pair on the pair walk, in ns (one
/// ++counts[d]; no SIMD dispatch, so one weight for every kernel).
inline constexpr double kPairNanos = 0.8;

/// True when the word path is predicted no slower than the FFT for `lags`
/// lags of a length-`n` indicator under `kernel`:
///   lags * ceil(n/64) * LagWordNanos(kernel)
///       <= n_fft * log2(n_fft) * kFftUnitNanos.
/// The data-independent half of Stage1ChoosePath: the path a symbol takes
/// when the pair walk is not cheaper, and the half EstimateMineMemory can
/// evaluate without seeing the data.
[[nodiscard]] bool Stage1UsesLagWords(std::size_t n, std::size_t lags,
                                      util::SimdKernel kernel);

/// The largest lag count for which Stage1UsesLagWords(n, lags, kernel)
/// holds: the crossover stagebench reports.
[[nodiscard]] std::size_t Stage1CrossoverLags(std::size_t n,
                                              util::SimdKernel kernel);

/// The number P of position pairs i < j of `indicator` with
/// pos_j - pos_i < lags, by one two-pointer sweep over the set bits. The
/// sweep stops as soon as the running count exceeds `limit`, and returns
/// that running count, so only "P <= limit" is exact past that point.
[[nodiscard]] std::uint64_t Stage1PairsWithin(const DynamicBitset& indicator,
                                              std::size_t lags,
                                              std::uint64_t limit);

/// The one stage-1 path predicate: MatchCounts, Mine's per-symbol scratch
/// charge and (through Stage1UsesLagWords) EstimateMineMemory all call it.
/// Picks the pair walk when
///   P * kPairNanos <= min(lag-word cost, FFT cost)
/// with P counted exactly by Stage1PairsWithin (never estimated from the
/// density: periodic input doubles P and clustered input squares it), and
/// otherwise the cheaper of lag words and the FFT per Stage1UsesLagWords.
[[nodiscard]] Stage1Path Stage1ChoosePath(const DynamicBitset& indicator,
                                          std::size_t lags,
                                          util::SimdKernel kernel);

/// The largest |raw[p] - round(raw[p])| an FFT autocorrelation may carry
/// and still be turned into counts. A residual this large means the
/// accumulated floating-point error is within a factor of two of
/// flipping a rounding, so the counts are recomputed exactly instead.
inline constexpr double kFftResidualBound = 0.25;

/// The exactness certificate for FFT counts: `raw` (at least `lags` values)
/// is accepted only when round(raw[0]) equals `popcount` (lag 0 counts every
/// set bit), every raw[p], p < lags, rounds into [0, popcount] (no lag can
/// match more positions than are set), and every rounding residual is below
/// kFftResidualBound.
[[nodiscard]] bool FftCountsCertified(std::span<const double> raw,
                                      std::size_t lags, std::uint64_t popcount);

/// The match counts of `indicator` with itself at lags 0..lags-1 (lags must
/// not exceed indicator.size(); the pair walk also needs size() <= 2^32),
/// computed along `path`. FFT counts that fail
/// FftCountsCertified are recomputed on the word path; `taken`, when not
/// null, receives the path that produced the returned counts.
[[nodiscard]] std::vector<std::uint64_t> Stage1MatchCounts(
    const DynamicBitset& indicator, std::size_t lags, Stage1Path path,
    Stage1Path* taken = nullptr);

}  // namespace periodica::internal

#endif  // PERIODICA_CORE_STAGE1_H_
