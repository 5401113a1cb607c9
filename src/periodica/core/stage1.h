#ifndef PERIODICA_CORE_STAGE1_H_
#define PERIODICA_CORE_STAGE1_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "periodica/util/bitset.h"
#include "periodica/util/cpu_features.h"

/// Stage 1 of the FFT miner: the aggregate match counts |W_{p,k}| of one
/// symbol's indicator at every lag p < lags. Two algorithms compute the same
/// integers:
///
///  - the word path: counts[p] = popcount(x & (x >> p)) per lag, one shifted
///    AND-popcount over ceil(n/64) words each (DynamicBitset::CountAndShifted,
///    SIMD-dispatched). Exact by construction, no scratch; O(lags * n / 64).
///  - the FFT path: the paper's convolution, one real 2n-point
///    autocorrelation per symbol. O(n log n) whatever the lag range, so it
///    wins when max_period is a sizeable fraction of n.
///
/// Stage1UsesLagWords picks the cheaper one from a closed-form cost model
/// (docs/PERFORMANCE.md, "Stage 1: lag words or FFT"). The choice changes
/// wall time and scratch memory only, never a count.
namespace periodica::internal {

/// Which algorithm produced one symbol's stage-1 counts.
enum class Stage1Path {
  kLagWords,  ///< shifted AND-popcount per lag
  kFft,       ///< real-FFT autocorrelation, certified before use
};

/// "lag_words" or "fft" (the spelling stagebench records).
[[nodiscard]] const char* Stage1PathName(Stage1Path path);

/// Measured cost of one shifted AND-popcount word under `kernel`, in ns
/// (NEON uses the scalar weight until it is measured on an ARM host).
[[nodiscard]] double LagWordNanos(util::SimdKernel kernel);

/// Measured cost of the direct FFT path per n_fft * log2(n_fft) unit, in ns,
/// where n_fft = NextPowerOfTwo(2n) is the padded transform length.
inline constexpr double kFftUnitNanos = 2.4;

/// True when the word path is predicted no slower than the FFT for `lags`
/// lags of a length-`n` indicator under `kernel`:
///   lags * ceil(n/64) * LagWordNanos(kernel)
///       <= n_fft * log2(n_fft) * kFftUnitNanos.
/// The one stage-1 path predicate: MatchCounts, Mine's scratch charge and
/// EstimateMineMemory all call it.
[[nodiscard]] bool Stage1UsesLagWords(std::size_t n, std::size_t lags,
                                      util::SimdKernel kernel);

/// The largest lag count for which Stage1UsesLagWords(n, lags, kernel)
/// holds: the crossover stagebench reports.
[[nodiscard]] std::size_t Stage1CrossoverLags(std::size_t n,
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
/// not exceed indicator.size()), computed along `path`. FFT counts that fail
/// FftCountsCertified are recomputed on the word path; `taken`, when not
/// null, receives the path that produced the returned counts.
[[nodiscard]] std::vector<std::uint64_t> Stage1MatchCounts(
    const DynamicBitset& indicator, std::size_t lags, Stage1Path path,
    Stage1Path* taken = nullptr);

}  // namespace periodica::internal

#endif  // PERIODICA_CORE_STAGE1_H_
