#ifndef PERIODICA_CORE_FFT_MINER_H_
#define PERIODICA_CORE_FFT_MINER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "periodica/core/detail.h"
#include "periodica/core/options.h"
#include "periodica/core/periodicity.h"
#include "periodica/core/stage1.h"
#include "periodica/series/series.h"
#include "periodica/series/stream.h"
#include "periodica/util/bitset.h"

namespace periodica {

/// The production engine: the paper's convolution evaluated per symbol.
///
/// The weighted self-convolution of the sigma*n binary vector decomposes by
/// symbol: the slice of component c'_p belonging to symbol s_k has popcount
/// equal to the autocorrelation of s_k's 0/1 indicator vector at lag p. One
/// real FFT per symbol therefore yields every shift's match count |W_{p,k}|
/// at once — O(sigma * n log n), after a single pass over the input that
/// builds the indicator vectors. When max_period is far below n, the same
/// counts come cheaper from the convolution's exact bitset form, one
/// shifted AND-popcount per lag, and for a rare symbol cheaper still from
/// its position pairs within max_period (core/stage1.h picks the path per
/// symbol).
///
/// Detection then proceeds in two stages, each a named function that Mine
/// composes (and bench/stagebench times):
///  1. A *lossless* aggregate pre-filter (internal::PrefilterCandidates):
///     (p, k) can satisfy Definition 1 at some phase only if
///     |W_{p,k}| >= threshold * MinPairCount(n, p).
///  2. For surviving candidates (positions mode), PhaseCounts re-walks the
///     in-memory indicator bitsets to split |W_{p,k}| into the per-phase
///     counts |W_{p,k,l}| = F2(s_k, pi_{p,l}(T)), keeping only those that
///     pass Definition 1, and internal::EmitPeriod turns them into entries,
///     giving exact output.
/// Stage 2 never touches the input stream again; with positions mode off,
/// only stage 1 runs and summaries carry upper-bound confidences (the
/// O(n log n) detection phase the paper times in Fig. 5).
///
/// Both stages decompose into independent sub-problems (one FFT per symbol,
/// one phase split per candidate period); MinerOptions::num_threads spreads
/// them across a util::ThreadPool private to the Mine call. Results are
/// merged in a fixed order, so the returned table is byte-identical for
/// every thread count (see docs/PERFORMANCE.md).
///
/// Thread-safety: the miner is immutable after construction; Mine,
/// MatchCounts and PhaseCounts are const and may be called concurrently
/// from multiple threads on one instance.
class FftConvolutionMiner {
 public:
  explicit FftConvolutionMiner(const SymbolSeries& series);

  /// Builds the miner by consuming `stream` exactly once. Fails with
  /// InvalidArgument (carrying the stream position) on an out-of-alphabet
  /// symbol and propagates the stream's own error if it dies mid-read; wrap
  /// flaky or unvalidated sources in a ResilientStream
  /// (series/resilient_stream.h) to retry, skip or remap instead.
  static Result<FftConvolutionMiner> FromStream(SeriesStream* stream);

  /// Merge mining (the paper's reference [4]): combines the one-pass states
  /// of two adjacent segments into the state of their concatenation —
  /// per-symbol indicator vectors are concatenated, so mining the result is
  /// identical to mining the concatenated series, without re-reading either
  /// segment. Alphabets must match.
  static Result<FftConvolutionMiner> Concatenate(
      const FftConvolutionMiner& prefix, const FftConvolutionMiner& suffix);

  FftConvolutionMiner(FftConvolutionMiner&&) = default;
  FftConvolutionMiner& operator=(FftConvolutionMiner&&) = default;
  FftConvolutionMiner(const FftConvolutionMiner&) = delete;
  FftConvolutionMiner& operator=(const FftConvolutionMiner&) = delete;

  /// Runs periodicity detection (engine selection fields of `options` are
  /// ignored).
  [[nodiscard]] PeriodicityTable Mine(const MinerOptions& options) const;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] const Alphabet& alphabet() const { return alphabet_; }

  /// Reconstructs the series from the indicator vectors (they are a lossless
  /// representation); used to run the pattern stage after stream ingestion.
  [[nodiscard]] SymbolSeries ToSeries() const;

  /// Match counts |W_{p,k}| for symbol k at every lag p in [0, max_period]
  /// (exposed for the ablation benches and tests). Computed on the pair
  /// walk, the word path or the certified FFT path, whichever
  /// internal::Stage1ChoosePath predicts cheapest for this symbol under the
  /// active SIMD kernel; all three give the same exact integers. `path`,
  /// when not null, receives the path that produced them.
  [[nodiscard]] std::vector<std::uint64_t> MatchCounts(
      SymbolId symbol, std::size_t max_period,
      internal::Stage1Path* path = nullptr) const;

  /// Stage 2 for one period group: appends to `out` exactly the per-phase
  /// counts |W_{p,k,l}| that Definition 1 keeps under `options` (threshold
  /// and min_pairs, tested as internal::EmitPeriod does), for every
  /// candidate in `group` (all of period `period`, as internal::PeriodGroups
  /// yields them), by symbol in group order and then by ascending phase.
  /// The counts are bit-sliced column sums (core/stage2.h); the working
  /// memory is internal::Stage2GroupBytes, which Mine charges before
  /// calling it.
  void PhaseCounts(std::size_t period,
                   std::span<const internal::Candidate> group,
                   const MinerOptions& options,
                   std::vector<internal::PhaseCount>* out) const;

 private:
  FftConvolutionMiner(Alphabet alphabet, std::size_t n,
                      std::vector<DynamicBitset> indicators)
      : alphabet_(std::move(alphabet)),
        n_(n),
        indicators_(std::move(indicators)) {}

  Alphabet alphabet_;
  std::size_t n_ = 0;
  /// indicators_[k] bit i is set iff t_i == s_k.
  std::vector<DynamicBitset> indicators_;
};

}  // namespace periodica

#endif  // PERIODICA_CORE_FFT_MINER_H_
