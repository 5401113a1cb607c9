#include "periodica/core/stage1.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "periodica/fft/convolution.h"
#include "periodica/fft/fft.h"

namespace periodica::internal {

namespace {

/// The largest indicator length whose positions fit the pair walk's uint32
/// list.
constexpr std::size_t kMaxPairWalkBits = std::size_t{1} << 32;

std::vector<std::uint64_t> LagWordCounts(const DynamicBitset& indicator,
                                         std::size_t lags) {
  std::vector<std::uint64_t> counts(lags, 0);
  for (std::size_t p = 0; p < lags; ++p) {
    counts[p] = indicator.CountAndShifted(indicator, p);
  }
  return counts;
}

std::vector<std::uint64_t> PairCounts(const DynamicBitset& indicator,
                                      std::size_t lags) {
  PERIODICA_DCHECK(indicator.size() <= kMaxPairWalkBits);
  std::vector<std::uint64_t> counts(lags, 0);
  if (lags == 0) return counts;
  std::vector<std::uint32_t> positions;
  positions.reserve(indicator.Count());
  indicator.ForEachSetBit([&positions](std::size_t i) {
    positions.push_back(static_cast<std::uint32_t>(i));
  });
  counts[0] = positions.size();
  // Every pair within the lags is visited once, from its later position:
  // `first` trails `j` by at most lags - 1 positions.
  std::size_t first = 0;
  for (std::size_t j = 1; j < positions.size(); ++j) {
    const std::uint32_t later = positions[j];
    while (later - positions[first] >= lags) ++first;
    for (std::size_t i = first; i < j; ++i) ++counts[later - positions[i]];
  }
  return counts;
}

/// Yields the set positions of a bitset's words in increasing order.
class SetBitCursor {
 public:
  explicit SetBitCursor(const std::vector<std::uint64_t>& words)
      : words_(words), bits_(words.empty() ? 0 : words.front()) {}

  /// The next set position; the caller must not read past the last one.
  std::size_t Next() {
    while (bits_ == 0) bits_ = words_[++word_];
    const std::size_t position =
        word_ * 64 + static_cast<std::size_t>(std::countr_zero(bits_));
    bits_ &= bits_ - 1;
    return position;
  }

 private:
  const std::vector<std::uint64_t>& words_;
  std::size_t word_ = 0;
  std::uint64_t bits_;
};

double FftCostNanos(std::size_t n) {
  const std::size_t n_fft = fft::NextPowerOfTwo(2 * n);
  return static_cast<double>(n_fft) *
         static_cast<double>(std::countr_zero(n_fft)) * kFftUnitNanos;
}

}  // namespace

const char* Stage1PathName(Stage1Path path) {
  switch (path) {
    case Stage1Path::kPairs:
      return "pairs";
    case Stage1Path::kLagWords:
      return "lag_words";
    case Stage1Path::kFft:
      return "fft";
  }
  return "unknown";
}

double LagWordNanos(util::SimdKernel kernel) {
  // Per-word costs of CountAndShifted's bulk loop. Only their ratio to
  // kFftUnitNanos and kPairNanos enters the predicate; bench/micro_stage1
  // re-measures all of them (docs/PERFORMANCE.md has the table).
  return kernel == util::SimdKernel::kAvx2 ? 0.5 : 3.6;
}

std::size_t Stage1CrossoverLags(std::size_t n, util::SimdKernel kernel) {
  const std::size_t words = (n + 63) / 64;
  if (words == 0) return std::numeric_limits<std::size_t>::max();
  const double lag_nanos = static_cast<double>(words) * LagWordNanos(kernel);
  return static_cast<std::size_t>(std::floor(FftCostNanos(n) / lag_nanos));
}

bool Stage1UsesLagWords(std::size_t n, std::size_t lags,
                        util::SimdKernel kernel) {
  return lags <= Stage1CrossoverLags(n, kernel);
}

std::uint64_t Stage1PairsWithin(const DynamicBitset& indicator,
                                std::size_t lags, std::uint64_t limit) {
  const std::size_t set_bits = indicator.Count();
  if (lags < 2 || set_bits < 2) return 0;
  // `lead` visits every position j; `trail` the first position within
  // lags - 1 of it, so j - trailing positions pair with j.
  SetBitCursor lead(indicator.words());
  SetBitCursor trail(indicator.words());
  (void)lead.Next();
  std::size_t trail_position = trail.Next();
  std::size_t trailing = 0;
  std::uint64_t pairs = 0;
  for (std::size_t j = 1; j < set_bits; ++j) {
    const std::size_t position = lead.Next();
    while (position - trail_position >= lags) {
      trail_position = trail.Next();
      ++trailing;
    }
    pairs += j - trailing;
    if (pairs > limit) break;
  }
  return pairs;
}

Stage1Path Stage1ChoosePath(const DynamicBitset& indicator, std::size_t lags,
                            util::SimdKernel kernel) {
  const std::size_t n = indicator.size();
  const Stage1Path dense = Stage1UsesLagWords(n, lags, kernel)
                               ? Stage1Path::kLagWords
                               : Stage1Path::kFft;
  if (n > kMaxPairWalkBits) return dense;
  const double lag_words = static_cast<double>(lags) *
                           static_cast<double>((n + 63) / 64) *
                           LagWordNanos(kernel);
  // No pair count above ~2^63 can be cheaper: the cap keeps the cast
  // defined.
  const std::uint64_t limit = static_cast<std::uint64_t>(std::min(
      std::floor(std::min(lag_words, FftCostNanos(n)) / kPairNanos), 9.0e18));
  return Stage1PairsWithin(indicator, lags, limit) <= limit ? Stage1Path::kPairs
                                                            : dense;
}

bool FftCountsCertified(std::span<const double> raw, std::size_t lags,
                        std::uint64_t popcount) {
  if (raw.size() < lags) return false;
  const double limit = static_cast<double>(popcount);
  for (std::size_t p = 0; p < lags; ++p) {
    const double rounded = std::round(raw[p]);
    if (!(std::fabs(raw[p] - rounded) < kFftResidualBound)) return false;
    if (rounded < 0.0 || rounded > limit) return false;
  }
  return lags == 0 || std::round(raw[0]) == limit;
}

std::vector<std::uint64_t> Stage1MatchCounts(const DynamicBitset& indicator,
                                             std::size_t lags, Stage1Path path,
                                             Stage1Path* taken) {
  PERIODICA_DCHECK(lags <= indicator.size());
  if (taken != nullptr) *taken = path;
  if (path == Stage1Path::kPairs) return PairCounts(indicator, lags);
  if (path == Stage1Path::kLagWords) return LagWordCounts(indicator, lags);

  std::vector<double> as_double(indicator.size(), 0.0);
  indicator.ForEachSetBit([&as_double](std::size_t i) { as_double[i] = 1.0; });
  const std::vector<double> raw = fft::Autocorrelation(as_double);
  if (!FftCountsCertified(raw, lags, indicator.Count())) {
    if (taken != nullptr) *taken = Stage1Path::kLagWords;
    return LagWordCounts(indicator, lags);
  }
  std::vector<std::uint64_t> counts(lags, 0);
  for (std::size_t p = 0; p < lags; ++p) {
    counts[p] = static_cast<std::uint64_t>(std::llround(raw[p]));
  }
  return counts;
}

}  // namespace periodica::internal
