#include "periodica/core/stage1.h"

#include <bit>
#include <cmath>
#include <limits>

#include "periodica/fft/convolution.h"
#include "periodica/fft/fft.h"

namespace periodica::internal {

namespace {

std::vector<std::uint64_t> LagWordCounts(const DynamicBitset& indicator,
                                         std::size_t lags) {
  std::vector<std::uint64_t> counts(lags, 0);
  for (std::size_t p = 0; p < lags; ++p) {
    counts[p] = indicator.CountAndShifted(indicator, p);
  }
  return counts;
}

}  // namespace

const char* Stage1PathName(Stage1Path path) {
  return path == Stage1Path::kLagWords ? "lag_words" : "fft";
}

double LagWordNanos(util::SimdKernel kernel) {
  // Per-word costs of CountAndShifted's bulk loop. Only their ratio to
  // kFftUnitNanos enters the predicate; bench/micro_stage1 re-measures
  // all three (docs/PERFORMANCE.md has the table).
  return kernel == util::SimdKernel::kAvx2 ? 0.5 : 3.6;
}

std::size_t Stage1CrossoverLags(std::size_t n, util::SimdKernel kernel) {
  const std::size_t words = (n + 63) / 64;
  if (words == 0) return std::numeric_limits<std::size_t>::max();
  const std::size_t n_fft = fft::NextPowerOfTwo(2 * n);
  const double fft_nanos = static_cast<double>(n_fft) *
                           static_cast<double>(std::countr_zero(n_fft)) *
                           kFftUnitNanos;
  const double lag_nanos = static_cast<double>(words) * LagWordNanos(kernel);
  return static_cast<std::size_t>(std::floor(fft_nanos / lag_nanos));
}

bool Stage1UsesLagWords(std::size_t n, std::size_t lags,
                        util::SimdKernel kernel) {
  return lags <= Stage1CrossoverLags(n, kernel);
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
  if (taken != nullptr) *taken = Stage1Path::kLagWords;
  if (path == Stage1Path::kLagWords) return LagWordCounts(indicator, lags);

  std::vector<double> as_double(indicator.size(), 0.0);
  indicator.ForEachSetBit([&as_double](std::size_t i) { as_double[i] = 1.0; });
  const std::vector<double> raw = fft::Autocorrelation(as_double);
  if (!FftCountsCertified(raw, lags, indicator.Count())) {
    return LagWordCounts(indicator, lags);
  }
  std::vector<std::uint64_t> counts(lags, 0);
  for (std::size_t p = 0; p < lags; ++p) {
    counts[p] = static_cast<std::uint64_t>(std::llround(raw[p]));
  }
  if (taken != nullptr) *taken = Stage1Path::kFft;
  return counts;
}

}  // namespace periodica::internal
