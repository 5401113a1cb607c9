// Stage-1 path crossover: measures the two algorithms behind
// FftConvolutionMiner::MatchCounts — shifted AND-popcount lag words and the
// certified real-FFT autocorrelation (core/stage1.h) — on one sparse
// indicator per series length and SIMD kernel, and prints the measured
// per-word and per-FFT-unit costs next to the cost model's crossover.
//
//   micro_stage1                         # n = 2^14 .. 2^20, every kernel
//   micro_stage1 --min_log2 16 --max_log2 16 --repeats 9
//
// Columns: "ns/word" is the lag-word time per shifted word (lags * ceil(n/64)
// words per call); "ns/unit" is the FFT time per n_fft * log2(n_fft), with
// n_fft = NextPowerOfTwo(2n); "measured x" is the lag count at which the
// measured lag-word time equals the measured FFT time, "model x" is
// internal::Stage1CrossoverLags, whose weights these columns calibrate. The
// last columns give, for a few max_period values, the path the model picks
// and whether it is the measured-faster one. Times are medians of
// --repeats runs after one warm-up.

#include <algorithm>
#include <bit>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "periodica/core/stage1.h"
#include "periodica/fft/fft.h"
#include "periodica/util/bitset.h"
#include "periodica/util/cpu_features.h"
#include "periodica/util/flags.h"
#include "periodica/util/logging.h"
#include "periodica/util/rng.h"
#include "periodica/util/stopwatch.h"
#include "periodica/util/table.h"

namespace periodica::bench {
namespace {

std::string Fixed(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

/// Median wall time of `repeats` calls of `body`, in ns, after one warm-up.
template <typename Body>
double MedianNanos(std::int64_t repeats, Body&& body) {
  body();
  std::vector<double> samples;
  for (std::int64_t rep = 0; rep < repeats; ++rep) {
    Stopwatch watch;
    body();
    samples.push_back(watch.ElapsedSeconds() * 1e9);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int Run(int argc, char** argv) {
  std::int64_t min_log2 = 14;
  std::int64_t max_log2 = 20;
  std::int64_t sigma = 32;
  std::int64_t sample_lags = 1024;
  std::int64_t repeats = 5;
  FlagSet flags("micro_stage1");
  flags.AddInt64("min_log2", &min_log2, "smallest series length, as log2 n");
  flags.AddInt64("max_log2", &max_log2, "largest series length, as log2 n");
  flags.AddInt64("sigma", &sigma,
                 "indicator density is 1/sigma (neither path depends on it)");
  flags.AddInt64("sample_lags", &sample_lags,
                 "lags per timed lag-word call (capped at n)");
  flags.AddInt64("repeats", &repeats, "timed runs per cell (median is kept)");
  PERIODICA_CHECK_OK(flags.Parse(argc, argv));
  PERIODICA_CHECK(min_log2 >= 1 && min_log2 <= max_log2 && max_log2 <= 26);
  PERIODICA_CHECK(sigma >= 1 && sample_lags >= 1 && repeats >= 1);

  const std::vector<std::size_t> max_periods = {256, 1024, 4096, 16384};
  std::vector<std::string> header = {"n",       "kernel",     "ns/word",
                                     "ns/unit", "fft ms",     "measured x",
                                     "model x"};
  for (const std::size_t max_period : max_periods) {
    header.push_back("mp " + std::to_string(max_period));
  }
  TextTable table(header);

  int num_kernels = 0;
  const util::SimdKernel* kernels = util::AvailableSimdKernels(&num_kernels);
  for (std::int64_t log2n = min_log2; log2n <= max_log2; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    Rng rng(static_cast<std::uint64_t>(log2n));
    DynamicBitset indicator(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.UniformInt(static_cast<std::uint64_t>(sigma)) == 0) {
        indicator.Set(i);
      }
    }
    const std::size_t words = (n + 63) / 64;
    const std::size_t n_fft = fft::NextPowerOfTwo(2 * n);
    const double fft_units = static_cast<double>(n_fft) *
                             static_cast<double>(std::countr_zero(n_fft));
    const std::size_t lags =
        std::min(n, static_cast<std::size_t>(sample_lags));
    // The FFT path does not dispatch on the SIMD kernel: time it once.
    const double fft_ns = MedianNanos(repeats, [&] {
      internal::Stage1Path taken = internal::Stage1Path::kLagWords;
      const std::vector<std::uint64_t> counts = internal::Stage1MatchCounts(
          indicator, 1, internal::Stage1Path::kFft, &taken);
      PERIODICA_CHECK(taken == internal::Stage1Path::kFft && !counts.empty());
    });
    for (int ki = 0; ki < num_kernels; ++ki) {
      const util::ScopedSimdKernelOverride forced(kernels[ki]);
      const double lag_ns = MedianNanos(repeats, [&] {
        const std::vector<std::uint64_t> counts = internal::Stage1MatchCounts(
            indicator, lags, internal::Stage1Path::kLagWords);
        PERIODICA_CHECK(counts.size() == lags);
      });
      const double per_lag_ns = lag_ns / static_cast<double>(lags);
      std::vector<std::string> row = {
          std::to_string(n),
          util::SimdKernelName(kernels[ki]),
          Fixed(per_lag_ns / static_cast<double>(words), 3),
          Fixed(fft_ns / fft_units, 3),
          Fixed(fft_ns / 1e6, 3),
          std::to_string(static_cast<std::size_t>(fft_ns / per_lag_ns)),
          std::to_string(internal::Stage1CrossoverLags(n, kernels[ki]))};
      for (const std::size_t max_period : max_periods) {
        const std::size_t mp_lags = std::min(max_period, n - 1) + 1;
        const bool model_words =
            internal::Stage1UsesLagWords(n, mp_lags, kernels[ki]);
        const bool measured_words =
            per_lag_ns * static_cast<double>(mp_lags) <= fft_ns;
        row.push_back(std::string(model_words ? "words" : "fft") +
                      (model_words == measured_words ? "" : " (miss)"));
      }
      table.AddRow(row);
    }
  }
  std::cout << "micro_stage1: indicator density 1/" << sigma
            << ", lag-word calls time " << sample_lags << " lags, repeats = "
            << repeats << ", best kernel = "
            << util::SimdKernelName(util::BestSimdKernel())
            << ", model weights: lag word "
            << internal::LagWordNanos(util::SimdKernel::kScalar)
            << " ns (scalar) / "
            << internal::LagWordNanos(util::SimdKernel::kAvx2)
            << " ns (avx2), fft unit " << internal::kFftUnitNanos << " ns\n\n";
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace periodica::bench

int main(int argc, char** argv) { return periodica::bench::Run(argc, argv); }
