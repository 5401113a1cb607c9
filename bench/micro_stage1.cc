// Stage-1 path costs: measures the three algorithms behind
// FftConvolutionMiner::MatchCounts — the pair walk, shifted AND-popcount lag
// words and the certified real-FFT autocorrelation (core/stage1.h) — on one
// random indicator per series length and density, under every SIMD kernel,
// and prints the measured per-pair, per-word and per-FFT-unit costs next to
// the cost model's choices.
//
//   micro_stage1                         # n = 2^14 .. 2^20, every kernel
//   micro_stage1 --min_log2 16 --max_log2 16 --density 4,32 --repeats 9
//
// Columns: "ns/pair" is the pair-walk time per position pair within the
// sampled lags (Stage1PairsWithin counts them; the walk does not depend on
// the kernel, so it is timed once per length and density); "ns/word" is the
// lag-word time per shifted word (lags * ceil(n/64) words per call);
// "ns/unit" is the FFT time per n_fft * log2(n_fft), with n_fft =
// NextPowerOfTwo(2n); "words x" is the lag count at which the measured
// lag-word time equals the measured FFT time, "model x" is
// internal::Stage1CrossoverLags. These columns calibrate kPairNanos,
// LagWordNanos and kFftUnitNanos. The last columns give, for a few
// max_period values, the path internal::Stage1ChoosePath picks and whether
// it is the measured-fastest one (the pair time there is the measured
// per-pair cost times the exact pair count). Times are medians of --repeats
// runs after one warm-up.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <limits>
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

using internal::Stage1Path;

constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

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

/// The density denominators of a "--density 2,8,32" list.
std::vector<std::uint64_t> ParseDensities(const std::string& list) {
  std::vector<std::uint64_t> densities;
  std::istringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    const std::uint64_t d = std::stoull(item);
    PERIODICA_CHECK(d >= 1) << "--density takes denominators >= 1";
    densities.push_back(d);
  }
  PERIODICA_CHECK(!densities.empty()) << "--density is empty";
  return densities;
}

const char* ShortName(Stage1Path path) {
  switch (path) {
    case Stage1Path::kPairs:
      return "pairs";
    case Stage1Path::kLagWords:
      return "words";
    case Stage1Path::kFft:
      return "fft";
  }
  return "?";
}

int Run(int argc, char** argv) {
  std::int64_t min_log2 = 14;
  std::int64_t max_log2 = 20;
  std::string density = "2,8,32,128,512";
  std::int64_t sample_lags = 1024;
  std::int64_t repeats = 5;
  FlagSet flags("micro_stage1");
  flags.AddInt64("min_log2", &min_log2, "smallest series length, as log2 n");
  flags.AddInt64("max_log2", &max_log2, "largest series length, as log2 n");
  flags.AddString("density", &density,
                  "comma-separated denominators d: indicators of density "
                  "1/d (the pair walk depends on it, the other paths do not)");
  flags.AddInt64("sample_lags", &sample_lags,
                 "lags per timed pair-walk and lag-word call (capped at n)");
  flags.AddInt64("repeats", &repeats, "timed runs per cell (median is kept)");
  PERIODICA_CHECK_OK(flags.Parse(argc, argv));
  PERIODICA_CHECK(min_log2 >= 1 && min_log2 <= max_log2 && max_log2 <= 26);
  PERIODICA_CHECK(sample_lags >= 1 && repeats >= 1);
  const std::vector<std::uint64_t> densities = ParseDensities(density);

  const std::vector<std::size_t> max_periods = {256, 1024, 4096, 16384};
  std::vector<std::string> header = {"n",       "density", "kernel",
                                     "ns/pair", "ns/word", "ns/unit",
                                     "words x", "model x"};
  for (const std::size_t max_period : max_periods) {
    header.push_back("mp " + std::to_string(max_period));
  }
  TextTable table(header);

  int num_kernels = 0;
  const util::SimdKernel* kernels = util::AvailableSimdKernels(&num_kernels);
  for (std::int64_t log2n = min_log2; log2n <= max_log2; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const std::size_t words = (n + 63) / 64;
    const std::size_t n_fft = fft::NextPowerOfTwo(2 * n);
    const double fft_units = static_cast<double>(n_fft) *
                             static_cast<double>(std::countr_zero(n_fft));
    const std::size_t lags =
        std::min(n, static_cast<std::size_t>(sample_lags));
    double fft_ns = 0.0;
    for (const std::uint64_t d : densities) {
      Rng rng(static_cast<std::uint64_t>(log2n) * 1000 + d);
      DynamicBitset indicator(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.UniformInt(d) == 0) indicator.Set(i);
      }
      // The FFT path depends on neither the density nor the kernel: time it
      // once per length.
      if (fft_ns == 0.0) {
        fft_ns = MedianNanos(repeats, [&] {
          Stage1Path taken = Stage1Path::kLagWords;
          const std::vector<std::uint64_t> counts =
              internal::Stage1MatchCounts(indicator, 1, Stage1Path::kFft,
                                          &taken);
          PERIODICA_CHECK(taken == Stage1Path::kFft && !counts.empty());
        });
      }
      const std::uint64_t sample_pairs =
          internal::Stage1PairsWithin(indicator, lags, kNoLimit);
      const double pairs_ns = MedianNanos(repeats, [&] {
        const std::vector<std::uint64_t> counts = internal::Stage1MatchCounts(
            indicator, lags, Stage1Path::kPairs);
        PERIODICA_CHECK(counts.size() == lags);
      });
      const double per_pair_ns =
          pairs_ns / static_cast<double>(std::max<std::uint64_t>(
                         sample_pairs, 1));
      for (int ki = 0; ki < num_kernels; ++ki) {
        const util::ScopedSimdKernelOverride forced(kernels[ki]);
        const double lag_ns = MedianNanos(repeats, [&] {
          const std::vector<std::uint64_t> counts =
              internal::Stage1MatchCounts(indicator, lags,
                                          Stage1Path::kLagWords);
          PERIODICA_CHECK(counts.size() == lags);
        });
        const double per_lag_ns = lag_ns / static_cast<double>(lags);
        std::vector<std::string> row = {
            std::to_string(n),
            "1/" + std::to_string(d),
            util::SimdKernelName(kernels[ki]),
            Fixed(per_pair_ns, 3),
            Fixed(per_lag_ns / static_cast<double>(words), 3),
            Fixed(fft_ns / fft_units, 3),
            std::to_string(static_cast<std::size_t>(fft_ns / per_lag_ns)),
            std::to_string(internal::Stage1CrossoverLags(n, kernels[ki]))};
        for (const std::size_t max_period : max_periods) {
          const std::size_t mp_lags = std::min(max_period, n - 1) + 1;
          const Stage1Path model =
              internal::Stage1ChoosePath(indicator, mp_lags, kernels[ki]);
          const double measured_pairs =
              per_pair_ns *
              static_cast<double>(
                  internal::Stage1PairsWithin(indicator, mp_lags, kNoLimit));
          const double measured_words =
              per_lag_ns * static_cast<double>(mp_lags);
          Stage1Path fastest = Stage1Path::kFft;
          double fastest_ns = fft_ns;
          if (measured_words <= fastest_ns) {
            fastest = Stage1Path::kLagWords;
            fastest_ns = measured_words;
          }
          if (measured_pairs <= fastest_ns) fastest = Stage1Path::kPairs;
          row.push_back(std::string(ShortName(model)) +
                        (model == fastest ? "" : " (miss)"));
        }
        table.AddRow(row);
      }
    }
  }
  std::cout << "micro_stage1: pair-walk and lag-word calls time "
            << sample_lags << " lags, repeats = " << repeats
            << ", best kernel = "
            << util::SimdKernelName(util::BestSimdKernel())
            << ", model weights: pair " << internal::kPairNanos
            << " ns, lag word "
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
