// Stage 1's two exact paths — shifted AND-popcount lag words and the
// certified FFT autocorrelation (core/stage1.h) — against a naive pair-count
// reference, across the word-boundary and power-of-two edges, the cost
// model's crossover and every SIMD kernel on the host; plus the path
// predicate pinned for the benchmark shapes and the exactness certificate
// on hand-built FFT outputs.

#include "periodica/core/stage1.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "periodica/core/exact_miner.h"
#include "periodica/core/fft_miner.h"
#include "periodica/gen/synthetic.h"
#include "periodica/util/cpu_features.h"
#include "periodica/util/rng.h"

namespace periodica {
namespace {

using internal::Stage1Path;

SymbolSeries RandomSeries(std::size_t n, std::size_t sigma,
                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t k = 0; k < sigma; ++k) names.push_back(std::to_string(k));
  SymbolSeries series(Alphabet::FromNames(std::move(names)).value());
  series.Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.Append(static_cast<SymbolId>(rng.UniformInt(sigma)));
  }
  return series;
}

/// counts[p] = #{i : t_i == t_{i+p} == symbol} for every lag p < n, by
/// enumerating the symbol's position pairs.
std::vector<std::uint64_t> NaiveCounts(const SymbolSeries& series,
                                       SymbolId symbol) {
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series[i] == symbol) positions.push_back(i);
  }
  std::vector<std::uint64_t> counts(series.size(), 0);
  for (std::size_t a = 0; a < positions.size(); ++a) {
    for (std::size_t b = a; b < positions.size(); ++b) {
      ++counts[positions[b] - positions[a]];
    }
  }
  return counts;
}

/// The max_period cases for one series length and kernel: the word edges,
/// both sides of the cost model's crossover, and the longest lag.
std::set<std::size_t> MaxPeriodCases(std::size_t n, util::SimdKernel kernel) {
  // Crossover in lags; max_period = lags - 1.
  const std::size_t crossover = internal::Stage1CrossoverLags(n, kernel);
  std::set<std::size_t> cases;
  for (const std::size_t max_period :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        crossover - 2, crossover - 1, crossover, n - 1}) {
    cases.insert(std::min(max_period, n - 1));
  }
  return cases;
}

TEST(Stage1PathsTest, MatchCountsEqualNaiveCountsOnEveryPathAndKernel) {
  int num_kernels = 0;
  const util::SimdKernel* kernels = util::AvailableSimdKernels(&num_kernels);
  constexpr std::size_t kLog2 = 14;
  std::set<Stage1Path> paths_seen;
  for (const std::size_t n : {(std::size_t{1} << kLog2) - 1,
                              std::size_t{1} << kLog2,
                              (std::size_t{1} << kLog2) + 1}) {
    // Single-symbol (every lag matches everywhere), balanced binary, and
    // sparse (a few of 32 symbols, each at density ~1/32).
    for (const std::size_t sigma : {1u, 2u, 32u}) {
      const SymbolSeries series = RandomSeries(n, sigma, n * 131 + sigma);
      const FftConvolutionMiner miner(series);
      const std::vector<SymbolId> symbols =
          sigma == 32  ? std::vector<SymbolId>{0, 7, 31}
          : sigma == 2 ? std::vector<SymbolId>{0, 1}
                       : std::vector<SymbolId>{0};
      for (const SymbolId symbol : symbols) {
        const std::vector<std::uint64_t> reference =
            NaiveCounts(series, symbol);
        for (int ki = 0; ki < num_kernels; ++ki) {
          const util::ScopedSimdKernelOverride forced(kernels[ki]);
          for (const std::size_t max_period :
               MaxPeriodCases(n, kernels[ki])) {
            const std::string label =
                "n=" + std::to_string(n) + " sigma=" + std::to_string(sigma) +
                " symbol=" + std::to_string(symbol) + " kernel=" +
                util::SimdKernelName(kernels[ki]) +
                " max_period=" + std::to_string(max_period);
            Stage1Path path = Stage1Path::kFft;
            const std::vector<std::uint64_t> counts =
                miner.MatchCounts(symbol, max_period, &path);
            const bool words = internal::Stage1UsesLagWords(
                n, max_period + 1, kernels[ki]);
            EXPECT_EQ(path, words ? Stage1Path::kLagWords : Stage1Path::kFft)
                << label;
            paths_seen.insert(path);
            ASSERT_EQ(counts.size(), max_period + 1) << label;
            EXPECT_TRUE(std::equal(counts.begin(), counts.end(),
                                   reference.begin()))
                << label;
          }
        }
      }
    }
  }
  EXPECT_EQ(paths_seen.size(), 2u) << "both stage-1 paths must be exercised";
}

TEST(Stage1PathsTest, ForcedPathsAgreeOnSmallEdgeLengths) {
  // Below the sizes where the model ever picks the FFT, force each path
  // directly so the certified FFT is checked on tiny and odd lengths too.
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    for (const std::size_t sigma : {1u, 2u, 5u}) {
      const SymbolSeries series = RandomSeries(n, sigma, n + 7 * sigma);
      for (SymbolId symbol = 0; symbol < sigma; ++symbol) {
        DynamicBitset indicator(n);
        for (std::size_t i = 0; i < n; ++i) {
          if (series[i] == symbol) indicator.Set(i);
        }
        const std::vector<std::uint64_t> reference =
            NaiveCounts(series, symbol);
        for (const Stage1Path path : {Stage1Path::kLagWords,
                                      Stage1Path::kFft}) {
          Stage1Path taken = Stage1Path::kLagWords;
          const std::vector<std::uint64_t> counts =
              internal::Stage1MatchCounts(indicator, n, path, &taken);
          const std::string label = "n=" + std::to_string(n) +
                                    " symbol=" + std::to_string(symbol) +
                                    " path=" + internal::Stage1PathName(path);
          EXPECT_EQ(taken, path) << label;
          EXPECT_EQ(counts, reference) << label;
        }
      }
    }
  }
}

TEST(Stage1PathsTest, MineMatchesExactEngineOnBothSidesOfTheCrossover) {
  int num_kernels = 0;
  const util::SimdKernel* kernels = util::AvailableSimdKernels(&num_kernels);
  for (int ki = 0; ki < num_kernels; ++ki) {
    const util::ScopedSimdKernelOverride forced(kernels[ki]);
    // The shortest power-of-two length whose crossover lies inside [2, n).
    std::size_t n = 1024;
    while (internal::Stage1CrossoverLags(n, kernels[ki]) + 1 >= n) n *= 2;
    const std::size_t crossover = internal::Stage1CrossoverLags(n, kernels[ki]);
    SyntheticSpec spec;
    spec.length = n;
    spec.alphabet_size = 4;
    spec.period = 25;
    spec.seed = 5;
    const SymbolSeries series =
        ApplyNoise(GeneratePerfect(spec).value(),
                   NoiseSpec::Replacement(0.2, /*seed=*/3))
            .value();
    const FftConvolutionMiner fft_miner(series);
    MinerOptions options;
    options.threshold = 0.6;
    options.num_threads = 8;  // oversubscribed, so TSan sees the pool
    // Periods with fewer than min_pairs repetitions (p >= n / min_pairs)
    // never reach a table, so the exact oracle only needs to mine up to
    // there; the FFT engine mines the full range, whose max_period alone
    // decides its stage-1 path.
    options.min_pairs = 16;
    options.max_period = n / options.min_pairs;
    const PeriodicityTable exact = ExactConvolutionMiner(series).Mine(options);
    ASSERT_FALSE(exact.entries().empty());
    // max_period = crossover - 1 mines `crossover` lags (the word path); one
    // more lag tips it onto the FFT.
    for (const std::size_t max_period : {crossover - 1, crossover}) {
      options.max_period = max_period;
      const std::string label =
          std::string("kernel=") + util::SimdKernelName(kernels[ki]) +
          " n=" + std::to_string(n) +
          " max_period=" + std::to_string(max_period);
      Stage1Path path = Stage1Path::kLagWords;
      (void)fft_miner.MatchCounts(0, max_period, &path);
      EXPECT_EQ(path, max_period < crossover ? Stage1Path::kLagWords
                                             : Stage1Path::kFft)
          << label;
      const PeriodicityTable fft = fft_miner.Mine(options);
      EXPECT_EQ(fft.entries(), exact.entries()) << label;
      EXPECT_EQ(fft.summaries(), exact.summaries()) << label;
      EXPECT_EQ(fft.truncated(), exact.truncated()) << label;
    }
  }
}

TEST(Stage1PathsTest, PredicatePinsTheBenchmarkShapes) {
  using util::SimdKernel;
  // mine_sparse / mine_dense and stagebench --quick: n = 2^16, max_period
  // 1024.
  EXPECT_TRUE(internal::Stage1UsesLagWords(1u << 16, 1025, SimdKernel::kAvx2));
  EXPECT_TRUE(
      internal::Stage1UsesLagWords(1u << 16, 1025, SimdKernel::kScalar));
  // daemon_mixed's fresh mines: n = 4096, max_period 256.
  EXPECT_TRUE(internal::Stage1UsesLagWords(4096, 257, SimdKernel::kAvx2));
  EXPECT_TRUE(internal::Stage1UsesLagWords(4096, 257, SimdKernel::kScalar));
  // stagebench full scale: n = 2^18, max_period 4096 — words only with AVX2.
  EXPECT_TRUE(internal::Stage1UsesLagWords(1u << 18, 4097, SimdKernel::kAvx2));
  EXPECT_FALSE(
      internal::Stage1UsesLagWords(1u << 18, 4097, SimdKernel::kScalar));
  // The default max_period n/2 stays on the paper's FFT.
  EXPECT_FALSE(
      internal::Stage1UsesLagWords(1u << 16, 32769, SimdKernel::kAvx2));
  EXPECT_FALSE(
      internal::Stage1UsesLagWords(1u << 16, 32769, SimdKernel::kScalar));
  // The documented crossovers at n = 2^16: ~10k lags for AVX2, ~1.5k
  // scalar; NEON carries the scalar weight until measured.
  EXPECT_EQ(internal::Stage1CrossoverLags(1u << 16, SimdKernel::kAvx2), 10444u);
  EXPECT_EQ(internal::Stage1CrossoverLags(1u << 16, SimdKernel::kScalar),
            1450u);
  EXPECT_EQ(internal::Stage1CrossoverLags(1u << 16, SimdKernel::kNeon),
            internal::Stage1CrossoverLags(1u << 16, SimdKernel::kScalar));
  // The predicate is exactly "lags <= crossover".
  const std::size_t crossover =
      internal::Stage1CrossoverLags(1u << 16, SimdKernel::kAvx2);
  EXPECT_TRUE(
      internal::Stage1UsesLagWords(1u << 16, crossover, SimdKernel::kAvx2));
  EXPECT_FALSE(
      internal::Stage1UsesLagWords(1u << 16, crossover + 1, SimdKernel::kAvx2));
  // An empty series has nothing to transform.
  EXPECT_TRUE(internal::Stage1UsesLagWords(0, 0, SimdKernel::kScalar));
}

TEST(Stage1PathsTest, CertificateAcceptsNearIntegerCounts) {
  // Autocorrelation of 1011: lag 0 = 3, lag 1 = 1, lag 2 = 1, lag 3 = 1.
  const std::vector<double> raw = {3.0 + 1e-12, 1.0 - 1e-9, 1.0, 1.0 + 0.2};
  EXPECT_TRUE(internal::FftCountsCertified(raw, 4, 3));
  EXPECT_TRUE(internal::FftCountsCertified(raw, 0, 3))
      << "no lags read, nothing to certify";
}

TEST(Stage1PathsTest, CertificateRejectsLagZeroOffThePopcount) {
  // Lag 0 counts every set bit: one short is as wrong as one over.
  EXPECT_FALSE(internal::FftCountsCertified(
      std::vector<double>{2.0, 1.0, 1.0, 1.0}, 4, 3));
  EXPECT_FALSE(internal::FftCountsCertified(
      std::vector<double>{4.0, 1.0, 1.0, 1.0}, 4, 3));
}

TEST(Stage1PathsTest, CertificateRejectsLargeResiduals) {
  std::vector<double> raw = {3.0, 1.0, 1.0, 1.0};
  raw[2] = 1.0 + internal::kFftResidualBound;
  EXPECT_FALSE(internal::FftCountsCertified(raw, 4, 3));
  raw[2] = 1.0 - internal::kFftResidualBound - 0.01;
  EXPECT_FALSE(internal::FftCountsCertified(raw, 4, 3));
  // Only the lags that are read are certified.
  EXPECT_TRUE(internal::FftCountsCertified(raw, 2, 3));
}

TEST(Stage1PathsTest, CertificateRejectsImpossibleCounts) {
  EXPECT_FALSE(internal::FftCountsCertified(
      std::vector<double>{3.0, -1.0, 1.0}, 3, 3));
  EXPECT_FALSE(internal::FftCountsCertified(
      std::vector<double>{3.0, 4.0, 1.0}, 3, 3))
      << "no lag can match more positions than are set";
  EXPECT_FALSE(internal::FftCountsCertified(
      std::vector<double>{3.0, 1.0}, 3, 3))
      << "fewer values than lags";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(internal::FftCountsCertified(
      std::vector<double>{3.0, nan, 1.0}, 3, 3));
}

TEST(Stage1PathsTest, PathNames) {
  EXPECT_STREQ(internal::Stage1PathName(Stage1Path::kLagWords), "lag_words");
  EXPECT_STREQ(internal::Stage1PathName(Stage1Path::kFft), "fft");
}

}  // namespace
}  // namespace periodica
