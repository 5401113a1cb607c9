// Stage 1's three exact paths — the pair walk, shifted AND-popcount lag
// words and the certified FFT autocorrelation (core/stage1.h) — against a
// naive pair-count reference, across the word-boundary and power-of-two
// edges, a density sweep, clustered and degenerate indicators, the cost
// model's crossover and every SIMD kernel on the host; plus the path
// predicate pinned for the benchmark shapes and the exactness certificate
// on hand-built FFT outputs.

#include "periodica/core/stage1.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "periodica/core/exact_miner.h"
#include "periodica/core/fft_miner.h"
#include "periodica/fft/fft.h"
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

DynamicBitset IndicatorOf(const SymbolSeries& series, SymbolId symbol) {
  DynamicBitset indicator(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series[i] == symbol) indicator.Set(i);
  }
  return indicator;
}

/// counts[p] = #{i : bits i and i + p are set} for every lag p < n, by
/// enumerating the set positions' pairs.
std::vector<std::uint64_t> NaiveCounts(const DynamicBitset& indicator) {
  const std::vector<std::size_t> positions = indicator.SetBits();
  std::vector<std::uint64_t> counts(indicator.size(), 0);
  for (std::size_t a = 0; a < positions.size(); ++a) {
    for (std::size_t b = a; b < positions.size(); ++b) {
      ++counts[positions[b] - positions[a]];
    }
  }
  return counts;
}

/// Every path, forced, under every kernel on the host, must reproduce the
/// naive counts at each of `lag_cases` (capped at n); the pair count within
/// the lags must be the reference's sum over lags 1..lags-1.
void ExpectEveryPathExact(const DynamicBitset& indicator,
                          const std::set<std::size_t>& lag_cases,
                          const std::string& what) {
  int num_kernels = 0;
  const util::SimdKernel* kernels = util::AvailableSimdKernels(&num_kernels);
  const std::vector<std::uint64_t> reference = NaiveCounts(indicator);
  for (const std::size_t wanted : lag_cases) {
    const std::size_t lags = std::min(wanted, indicator.size());
    const std::vector<std::uint64_t> expected(reference.begin(),
                                              reference.begin() + lags);
    std::uint64_t pairs = 0;
    for (std::size_t d = 1; d < lags; ++d) pairs += expected[d];
    EXPECT_EQ(internal::Stage1PairsWithin(
                  indicator, lags, std::numeric_limits<std::uint64_t>::max()),
              pairs)
        << what << " lags=" << lags;
    for (int ki = 0; ki < num_kernels; ++ki) {
      const util::ScopedSimdKernelOverride forced(kernels[ki]);
      for (const Stage1Path path :
           {Stage1Path::kPairs, Stage1Path::kLagWords, Stage1Path::kFft}) {
        Stage1Path taken = Stage1Path::kPairs;
        EXPECT_EQ(internal::Stage1MatchCounts(indicator, lags, path, &taken),
                  expected)
            << what << " lags=" << lags
            << " kernel=" << util::SimdKernelName(kernels[ki])
            << " path=" << internal::Stage1PathName(path);
        EXPECT_EQ(taken, path) << what;
      }
    }
  }
}

/// The path the cost model prefers for `indicator`, recomputed here from
/// the documented weights and the exact pair count.
Stage1Path CheapestModelledPath(const DynamicBitset& indicator,
                                std::size_t lags, util::SimdKernel kernel) {
  const std::size_t n = indicator.size();
  const bool words = internal::Stage1UsesLagWords(n, lags, kernel);
  const std::size_t n_fft = fft::NextPowerOfTwo(2 * n);
  const double fft_nanos = static_cast<double>(n_fft) *
                           static_cast<double>(std::countr_zero(n_fft)) *
                           internal::kFftUnitNanos;
  const double word_nanos = static_cast<double>(lags) *
                            static_cast<double>((n + 63) / 64) *
                            internal::LagWordNanos(kernel);
  const double pair_nanos =
      static_cast<double>(internal::Stage1PairsWithin(
          indicator, lags, std::numeric_limits<std::uint64_t>::max())) *
      internal::kPairNanos;
  if (pair_nanos <= std::min(fft_nanos, word_nanos)) return Stage1Path::kPairs;
  return words ? Stage1Path::kLagWords : Stage1Path::kFft;
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
        const DynamicBitset indicator = IndicatorOf(series, symbol);
        const std::vector<std::uint64_t> reference = NaiveCounts(indicator);
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
            const Stage1Path dense =
                words ? Stage1Path::kLagWords : Stage1Path::kFft;
            EXPECT_EQ(path, internal::Stage1ChoosePath(
                                indicator, max_period + 1, kernels[ki]))
                << label;
            EXPECT_EQ(path, CheapestModelledPath(indicator, max_period + 1,
                                                 kernels[ki]))
                << label;
            if (path != Stage1Path::kPairs) {
              EXPECT_EQ(path, dense) << label;
            }
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
  EXPECT_EQ(paths_seen.size(), 3u) << "every stage-1 path must be exercised";
}

TEST(Stage1PathsTest, ForcedPathsAgreeOnSmallEdgeLengths) {
  // Below the sizes where the model ever picks the FFT, force each path
  // directly so every path is checked on tiny and odd lengths too.
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    for (const std::size_t sigma : {1u, 2u, 5u}) {
      const SymbolSeries series = RandomSeries(n, sigma, n + 7 * sigma);
      for (SymbolId symbol = 0; symbol < sigma; ++symbol) {
        const DynamicBitset indicator = IndicatorOf(series, symbol);
        const std::vector<std::uint64_t> reference = NaiveCounts(indicator);
        for (const Stage1Path path : {Stage1Path::kPairs,
                                      Stage1Path::kLagWords,
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
    // Two symbols, each at density ~1/2: dense enough that the pair walk is
    // never cheaper, so the two sides of the crossover are lag words and the
    // FFT under every kernel (the pair walk has its own Mine case below).
    SyntheticSpec spec;
    spec.length = n;
    spec.alphabet_size = 2;
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

TEST(Stage1PathsTest, DensitySweepIsExactOnEveryForcedPathAndKernel) {
  // Densities 1/2 .. 1/512 around both crossovers of the pair walk, at a
  // length off the word and power-of-two grid.
  constexpr std::size_t kLength = 6000;
  std::set<Stage1Path> chosen;
  for (std::uint64_t d = 2; d <= 512; d *= 2) {
    Rng rng(d + 11);
    DynamicBitset indicator(kLength);
    for (std::size_t i = 0; i < kLength; ++i) {
      if (rng.UniformInt(d) == 0) indicator.Set(i);
    }
    ExpectEveryPathExact(indicator, {1, 2, 64, 65, 1025, kLength},
                         "density 1/" + std::to_string(d));
    chosen.insert(internal::Stage1ChoosePath(indicator, 1025,
                                             util::SimdKernel::kAvx2));
  }
  EXPECT_EQ(chosen, (std::set<Stage1Path>{Stage1Path::kPairs,
                                          Stage1Path::kLagWords}))
      << "the sweep must cross the pair/lag-word crossover";
}

TEST(Stage1PathsTest, ClusteredBurstsAreCountedNotEstimated) {
  // 16 bursts of 48 consecutive positions, 4000 apart: density ~1/83, but
  // every burst holds ~48^2/2 pairs, which a uniform estimate at that
  // density (~m * lags / 83) would put ~4x too low.
  constexpr std::size_t kLength = 1 << 16;
  DynamicBitset indicator(kLength);
  for (std::size_t burst = 0; burst < 16; ++burst) {
    for (std::size_t i = 0; i < 48; ++i) indicator.Set(burst * 4000 + 7 + i);
  }
  ExpectEveryPathExact(indicator, {1, 48, 49, 1025, 4001, kLength},
                       "bursts");
  for (const util::SimdKernel kernel :
       {util::SimdKernel::kScalar, util::SimdKernel::kAvx2}) {
    for (const std::size_t lags : {49u, 1025u, 4001u, 9000u}) {
      EXPECT_EQ(internal::Stage1ChoosePath(indicator, lags, kernel),
                CheapestModelledPath(indicator, lags, kernel))
          << "lags " << lags;
    }
  }
  // The exact pair count within 49 lags is the bursts' own pairs.
  EXPECT_EQ(internal::Stage1PairsWithin(
                indicator, 49, std::numeric_limits<std::uint64_t>::max()),
            16u * 48u * 47u / 2u);
}

TEST(Stage1PathsTest, OneSymbolSeriesNeverTakesThePairWalk) {
  // Every position set: P = sum_j min(j, lags - 1), about m * lags, the
  // pair walk's worst case. The early stop must still reject it, and do so
  // after a few steps, not m.
  constexpr std::size_t kLength = 1 << 16;
  DynamicBitset indicator(kLength);
  for (std::size_t i = 0; i < kLength; ++i) indicator.Set(i);
  for (const util::SimdKernel kernel :
       {util::SimdKernel::kScalar, util::SimdKernel::kAvx2}) {
    for (const std::size_t lags : {2u, 65u, 1025u, 32769u}) {
      EXPECT_NE(internal::Stage1ChoosePath(indicator, lags, kernel),
                Stage1Path::kPairs)
          << util::SimdKernelName(kernel) << " lags " << lags;
    }
  }
  // A stopped sweep reports only that the limit was passed.
  const std::uint64_t stopped = internal::Stage1PairsWithin(indicator, 1025, 10);
  EXPECT_GT(stopped, 10u);
  EXPECT_LE(stopped, 10u + 1024u);
  DynamicBitset small(1000);
  for (std::size_t i = 0; i < 1000; ++i) small.Set(i);
  ExpectEveryPathExact(small, {1, 2, 999, 1000}, "one symbol");
}

TEST(Stage1PathsTest, LoneSetBitTakesThePairWalk) {
  for (const std::size_t position : {0u, 63u, 64u, 4999u}) {
    DynamicBitset indicator(5000);
    indicator.Set(position);
    EXPECT_EQ(internal::Stage1PairsWithin(indicator, 5000, 0), 0u);
    EXPECT_EQ(internal::Stage1ChoosePath(indicator, 1025,
                                         util::SimdKernel::kAvx2),
              Stage1Path::kPairs);
    ExpectEveryPathExact(indicator, {1, 2, 1025, 5000},
                         "lone bit at " + std::to_string(position));
  }
  // No set bit at all: nothing to pair.
  EXPECT_EQ(internal::Stage1PairsWithin(DynamicBitset(100), 100, 0), 0u);
}

TEST(Stage1PathsTest, PairsAtTheLagBoundary) {
  // One pair at distance lags - 1 (counted) and one at distance lags (just
  // out of range), straddling word boundaries.
  constexpr std::size_t kLags = 130;
  DynamicBitset indicator(1000);
  indicator.Set(60);
  indicator.Set(60 + kLags - 1);
  indicator.Set(500);
  indicator.Set(500 + kLags);
  EXPECT_EQ(internal::Stage1PairsWithin(
                indicator, kLags, std::numeric_limits<std::uint64_t>::max()),
            1u);
  EXPECT_EQ(internal::Stage1PairsWithin(
                indicator, kLags + 1, std::numeric_limits<std::uint64_t>::max()),
            2u);
  const std::vector<std::uint64_t> counts =
      internal::Stage1MatchCounts(indicator, kLags, Stage1Path::kPairs);
  ASSERT_EQ(counts.size(), kLags);
  EXPECT_EQ(counts[0], 4u);
  EXPECT_EQ(counts[kLags - 1], 1u);
  ExpectEveryPathExact(indicator, {kLags - 1, kLags, kLags + 1, kLags + 2},
                       "boundary");
}

TEST(Stage1PathsTest, MineMixesThePairWalkAndMatchesTheExactEngine) {
  // Sigma 32 over a planted period: the rare symbols take the pair walk,
  // and a symbol the period repeats often enough may stay on lag words, so
  // one Mine runs both paths side by side.
  SyntheticSpec spec;
  spec.length = 8192;
  spec.alphabet_size = 32;
  spec.period = 25;
  spec.seed = 3;
  const SymbolSeries series =
      ApplyNoise(GeneratePerfect(spec).value(),
                 NoiseSpec::Replacement(0.1, /*seed=*/4))
          .value();
  MinerOptions options;
  options.threshold = 0.3;
  options.max_period = 300;
  const PeriodicityTable exact = ExactConvolutionMiner(series).Mine(options);
  ASSERT_FALSE(exact.entries().empty());
  const FftConvolutionMiner fft_miner(series);
  int num_kernels = 0;
  const util::SimdKernel* kernels = util::AvailableSimdKernels(&num_kernels);
  for (int ki = 0; ki < num_kernels; ++ki) {
    const util::ScopedSimdKernelOverride forced(kernels[ki]);
    std::size_t pair_walks = 0;
    for (SymbolId symbol = 0; symbol < 32; ++symbol) {
      Stage1Path path = Stage1Path::kFft;
      (void)fft_miner.MatchCounts(symbol, options.max_period, &path);
      EXPECT_EQ(path, CheapestModelledPath(IndicatorOf(series, symbol),
                                           options.max_period + 1, kernels[ki]))
          << "symbol " << int{symbol};
      if (path == Stage1Path::kPairs) ++pair_walks;
    }
    EXPECT_GE(pair_walks, 16u) << util::SimdKernelName(kernels[ki]);
    for (const std::size_t threads : {1u, 4u}) {
      options.num_threads = threads;
      const PeriodicityTable fft = fft_miner.Mine(options);
      EXPECT_EQ(fft.entries(), exact.entries()) << threads << " threads";
      EXPECT_EQ(fft.summaries(), exact.summaries()) << threads << " threads";
    }
  }
}

/// The seed-`seed` input of periodica_bench's mine workloads: a planted
/// period of 25 with 10% replacement noise.
SymbolSeries BenchmarkMineSeries(std::size_t sigma, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.length = std::size_t{1} << 16;
  spec.alphabet_size = sigma;
  spec.period = 25;
  spec.seed = seed;
  return ApplyNoise(GeneratePerfect(spec).value(),
                    NoiseSpec::Replacement(0.1, seed * 7919 + 13))
      .value();
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

  // Per symbol, at max_period 1024 under the benchmark host's AVX2 kernel,
  // on the seed-1 inputs. mine_sparse: the rare symbols take the pair walk;
  // symbols 2 and 12, which the planted period repeats 3 times in 25
  // (~7200 positions, ~800k pairs within the lags), sit at the measured
  // crossover and stay on lag words. mine_dense: all four symbols stay on
  // lag words.
  const SymbolSeries sparse = BenchmarkMineSeries(32, 1);
  for (SymbolId symbol = 0; symbol < 32; ++symbol) {
    const bool crossover_symbol = symbol == 2 || symbol == 12;
    EXPECT_EQ(internal::Stage1ChoosePath(IndicatorOf(sparse, symbol), 1025,
                                         SimdKernel::kAvx2),
              crossover_symbol ? Stage1Path::kLagWords : Stage1Path::kPairs)
        << "mine_sparse symbol " << int{symbol};
  }
  const SymbolSeries dense = BenchmarkMineSeries(4, 1);
  for (SymbolId symbol = 0; symbol < 4; ++symbol) {
    EXPECT_EQ(internal::Stage1ChoosePath(IndicatorOf(dense, symbol), 1025,
                                         SimdKernel::kAvx2),
              Stage1Path::kLagWords)
        << "mine_dense symbol " << int{symbol};
  }
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
  EXPECT_STREQ(internal::Stage1PathName(Stage1Path::kPairs), "pairs");
  EXPECT_STREQ(internal::Stage1PathName(Stage1Path::kLagWords), "lag_words");
  EXPECT_STREQ(internal::Stage1PathName(Stage1Path::kFft), "fft");
}

}  // namespace
}  // namespace periodica
