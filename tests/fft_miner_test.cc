#include "periodica/core/fft_miner.h"

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "periodica/core/exact_miner.h"
#include "periodica/gen/synthetic.h"
#include "periodica/util/cpu_features.h"
#include "periodica/util/rng.h"

namespace periodica {
namespace {

SymbolSeries RandomSeries(std::size_t n, std::size_t sigma,
                          std::uint64_t seed) {
  Rng rng(seed);
  SymbolSeries series(Alphabet::Latin(sigma));
  series.Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.Append(static_cast<SymbolId>(rng.UniformInt(sigma)));
  }
  return series;
}

void ExpectTablesEqual(const PeriodicityTable& actual,
                       const PeriodicityTable& expected) {
  ASSERT_EQ(actual.entries().size(), expected.entries().size());
  for (std::size_t i = 0; i < actual.entries().size(); ++i) {
    const auto& a = actual.entries()[i];
    const auto& b = expected.entries()[i];
    EXPECT_EQ(a.period, b.period);
    EXPECT_EQ(a.position, b.position);
    EXPECT_EQ(a.symbol, b.symbol);
    EXPECT_EQ(a.f2, b.f2);
    EXPECT_EQ(a.pairs, b.pairs);
  }
  ASSERT_EQ(actual.summaries().size(), expected.summaries().size());
  for (std::size_t i = 0; i < actual.summaries().size(); ++i) {
    EXPECT_EQ(actual.summaries()[i], expected.summaries()[i]);
  }
}

TEST(FftMinerTest, MatchCountsAgreeWithDirectCount) {
  const SymbolSeries series = RandomSeries(500, 4, 11);
  FftConvolutionMiner miner(series);
  for (SymbolId k = 0; k < 4; ++k) {
    const auto counts = miner.MatchCounts(k, 250);
    ASSERT_EQ(counts.size(), 251u);
    for (const std::size_t p : {1u, 2u, 7u, 100u, 250u}) {
      std::uint64_t expected = 0;
      for (std::size_t i = 0; i + p < series.size(); ++i) {
        if (series[i] == k && series[i + p] == k) ++expected;
      }
      EXPECT_EQ(counts[p], expected) << "k=" << int(k) << " p=" << p;
    }
  }
}

TEST(FftMinerTest, ToSeriesRoundTrips) {
  const SymbolSeries series = RandomSeries(333, 5, 13);
  FftConvolutionMiner miner(series);
  EXPECT_EQ(miner.ToSeries(), series);
}

TEST(FftMinerTest, FromStreamMatchesBatchConstruction) {
  const SymbolSeries series = RandomSeries(400, 3, 17);
  VectorStream stream(series);
  const Result<FftConvolutionMiner> from_stream =
      FftConvolutionMiner::FromStream(&stream);
  ASSERT_TRUE(from_stream.ok()) << from_stream.status();
  EXPECT_EQ(from_stream->size(), series.size());
  EXPECT_EQ(from_stream->ToSeries(), series);
}

// The central equivalence property: the FFT engine and the literal
// bitset-bignum engine produce identical Definition-1 output.
class EngineEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, double, std::uint64_t>> {};

// Both engines under each pre-filter cut: the defaults, and a cut that
// drops short periods and thinly supported phases.
void ExpectEnginesAgree(const SymbolSeries& series, double threshold) {
  for (const auto& [min_period, min_pairs] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {5, 3}}) {
    SCOPED_TRACE("min_period " + std::to_string(min_period) +
                 ", min_pairs " + std::to_string(min_pairs));
    MinerOptions options;
    options.threshold = threshold;
    options.min_period = min_period;
    options.min_pairs = min_pairs;
    const PeriodicityTable exact = ExactConvolutionMiner(series).Mine(options);
    const PeriodicityTable fft = FftConvolutionMiner(series).Mine(options);
    ExpectTablesEqual(fft, exact);
  }
}

TEST_P(EngineEquivalence, FftEqualsExactOnRandomSeries) {
  const auto [n, sigma, threshold, seed] = GetParam();
  ExpectEnginesAgree(RandomSeries(n, sigma, seed), threshold);
}

TEST_P(EngineEquivalence, FftEqualsExactOnNoisyPeriodicSeries) {
  const auto [n, sigma, threshold, seed] = GetParam();
  SyntheticSpec spec;
  spec.length = n;
  spec.alphabet_size = sigma;
  spec.period = 7;
  spec.seed = seed;
  auto perfect = GeneratePerfect(spec);
  ASSERT_TRUE(perfect.ok());
  auto noisy =
      ApplyNoise(*perfect, NoiseSpec::Combined(0.2, true, true, true, seed));
  ASSERT_TRUE(noisy.ok());
  if (noisy->size() < 2) GTEST_SKIP();
  ExpectEnginesAgree(*noisy, threshold);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineEquivalence,
    ::testing::Combine(::testing::Values<std::size_t>(16, 100, 257, 1024),
                       ::testing::Values<std::size_t>(2, 5, 10),
                       ::testing::Values(0.3, 0.7, 1.0),
                       ::testing::Values<std::uint64_t>(5, 6)));

TEST(FftMinerTest, PeriodsOnlyModeUpperBoundsExactConfidence) {
  const SymbolSeries series = RandomSeries(800, 4, 23);
  MinerOptions exact_options;
  exact_options.threshold = 0.5;
  const PeriodicityTable exact =
      FftConvolutionMiner(series).Mine(exact_options);

  MinerOptions summary_options = exact_options;
  summary_options.positions = false;
  const PeriodicityTable summaries =
      FftConvolutionMiner(series).Mine(summary_options);

  // Every exactly-detected period must appear in the aggregate output with a
  // confidence at least as large (the pre-filter is lossless).
  for (const PeriodSummary& summary : exact.summaries()) {
    const PeriodSummary* aggregate = summaries.FindPeriod(summary.period);
    ASSERT_NE(aggregate, nullptr) << "period " << summary.period;
    EXPECT_TRUE(aggregate->aggregate_only);
    EXPECT_GE(aggregate->best_confidence + 1e-12, summary.best_confidence);
  }
  // And the aggregate mode never stores per-position entries.
  EXPECT_TRUE(summaries.entries().empty());
}

TEST(FftMinerTest, EmptyAndTinyInputs) {
  SymbolSeries tiny(Alphabet::Latin(2));
  tiny.Append(0);
  FftConvolutionMiner miner(tiny);
  MinerOptions options;
  EXPECT_TRUE(miner.Mine(options).summaries().empty());
}

TEST(FftMinerTest, ConcatenateEqualsMiningTheConcatenation) {
  const SymbolSeries first = RandomSeries(700, 4, 51);
  const SymbolSeries second = RandomSeries(333, 4, 52);
  SymbolSeries whole(first.alphabet());
  for (std::size_t i = 0; i < first.size(); ++i) whole.Append(first[i]);
  for (std::size_t i = 0; i < second.size(); ++i) whole.Append(second[i]);

  auto merged = FftConvolutionMiner::Concatenate(FftConvolutionMiner(first),
                                                 FftConvolutionMiner(second));
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->size(), whole.size());
  EXPECT_EQ(merged->ToSeries(), whole);

  MinerOptions options;
  options.threshold = 0.3;
  ExpectTablesEqual(merged->Mine(options),
                    FftConvolutionMiner(whole).Mine(options));
}

TEST(FftMinerTest, ConcatenateRejectsDifferentAlphabets) {
  const SymbolSeries a = RandomSeries(10, 3, 1);
  const SymbolSeries b = RandomSeries(10, 4, 1);
  EXPECT_TRUE(FftConvolutionMiner::Concatenate(FftConvolutionMiner(a),
                                               FftConvolutionMiner(b))
                  .status()
                  .IsInvalidArgument());
}

TEST(FftMinerTest, MiningIsIdenticalUnderEveryKernel) {
  // End-to-end identity with the SIMD kernel forced via the test hook:
  // the mined table — entries, order, F2 counts, summaries — must be
  // byte-identical under every kernel the host can run. This is the
  // determinism guarantee extended to kernel choice (docs/PERFORMANCE.md).
  const SymbolSeries series = RandomSeries(4000, 6, 23);
  MinerOptions options;
  options.threshold = 0.3;
  PeriodicityTable reference;
  {
    util::ScopedSimdKernelOverride scalar(util::SimdKernel::kScalar);
    reference = FftConvolutionMiner(series).Mine(options);
  }
  ASSERT_FALSE(reference.entries().empty());
  int kernel_count = 0;
  const util::SimdKernel* kernels =
      util::AvailableSimdKernels(&kernel_count);
  for (int i = 0; i < kernel_count; ++i) {
    util::ScopedSimdKernelOverride override(kernels[i]);
    SCOPED_TRACE(util::SimdKernelName(kernels[i]));
    ExpectTablesEqual(FftConvolutionMiner(series).Mine(options), reference);
  }
}

TEST(FftMinerTest, PerfectSeriesAllMultiplesDetected) {
  SyntheticSpec spec;
  spec.length = 5000;
  spec.alphabet_size = 10;
  spec.period = 25;
  spec.seed = 9;
  auto series = GeneratePerfect(spec);
  ASSERT_TRUE(series.ok());
  MinerOptions options;
  options.threshold = 1.0;
  options.max_period = 100;
  const PeriodicityTable table = FftConvolutionMiner(*series).Mine(options);
  for (const std::size_t p : {25u, 50u, 75u, 100u}) {
    EXPECT_DOUBLE_EQ(table.PeriodConfidence(p), 1.0) << "p=" << p;
  }
}

}  // namespace
}  // namespace periodica
