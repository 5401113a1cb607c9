#include "periodica/fft/chunked.h"

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "periodica/fft/convolution.h"
#include "periodica/util/rng.h"

namespace periodica {
namespace {

std::vector<double> RandomVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& value : out) value = rng.UniformDouble() * 2 - 1;
  return out;
}

TEST(ChunkedTest, SingleChunkMatchesFullAutocorrelation) {
  const auto x = RandomVector(1000, 1);
  fft::BoundedLagAutocorrelator correlator(/*max_lag=*/100,
                                           /*block_size=*/2000);
  correlator.Append(x);
  const std::vector<double> bounded = correlator.Lags();
  const std::vector<double> full = fft::Autocorrelation(x);
  ASSERT_EQ(bounded.size(), 101u);
  for (std::size_t d = 0; d <= 100; ++d) {
    EXPECT_NEAR(bounded[d], full[d], 1e-7) << "lag " << d;
  }
}

TEST(ChunkedTest, LagsBeforeAnyInputAreZero) {
  fft::BoundedLagAutocorrelator correlator(10);
  const auto lags = correlator.Lags();
  ASSERT_EQ(lags.size(), 11u);
  for (const double value : lags) EXPECT_EQ(value, 0.0);
}

TEST(ChunkedTest, MaxLagZeroIsEnergyOnly) {
  const auto x = RandomVector(500, 2);
  fft::BoundedLagAutocorrelator correlator(/*max_lag=*/0, /*block_size=*/64);
  correlator.Append(x);
  double energy = 0.0;
  for (const double v : x) energy += v * v;
  EXPECT_NEAR(correlator.Lags()[0], energy, 1e-8);
}

// The central property: chunked accumulation over any block size equals the
// full-length autocorrelation restricted to the bounded lags — including
// block sizes smaller than max_lag (the tricky far-lag paths) and inputs
// delivered in ragged chunks.
class ChunkedProperty
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(ChunkedProperty, MatchesFullAutocorrelation) {
  const auto [n, max_lag, block_size] = GetParam();
  const auto x = RandomVector(n, n + max_lag + block_size);
  fft::BoundedLagAutocorrelator correlator(max_lag, block_size);

  // Feed in ragged chunks to exercise buffering.
  Rng rng(99);
  std::size_t offset = 0;
  while (offset < n) {
    const std::size_t take = std::min<std::size_t>(
        n - offset, 1 + rng.UniformInt(2 * block_size));
    correlator.Append(
        std::span<const double>(x.data() + offset, take));
    offset += take;
  }
  // size() counts fully processed samples; the remainder sits in the buffer
  // and is still reflected by Lags().
  ASSERT_LE(correlator.size(), n);

  const std::vector<double> bounded = correlator.Lags();
  const std::vector<double> full = fft::Autocorrelation(x);
  ASSERT_EQ(bounded.size(), max_lag + 1);
  for (std::size_t d = 0; d <= max_lag && d < n; ++d) {
    EXPECT_NEAR(bounded[d], full[d], 1e-6) << "lag " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChunkedProperty,
    ::testing::Values(
        std::make_tuple(1000, 50, 200),   // block >> lag
        std::make_tuple(1000, 50, 50),    // block == lag
        std::make_tuple(1000, 50, 17),    // block < lag (far-lag paths)
        std::make_tuple(1000, 200, 64),   // lag >> block
        std::make_tuple(333, 100, 13),    // ragged everything
        std::make_tuple(64, 63, 7),       // lag ~ n
        std::make_tuple(10, 9, 3)));      // tiny

TEST(ChunkedTest, LagsIsIdempotentAndAppendContinues) {
  const auto x = RandomVector(600, 5);
  fft::BoundedLagAutocorrelator correlator(/*max_lag=*/30, /*block_size=*/100);
  correlator.Append(std::span<const double>(x.data(), 350));
  const auto mid_a = correlator.Lags();
  const auto mid_b = correlator.Lags();
  EXPECT_EQ(mid_a, mid_b);  // no state disturbance

  correlator.Append(std::span<const double>(x.data() + 350, 250));
  const auto final_lags = correlator.Lags();
  const std::vector<double> full = fft::Autocorrelation(x);
  for (std::size_t d = 0; d <= 30; ++d) {
    EXPECT_NEAR(final_lags[d], full[d], 1e-7);
  }
}

TEST(ChunkedTest, BinaryBoundedMatchesDirectCounts) {
  // The streaming detector feeds 0/1 indicators and rounds the lags to
  // counts; across many blocks the accumulated error must stay far below
  // the rounding boundary.
  Rng rng(7);
  std::vector<std::uint8_t> indicator(5000);
  for (auto& bit : indicator) bit = rng.Bernoulli(0.25) ? 1 : 0;
  fft::BoundedLagAutocorrelator correlator(/*max_lag=*/64,
                                           /*block_size=*/128);
  const std::vector<double> samples(indicator.begin(), indicator.end());
  correlator.Append(samples);
  const std::vector<double> lags = correlator.Lags();
  ASSERT_EQ(lags.size(), 65u);
  for (const std::size_t d : {0u, 1u, 13u, 64u}) {
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i + d < indicator.size(); ++i) {
      expected += indicator[i] & indicator[i + d];
    }
    EXPECT_EQ(std::llround(lags[d]), static_cast<long long>(expected))
        << "lag " << d;
    EXPECT_LT(std::abs(lags[d] - static_cast<double>(expected)), 0.25)
        << "lag " << d;
  }
}

}  // namespace
}  // namespace periodica
